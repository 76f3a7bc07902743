package compiler

import (
	"fmt"
	"sort"

	"github.com/systemds/systemds-go/internal/hops"
	"github.com/systemds/systemds-go/internal/instructions"
	"github.com/systemds/systemds-go/internal/runtime"
	"github.com/systemds/systemds-go/internal/types"
)

// flush finalizes the current HOP DAG: transient writes are added for all
// in-block variable definitions, the static rewrites run, sizes and memory
// estimates are propagated, execution types are selected, and the DAG is
// lowered into runtime instructions. The variable map and DAG are then reset
// for the next DAG of the block.
func (bb *blockBuilder) flush() error {
	// add transient writes for assigned variables (sorted for determinism)
	names := make([]string, 0, len(bb.varMap))
	for name := range bb.varMap {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := bb.varMap[name]
		// skip self-assignments of unchanged transient reads
		if h.Kind == hops.KindRead && h.Name == name {
			continue
		}
		// a dead variable gets no write: nothing reads it again, and its
		// value stays free to fuse into its one real consumer
		if !bb.live.writes(name, bb.pos) {
			delete(bb.c.compressedVars, name)
			continue
		}
		bb.dag.Roots = append(bb.dag.Roots, hops.NewWrite(name, h))
	}
	if len(bb.dag.Roots) == 0 {
		bb.varMap = map[string]*hops.Hop{}
		bb.dag = &hops.DAG{}
		return nil
	}
	hops.Rewrite(bb.dag)
	bb.passed("rewrite")
	hops.PropagateSizes(bb.dag, bb.known)
	bb.passed("sizes")
	params := hops.PlannerParams{
		MemBudget:          bb.c.cfg.OperatorMemBudget,
		DistEnabled:        bb.c.cfg.DistEnabled,
		Blocksize:          bb.c.cfg.DistBlocksize,
		CompressionEnabled: bb.c.cfg.CompressionEnabled,
	}
	// the fusion pattern matcher runs after rewrites/CSE (so shared
	// subexpressions are single hops and consumer counts are exact) and
	// before exec-type selection (fusion is gated on the planner's own
	// predicate over the same params, so it never steals work from the
	// blocked backend); without fusion, t(X) %*% Y still becomes xty, so the
	// setting never changes which kernel computes a product. Sizes are
	// re-propagated because both rewrite producer/consumer edges
	if !bb.c.cfg.FusionDisabled {
		hops.FuseOperators(bb.dag, params)
	} else {
		hops.RewriteXtY(bb.dag, params)
	}
	bb.passed("fuse")
	hops.PropagateSizes(bb.dag, bb.known)
	bb.passed("sizes")
	// mark transient reads of variables compressed by an earlier DAG, so the
	// planner prices their compressed bytes and EXPLAIN tags the CLA kernels;
	// note a cellwise chain over reads of unknown type (the matcher left it
	// alone, so it looks the same after fusion as before)
	for _, h := range bb.dag.Nodes() {
		if h.Kind == hops.KindRead && bb.c.compressedVars[h.Name] {
			h.CompressedRead = true
		}
		if hops.UntypedCellChain(h) {
			bb.untypedChains = true
		}
	}
	bb.passed("mark")
	// the physical planner: one cost-based pass assigns execution types and
	// matmult strategies from the same estimates the fusion gate consumed
	hops.Plan(bb.dag, params)
	bb.passed("plan")
	hops.PropagateBlockedOutputs(bb.dag)
	bb.passed("blocked")
	// update the cross-DAG compressed-variable tracking from this DAG's
	// writes: a fired compression site marks its variable, any other producer
	// clears it (unwritten variables keep their prior state)
	for _, r := range bb.dag.Roots {
		if r.Kind == hops.KindWrite && len(r.Inputs) == 1 {
			if hops.CompressedOutput(r.Inputs[0]) {
				bb.c.compressedVars[r.Name] = true
			} else {
				delete(bb.c.compressedVars, r.Name)
			}
		}
	}
	if bb.c.explain != nil {
		bb.c.explain.WriteString(bb.dag.ExplainPlanWith(bb.c.annotate))
		bb.c.explain.WriteByte('\n')
	}
	instrs, unknown, err := lowerDAG(bb.dag)
	if err != nil {
		return err
	}
	bb.passed("lower")
	if unknown {
		bb.unknownSizes = true
	}
	bb.instrs = append(bb.instrs, instrs...)
	bb.varMap = map[string]*hops.Hop{}
	bb.dag = &hops.DAG{}
	return nil
}

// passed shows the DAG to the probe's Pass, if one is installed.
func (bb *blockBuilder) passed(pass string) {
	if p := probe.Load(); p != nil && p.Pass != nil {
		p.Pass(pass, bb.dag)
	}
}

// emit appends a directly-emitted (non-DAG) instruction.
func (bb *blockBuilder) emit(inst runtime.Instruction) {
	bb.instrs = append(bb.instrs, inst)
}

// tempNameOf returns the runtime temporary variable name of an intermediate
// HOP output.
func tempNameOf(h *hops.Hop) string {
	return fmt.Sprintf("%s%d", runtime.TempPrefix, h.ID)
}

// operandOf converts a HOP into the instruction operand referencing its
// runtime value.
func operandOf(h *hops.Hop) instructions.Operand {
	switch h.Kind {
	case hops.KindLiteral:
		switch {
		case h.LitIsStr:
			return instructions.LitString(h.LitString)
		case h.LitIsBool:
			return instructions.LitBool(h.LitBool)
		case h.ValueType == types.INT64:
			return instructions.LitInt(int64(h.LitValue))
		default:
			return instructions.LitDouble(h.LitValue)
		}
	case hops.KindRead:
		return instructions.Var(h.Name)
	default:
		return instructions.Var(tempNameOf(h))
	}
}

// lowerDAG lowers a rewritten, size-annotated DAG into instructions in
// topological order and reports whether any operator had an unknown memory
// estimate (input for the dynamic-recompilation decision).
//
// Instruction order: all compute instructions first (they read the values the
// variables had at block entry), then the transient writes. Writes whose
// source is a plain variable reference (alias assignments) are emitted before
// writes of computed values, so an assignment like "y = x" observes the old
// value of x even when x is redefined in the same DAG.
func lowerDAG(dag *hops.DAG) ([]runtime.Instruction, bool, error) {
	var computes, aliasWrites, valueWrites []runtime.Instruction
	unknown := false
	nodes := dag.Nodes()
	updates := leftIndexUpdates(dag, nodes)
	for _, h := range nodes {
		// recompile exactly when a size the planner's decisions depend on is
		// still unknown (cost.go's predicate)
		if hops.PlanRelevantUnknown(h) {
			unknown = true
		}
		inst, err := lowerHop(h)
		if err != nil {
			return nil, false, err
		}
		if inst == nil {
			continue
		}
		if li, ok := inst.(*instructions.LeftIndexInst); ok {
			u := updates[h]
			li.Updates, li.InPlace = u.name, u.inPlace
		}
		switch {
		case h.Kind != hops.KindWrite:
			computes = append(computes, inst)
		case len(h.Inputs) == 1 && h.Inputs[0].Kind == hops.KindRead:
			aliasWrites = append(aliasWrites, inst)
		default:
			valueWrites = append(valueWrites, inst)
		}
	}
	instrs := append(computes, aliasWrites...)
	return append(instrs, valueWrites...), unknown, nil
}

// liUpdate is what lowering tells a left-indexing instruction about the
// variable it updates (instructions.LeftIndexInst.Updates / InPlace).
type liUpdate struct {
	name    string
	inPlace bool
}

// leftIndexUpdates finds the left-indexing hops whose result a transient
// write of the DAG gives to the variable v they index — directly, or through
// further left-indexing (R[1, 1] = a; R[2, 2] = b) — and returns v for each.
// The one of them whose target is the read of v itself may also update v's
// value in place when every reader of v in the DAG is that hop or feeds it:
// those run before it, and no instruction of the block reads the old value
// after it.
func leftIndexUpdates(dag *hops.DAG, nodes []*hops.Hop) map[*hops.Hop]liUpdate {
	var updates map[*hops.Hop]liUpdate
	for _, r := range dag.Roots {
		if r.Kind != hops.KindWrite || len(r.Inputs) != 1 {
			continue
		}
		var chain []*hops.Hop
		h := r.Inputs[0]
		for ; h.Kind == hops.KindLeftIndex; h = h.Inputs[0] {
			chain = append(chain, h)
		}
		if len(chain) == 0 || h.Kind != hops.KindRead || h.Name != r.Name {
			continue
		}
		if updates == nil {
			updates = map[*hops.Hop]liUpdate{}
		}
		for _, li := range chain {
			updates[li] = liUpdate{name: r.Name}
		}
		first := chain[len(chain)-1]
		updates[first] = liUpdate{name: r.Name, inPlace: onlyReadBy(nodes, r.Name, first)}
	}
	return updates
}

// onlyReadBy reports whether every consumer of a read of the variable name
// among nodes is li or an input of li, transitively.
func onlyReadBy(nodes []*hops.Hop, name string, li *hops.Hop) bool {
	cone := map[*hops.Hop]bool{}
	var visit func(h *hops.Hop)
	visit = func(h *hops.Hop) {
		if cone[h] {
			return
		}
		cone[h] = true
		for _, in := range h.Inputs {
			visit(in)
		}
		for _, p := range h.Params {
			visit(p)
		}
	}
	visit(li)
	isRead := func(h *hops.Hop) bool { return h.Kind == hops.KindRead && h.Name == name }
	for _, h := range nodes {
		if cone[h] {
			continue
		}
		for _, in := range h.Inputs {
			if isRead(in) {
				return false
			}
		}
		for _, p := range h.Params {
			if isRead(p) {
				return false
			}
		}
	}
	return true
}

// estBytesOf returns the planner's estimated output bytes of a HOP, or -1
// when the estimate was unknown at compile time; instructions surface it next
// to the actual output bytes in the plan records.
func estBytesOf(h *hops.Hop) int64 {
	if h.CostEst.Known {
		return h.CostEst.OutputBytes
	}
	return -1
}

// lowerHop lowers one HOP into an instruction (or nil for reads/literals) and
// hands the instructions that take one the planner's annotations: execution
// type, blocked output, estimated output bytes. It has no side effects.
func lowerHop(h *hops.Hop) (runtime.Instruction, error) {
	inst, err := lowerOp(h)
	if p, ok := inst.(interface {
		SetPlan(et types.ExecType, blockedOut bool, estBytes int64)
	}); ok {
		p.SetPlan(h.ExecType, h.BlockedOutput, estBytesOf(h))
	}
	return inst, err
}

// lowerOp builds the instruction of one HOP from its operands.
func lowerOp(h *hops.Hop) (runtime.Instruction, error) {
	out := tempNameOf(h)
	in := func(i int) instructions.Operand { return operandOf(h.Inputs[i]) }
	switch h.Kind {
	case hops.KindRead, hops.KindLiteral:
		return nil, nil
	case hops.KindWrite:
		src := operandOf(h.Inputs[0])
		return instructions.NewAssign(h.Name, src), nil
	case hops.KindBinary:
		return instructions.NewBinary(h.Op, out, in(0), in(1)), nil
	case hops.KindUnary:
		return instructions.NewUnary(h.Op, out, in(0)), nil
	case hops.KindAggUnary:
		op := h.Op
		if op == "nnz" {
			op = "sum" // nnz lowered as sum over (X != 0) is handled upstream; direct fallback
		}
		return instructions.NewAgg(op, out, in(0)), nil
	case hops.KindMatMult:
		inst := instructions.NewMatMult(out, in(0), in(1))
		inst.Method = h.MMPlan
		return inst, nil
	case hops.KindCompress:
		if !h.CompressFire {
			// the planner declined the site: lower to a no-op alias so the
			// variable flow stays intact at zero runtime cost
			return instructions.NewAssign(out, in(0)), nil
		}
		return instructions.NewCompress(out, in(0)), nil
	case hops.KindTSMM:
		return instructions.NewTSMM(out, in(0)), nil
	case hops.KindMMChain:
		if h.Op == hops.OpXtY {
			return instructions.NewXtY(out, in(0), in(1)), nil
		}
		if h.Fused == nil {
			return nil, fmt.Errorf("compiler: row chain without a program")
		}
		args := make([]instructions.Operand, len(h.Inputs)-2)
		for i := range args {
			args[i] = in(i + 2)
		}
		return instructions.NewMMChain(out, in(0), in(1), h.Fused.Prog, args), nil
	case hops.KindFusedAgg, hops.KindFusedCell:
		if h.Fused == nil {
			return nil, fmt.Errorf("compiler: fused operator %s without a plan", h.Op)
		}
		args := make([]instructions.Operand, len(h.Inputs))
		for i := range h.Inputs {
			args[i] = operandOf(h.Inputs[i])
		}
		if h.Kind == hops.KindFusedCell {
			return instructions.NewFusedCell(h.Op, out, h.Fused.Prog, args), nil
		}
		return instructions.NewFusedAgg(h.Fused.Kind, out, h.Fused.Prog, args), nil
	case hops.KindReorg:
		var opcode string
		switch h.Op {
		case "t":
			opcode = "r'"
		case "diag":
			opcode = "rdiag"
		case "rev":
			opcode = "rev"
		default:
			return nil, fmt.Errorf("compiler: unknown reorg op %q", h.Op)
		}
		return instructions.NewReorg(opcode, out, in(0)), nil
	case hops.KindIndexing:
		return instructions.NewRightIndex(out, in(0), in(1), in(2), in(3), in(4)), nil
	case hops.KindLeftIndex:
		return instructions.NewLeftIndex(out, in(0), in(1), in(2), in(3), in(4), in(5)), nil
	case hops.KindNary:
		ops := make([]instructions.Operand, len(h.Inputs))
		for i := range h.Inputs {
			ops[i] = operandOf(h.Inputs[i])
		}
		return instructions.NewNary(h.Op, out, ops...), nil
	case hops.KindTernary:
		return instructions.NewTernary(out, in(0), in(1), in(2)), nil
	case hops.KindCast:
		return instructions.NewCast(h.Op, out, in(0)), nil
	case hops.KindDataGen:
		return lowerDataGen(h, out)
	case hops.KindParamBuiltin:
		return lowerParamBuiltin(h, out)
	default:
		return nil, fmt.Errorf("compiler: cannot lower HOP kind %s (op %s)", h.Kind, h.Op)
	}
}

func lowerDataGen(h *hops.Hop, out string) (runtime.Instruction, error) {
	p := func(key string, def instructions.Operand) instructions.Operand {
		if v, ok := h.Params[key]; ok {
			return operandOf(v)
		}
		return def
	}
	switch h.Op {
	case "rand":
		return instructions.NewRand(out,
			p("rows", instructions.LitInt(1)), p("cols", instructions.LitInt(1)),
			p("min", instructions.LitDouble(0)), p("max", instructions.LitDouble(1)),
			p("sparsity", instructions.LitDouble(1)), p("pdf", instructions.LitString("uniform")),
			p("seed", instructions.Operand{})), nil
	case "seq":
		return instructions.NewSeq(out,
			p("from", instructions.LitDouble(1)), p("to", instructions.LitDouble(1)),
			p("incr", instructions.LitDouble(1))), nil
	case "fill":
		return instructions.NewFill(out,
			p("value", instructions.LitDouble(0)),
			p("rows", instructions.LitInt(1)), p("cols", instructions.LitInt(1))), nil
	case "sample":
		return instructions.NewSample(out,
			p("population", instructions.LitInt(1)), p("size", instructions.LitInt(1)),
			p("replace", instructions.LitBool(false)), p("seed", instructions.Operand{})), nil
	default:
		return nil, fmt.Errorf("compiler: unknown datagen op %q", h.Op)
	}
}

func lowerParamBuiltin(h *hops.Hop, out string) (runtime.Instruction, error) {
	switch h.Op {
	case "solve":
		return instructions.NewSolve(out, operandOf(h.Inputs[0]), operandOf(h.Inputs[1])), nil
	case "inv":
		return instructions.NewInverse(out, operandOf(h.Inputs[0])), nil
	case "cholesky":
		return instructions.NewCholesky(out, operandOf(h.Inputs[0])), nil
	default:
		params := map[string]instructions.Operand{}
		for k, v := range h.Params {
			params[k] = operandOf(v)
		}
		return instructions.NewParamBuiltin(h.Op, out, params), nil
	}
}
