package compiler

import (
	"fmt"
	"sort"
	"sync/atomic"

	"github.com/systemds/systemds-go/internal/hops"
	"github.com/systemds/systemds-go/internal/instructions"
	"github.com/systemds/systemds-go/internal/lang"
	"github.com/systemds/systemds-go/internal/runtime"
	"github.com/systemds/systemds-go/internal/types"
)

// blockBuilder builds the HOP DAGs and instruction sequence of one basic
// block.
type blockBuilder struct {
	c      *Compiler
	dag    *hops.DAG
	varMap map[string]*hops.Hop
	instrs []runtime.Instruction
	known  map[string]types.DataCharacteristics
	// reads collects the variables read from the block's entry state: the
	// names whose characteristics can reach the block's plan.
	reads map[string]bool
	// unknownSizes records whether any lowered operator had an unknown memory
	// estimate (triggers dynamic recompilation when the distributed backend
	// is enabled).
	unknownSizes bool
	// untypedChains records whether a cellwise chain of the block reads a
	// variable of unknown type (hops.UntypedCellChain): with fusion enabled the
	// block recompiles until the live types have been seen once.
	untypedChains bool
	seedSeq       int64
	// scope prefixes every variable name while an inlined function body is
	// built (inline.go); empty in the caller's own code.
	scope string
	// live tells a flush during statement pos which variables to write
	live *blockLive
	pos  int
}

// compileBasicBlock compiles straight-line statements into a basic block and
// attaches a dynamic-recompilation callback. live holds the variables live
// after the block (nil: every variable); the block writes no other.
func (c *Compiler) compileBasicBlock(stmts []lang.Statement, known map[string]types.DataCharacteristics,
	live map[string]bool) (*runtime.BasicBlock, error) {
	flushLive := newBlockLive(stmts, live)
	bb, err := c.buildBlock(stmts, known, flushLive)
	if err != nil {
		return nil, err
	}
	block := &runtime.BasicBlock{Instructions: bb.instrs, CleanupTemps: true}
	// dynamic recompilation against live sizes drives exec-type selection
	// (distributed backend), operator fusion and the xty rewrite: loop and
	// function bodies compile with unknown sizes, so without recompilation no
	// matcher could prove shapes inside the hottest blocks
	sizes := bb.unknownSizes
	if sizes || (!c.cfg.FusionDisabled && bb.untypedChains) {
		// the live sets are computed once per compile, not per recompile
		stmtsCopy := stmts
		block.RequiresRecompile = true
		// loop bodies recompile on every execution; memoize the lowered
		// instructions by the plan-visible sizes of the variables the block
		// reads — nothing else reaches its plan — so iterations the planner
		// cannot tell apart (the common case) pay the HOP pipeline once, not
		// per iteration, and answer "same as last time" by comparing a few
		// tuples in place. The block is planned against the same normalised
		// sizes it is keyed by, so one key always means one plan.
		// Parfor workers recompile concurrently — the same block, and
		// different blocks of one body — so the memo and buildBlock both run
		// under the compiler-wide recompile lock; the cached instruction
		// objects are immutable during execution, exactly like a block's
		// statically compiled instruction list.
		reads := make([]string, 0, len(bb.reads))
		for name := range bb.reads {
			reads = append(reads, name)
		}
		sort.Strings(reads)
		memoSig := make([]liveSize, len(reads))
		var memoInstrs []runtime.Instruction
		// settled: the block recompiled only to learn the types of its reads
		// and none of them was a matrix (scalar arithmetic in a loop body) —
		// there is no chain to fuse and no size to plan against, so the static
		// plan stands and later executions skip the lock. Should a read become
		// a matrix afterwards, the static plan is still correct, just unfused.
		var settled atomic.Bool
		block.Recompile = func(ctx *runtime.Context) ([]runtime.Instruction, error) {
			if settled.Load() {
				return nil, nil
			}
			c.recompileMu.Lock()
			defer c.recompileMu.Unlock()
			hit := memoInstrs != nil
			for i, name := range reads {
				sz := liveSizeOf(ctx, name)
				hit = hit && memoSig[i] == sz
				memoSig[i] = sz
			}
			if hit {
				return memoInstrs, nil
			}
			memoInstrs = nil
			liveKnown := make(map[string]types.DataCharacteristics, len(reads))
			for i, name := range reads {
				if memoSig[i].known {
					liveKnown[name] = memoSig[i].characteristics()
				}
			}
			if !sizes && len(liveKnown) == 0 {
				settled.Store(true)
				return nil, nil
			}
			if p := probe.Load(); p != nil && p.Rebuild != nil {
				c.probeRebuild(p, ctx, reads, liveKnown, stmtsCopy, flushLive)
			}
			rebuilt, err := c.buildBlock(stmtsCopy, liveKnown, flushLive)
			if err != nil {
				return nil, err
			}
			memoInstrs = rebuilt.instrs
			return memoInstrs, nil
		}
	}
	return block, nil
}

// liveSize is one entry of a recompilation memo's key: what the planner can
// see of a variable the block reads (known is false for a scalar, a list, or
// an unbound name).
type liveSize struct {
	known      bool
	rows, cols int64
	blocksize  int
	nnz        int64
}

// characteristics returns the size the block is planned against.
func (s liveSize) characteristics() types.DataCharacteristics {
	return types.NewDataCharacteristics(s.rows, s.cols, s.blocksize, s.nnz)
}

// liveSizeOf reads the characteristics of a bound variable, if it has any,
// in their plan-visible form (planVisible).
func liveSizeOf(ctx *runtime.Context, name string) liveSize {
	dc, ok := boundCharacteristics(ctx, name)
	if !ok {
		return liveSize{}
	}
	dc = planVisible(dc)
	return liveSize{true, dc.Rows, dc.Cols, dc.Blocksize, dc.NNZ}
}

// planVisible keeps of a variable's characteristics what can change a plan:
// rows, cols and blocksize as they are, nnz when it is unknown or below
// types.SparseThreshold, and otherwise rows·cols — every count in the dense
// class plans alike. Dense-class nnz reaches the planner only through
// types.EstimateSize, whose dense estimate ignores it, the
// Sparsity() < SparseThreshold tests, and the nnz bounds of cost.go, which
// keep every intermediate of dense-class inputs in the same class, with
// equal values where it is sparse (DESIGN.md, "Interaction with
// recompilation", lists each consumer).
func planVisible(dc types.DataCharacteristics) types.DataCharacteristics {
	if cells := dc.Cells(); cells > 0 && dc.NNZKnown() && dc.Sparsity() >= types.SparseThreshold {
		dc.NNZ = cells
	}
	return dc
}

// boundCharacteristics reads the characteristics of a bound variable, if it
// has any. Local, blocked and federated matrix objects all expose them
// without touching the data; blocked variables in particular must keep known
// sizes here, or the recompiled block falls back to eager per-op collects.
func boundCharacteristics(ctx *runtime.Context, name string) (types.DataCharacteristics, bool) {
	d, err := ctx.Get(name)
	if err != nil {
		return types.DataCharacteristics{}, false
	}
	mc, ok := d.(interface {
		DataCharacteristics() types.DataCharacteristics
	})
	if !ok {
		return types.DataCharacteristics{}, false
	}
	return mc.DataCharacteristics(), true
}

// probeRebuild shows a rebuild to a test's probe; without one installed
// (SetProbe) it never runs. The probe gets the reads' exact sizes, the
// visible ones, and a plan function that lowers the block aside: it puts
// back the compressed-variable tracking the build writes, so however often
// the probe plans, the block's own plan is the one it would have had.
func (c *Compiler) probeRebuild(p *Probe, ctx *runtime.Context, reads []string,
	visible map[string]types.DataCharacteristics, stmts []lang.Statement, live *blockLive) {
	exact := make(map[string]types.DataCharacteristics, len(reads))
	for _, name := range reads {
		if dc, ok := boundCharacteristics(ctx, name); ok {
			exact[name] = dc
		}
	}
	p.Rebuild(exact, visible, func(known map[string]types.DataCharacteristics) ([]runtime.Instruction, error) {
		saved := make(map[string]bool, len(c.compressedVars))
		for name, v := range c.compressedVars {
			saved[name] = v
		}
		defer func() { c.compressedVars = saved }()
		bb, err := c.buildBlock(stmts, known, live)
		if err != nil {
			return nil, err
		}
		return bb.instrs, nil
	})
}

// Probe observes compilation for tests that hold the compiler to its
// invariants over whole programs; a nil field observes nothing. Only tests
// install one.
type Probe struct {
	// Pass sees a flush's DAG after each of its passes, named by the pass.
	Pass func(pass string, d *hops.DAG)
	// Rebuild sees each rebuild of a recompiled block before it runs: the
	// characteristics of its reads as bound (exact), the plan-visible ones
	// the block is keyed by and planned against (visible), and plan, which
	// lowers the block against any characteristics and leaves the
	// compiler's state as it found it.
	Rebuild func(exact, visible map[string]types.DataCharacteristics,
		plan func(map[string]types.DataCharacteristics) ([]runtime.Instruction, error))
}

var probe atomic.Pointer[Probe]

// SetProbe installs p (nil for none) for every compiler of the process and
// returns a function that puts the previous probe back.
func SetProbe(p *Probe) (restore func()) {
	old := probe.Swap(p)
	return func() { probe.Store(old) }
}

// buildBlock runs the statement-to-DAG-to-instruction pipeline; live says
// which variables its flushes write.
func (c *Compiler) buildBlock(stmts []lang.Statement, known map[string]types.DataCharacteristics,
	live *blockLive) (*blockBuilder, error) {
	bb := &blockBuilder{
		c:      c,
		dag:    &hops.DAG{},
		varMap: map[string]*hops.Hop{},
		known:  known,
		reads:  map[string]bool{},
		live:   live,
	}
	for i, s := range stmts {
		bb.pos = i
		if err := bb.processStatement(s); err != nil {
			return nil, err
		}
	}
	bb.pos = len(stmts)
	if err := bb.flush(); err != nil {
		return nil, err
	}
	return bb, nil
}

func (bb *blockBuilder) processStatement(s lang.Statement) error {
	switch v := s.(type) {
	case *lang.AssignStmt:
		return bb.processAssign(v)
	case *lang.ExprStmt:
		return bb.processExprStmt(v)
	default:
		return fmt.Errorf("compiler: statement %T is not straight-line code", s)
	}
}

// processAssign handles plain, indexed and multi-assignments.
func (bb *blockBuilder) processAssign(s *lang.AssignStmt) error {
	if call, ok := s.Value.(*lang.CallExpr); ok {
		switch {
		case call.Name == "read":
			return bb.emitRead(s, call)
		case call.Name == "eigen":
			return bb.emitEigen(s, call)
		case call.Name == "transformencode":
			return bb.emitTransformEncode(s, call)
		case call.Name == "transformapply":
			return bb.emitTransformApply(s, call)
		case bb.c.isUserOrDMLFunction(call.Name):
			return bb.emitFCall(s, call)
		}
	}
	if len(s.Targets) > 1 {
		return fmt.Errorf("compiler: line %d: multi-assignment requires a function call", s.Line)
	}
	valueHop, err := bb.buildExpr(s.Value)
	if err != nil {
		return err
	}
	target := s.Targets[0]
	if !target.Indexed {
		bb.varMap[bb.scope+target.Name] = valueHop
		return nil
	}
	// left indexing: target[rl:ru, cl:cu] = value
	targetHop := bb.readVar(target.Name)
	rl, ru, cl, cu, err := bb.buildIndexBoundHops(target.Rows, target.Cols)
	if err != nil {
		return err
	}
	li := hops.NewHop(hops.KindLeftIndex, "leftIndex", targetHop, valueHop, rl, ru, cl, cu)
	li.DataType = types.Matrix
	bb.varMap[bb.scope+target.Name] = li
	return nil
}

// processExprStmt handles side-effecting statements (print, write, stop,
// assert) and bare expressions.
func (bb *blockBuilder) processExprStmt(s *lang.ExprStmt) error {
	call, ok := s.Value.(*lang.CallExpr)
	if !ok {
		// bare expression: evaluate into a throwaway temporary for effect-free
		// validation
		h, err := bb.buildExpr(s.Value)
		if err != nil {
			return err
		}
		bb.dag.Roots = append(bb.dag.Roots, hops.NewWrite(fmt.Sprintf("%sdiscard%d", runtime.TempPrefix, h.ID), h))
		return nil
	}
	switch call.Name {
	case "print":
		if len(call.Args) != 1 {
			return fmt.Errorf("compiler: line %d: print takes exactly one argument", s.Line)
		}
		op, err := bb.exprToOperand(call.Args[0].Value)
		if err != nil {
			return err
		}
		if err := bb.flush(); err != nil {
			return err
		}
		bb.emit(instructions.NewPrint(op))
		return nil
	case "stop":
		op := instructions.LitString("stop")
		if len(call.Args) > 0 {
			var err error
			op, err = bb.exprToOperand(call.Args[0].Value)
			if err != nil {
				return err
			}
		}
		if err := bb.flush(); err != nil {
			return err
		}
		bb.emit(instructions.NewStop(op))
		return nil
	case "assert":
		if len(call.Args) != 1 {
			return fmt.Errorf("compiler: line %d: assert takes exactly one argument", s.Line)
		}
		op, err := bb.exprToOperand(call.Args[0].Value)
		if err != nil {
			return err
		}
		if err := bb.flush(); err != nil {
			return err
		}
		bb.emit(instructions.NewAssert(op))
		return nil
	case "write":
		if len(call.Args) < 2 {
			return fmt.Errorf("compiler: line %d: write requires data and file arguments", s.Line)
		}
		dataOp, err := bb.exprToOperand(call.Args[0].Value)
		if err != nil {
			return err
		}
		pathOp, err := bb.exprToOperand(call.Args[1].Value)
		if err != nil {
			return err
		}
		formatOp := instructions.LitString("")
		for _, a := range call.Args[2:] {
			if a.Name == "format" {
				formatOp, err = bb.exprToOperand(a.Value)
				if err != nil {
					return err
				}
			}
		}
		if err := bb.flush(); err != nil {
			return err
		}
		bb.emit(instructions.NewWrite(dataOp, pathOp, formatOp))
		return nil
	default:
		if bb.c.isUserOrDMLFunction(call.Name) {
			// function call whose results are discarded
			return bb.emitFCall(&lang.AssignStmt{Targets: nil, Value: call, Line: s.Line}, call)
		}
		h, err := bb.buildExpr(call)
		if err != nil {
			return err
		}
		bb.dag.Roots = append(bb.dag.Roots, hops.NewWrite(fmt.Sprintf("%sdiscard%d", runtime.TempPrefix, h.ID), h))
		return nil
	}
}

// readVar returns the current in-block definition of a variable or a
// transient read. Inside an inlined body the name is the callee's.
func (bb *blockBuilder) readVar(name string) *hops.Hop {
	name = bb.scope + name
	if h, ok := bb.varMap[name]; ok {
		return h
	}
	bb.reads[name] = true
	h := hops.NewRead(name, types.UnknownData)
	if dc, ok := bb.known[name]; ok {
		h.DC = dc
		h.DataType = types.Matrix
	}
	return h
}

// exprToOperand converts an expression to an instruction operand, creating a
// temporary DAG output for non-trivial expressions.
func (bb *blockBuilder) exprToOperand(e lang.Expr) (instructions.Operand, error) {
	switch v := e.(type) {
	case *lang.NumLit:
		if v.IsInt {
			return instructions.LitInt(int64(v.Value)), nil
		}
		return instructions.LitDouble(v.Value), nil
	case *lang.StrLit:
		return instructions.LitString(v.Value), nil
	case *lang.BoolLit:
		return instructions.LitBool(v.Value), nil
	case *lang.Ident:
		return instructions.Var(v.Name), nil
	default:
		h, err := bb.buildExpr(e)
		if err != nil {
			return instructions.Operand{}, err
		}
		tempName := fmt.Sprintf("%sf%d", runtime.TempPrefix, h.ID)
		bb.dag.Roots = append(bb.dag.Roots, hops.NewWrite(tempName, h))
		return instructions.Var(tempName), nil
	}
}

// buildIndexBoundHops converts index ranges to bound hops using 1-based
// inclusive bounds with 0 meaning "unbounded".
func (bb *blockBuilder) buildIndexBoundHops(rows, cols *lang.IndexRange) (rl, ru, cl, cu *hops.Hop, err error) {
	build := func(r *lang.IndexRange) (*hops.Hop, *hops.Hop, error) {
		if r == nil || r.All {
			return hops.NewLiteralNumber(0), hops.NewLiteralNumber(0), nil
		}
		lo, err := bb.buildExpr(r.Lower)
		if err != nil {
			return nil, nil, err
		}
		if r.Upper == nil {
			return lo, lo, nil
		}
		hi, err := bb.buildExpr(r.Upper)
		if err != nil {
			return nil, nil, err
		}
		return lo, hi, nil
	}
	rl, ru, err = build(rows)
	if err != nil {
		return
	}
	cl, cu, err = build(cols)
	return
}

// buildExpr converts an expression into a HOP.
func (bb *blockBuilder) buildExpr(e lang.Expr) (*hops.Hop, error) {
	switch v := e.(type) {
	case *lang.NumLit:
		return hops.NewLiteralNumber(v.Value), nil
	case *lang.StrLit:
		return hops.NewLiteralString(v.Value), nil
	case *lang.BoolLit:
		return hops.NewLiteralBool(v.Value), nil
	case *lang.Ident:
		return bb.readVar(v.Name), nil
	case *lang.UnaryExpr:
		in, err := bb.buildExpr(v.Operand)
		if err != nil {
			return nil, err
		}
		op := "uminus"
		if v.Op == "!" {
			op = "!"
		}
		h := hops.NewHop(hops.KindUnary, op, in)
		h.DataType = in.DataType
		h.ValueType = in.ValueType
		return h, nil
	case *lang.RangeExpr:
		from, err := bb.buildExpr(v.From)
		if err != nil {
			return nil, err
		}
		to, err := bb.buildExpr(v.To)
		if err != nil {
			return nil, err
		}
		h := hops.NewHop(hops.KindDataGen, "seq")
		h.DataType = types.Matrix
		h.Params = map[string]*hops.Hop{"from": from, "to": to, "incr": hops.NewLiteralNumber(1)}
		return h, nil
	case *lang.BinaryExpr:
		left, err := bb.buildExpr(v.Left)
		if err != nil {
			return nil, err
		}
		right, err := bb.buildExpr(v.Right)
		if err != nil {
			return nil, err
		}
		if v.Op == "%*%" {
			h := hops.NewHop(hops.KindMatMult, "ba+*", left, right)
			h.DataType = types.Matrix
			return h, nil
		}
		h := hops.NewHop(hops.KindBinary, v.Op, left, right)
		if left.DataType == types.Matrix || right.DataType == types.Matrix {
			h.DataType = types.Matrix
		} else {
			h.DataType = types.Scalar
		}
		return h, nil
	case *lang.IndexExpr:
		target, err := bb.buildExpr(v.Target)
		if err != nil {
			return nil, err
		}
		rl, ru, cl, cu, err := bb.buildIndexBoundHops(v.Rows, v.Cols)
		if err != nil {
			return nil, err
		}
		h := hops.NewHop(hops.KindIndexing, "rightIndex", target, rl, ru, cl, cu)
		h.DataType = types.Matrix
		return h, nil
	case *lang.CallExpr:
		return bb.buildCall(v)
	default:
		return nil, fmt.Errorf("compiler: unsupported expression %T", e)
	}
}
