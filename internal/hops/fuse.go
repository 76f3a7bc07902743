// HOP-level operator fusion (the fusion subsystem of DESIGN.md): a pattern
// matcher that runs after the static rewrites/CSE and before execution-type
// selection, replacing matched subgraphs with fused HOP kinds that lower to
// single-pass multi-threaded kernels. Two pattern families are recognized:
//
//   - mmchain: t(X) %*% (X %*% v) and t(X) %*% (w * (X %*% v)) — the
//     linear-regression / logistic-regression inner loop — become KindMMChain,
//     avoiding the materialized transpose and the m x 1 intermediate. Any
//     other t(X) %*% Y becomes the xty variant of the same kind: one pass
//     over X, no transpose.
//   - cellwise-aggregate pipelines: sum/min/max/colSums/rowSums over a tree
//     of cellwise binary/unary/scalar operations with single-consumer
//     intermediates (e.g. sum(X*Y), sum((X-P)^2)) become KindFusedAgg with a
//     matrix.CellProgram evaluated per cell directly into the aggregate.
//
// Legality: fusion never fires across multi-consumer intermediates (a shared
// intermediate is materialized anyway, so fusing would trade reuse for
// recomputation), only across operators with known, matching shapes, and —
// when the distributed backend is enabled — only when the root operator fits
// the per-operator memory budget (larger operators belong to the blocked
// backend, which has no fused kernels yet).
package hops

import (
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/types"
)

// FusedAggPlan describes a fused cellwise-aggregate pipeline: the aggregate
// name and the cell program over the Hop's inputs (the pipeline's leaves, in
// first-use order).
type FusedAggPlan struct {
	Agg  string // "sum", "min", "max", "colSums", "rowSums"
	Kind matrix.AggKind
	Prog *matrix.CellProgram
}

// fusableAggs maps aggregation HOP ops to fused aggregate kinds.
var fusableAggs = map[string]matrix.AggKind{
	"sum": matrix.AggSum, "min": matrix.AggMin, "max": matrix.AggMax,
	"colSums": matrix.AggColSums, "rowSums": matrix.AggRowSums,
}

// FuseOperators runs the fusion pattern matcher over a rewritten,
// size-annotated DAG. The params gate fusion for operators that the physical
// planner would send to the distributed backend; the gate is the planner's
// own WouldRunDist predicate (cost.go) over the same params Plan receives,
// so fusion and execution-type selection can never disagree about where an
// operator runs.
func FuseOperators(d *DAG, p PlannerParams) {
	fuseMMChains(d, p)
	fuseAggPipelines(d, p)
}

// consumerCounts returns, per HOP id, the number of consuming edges in the
// DAG (a hop referenced twice by one consumer counts twice).
func consumerCounts(d *DAG) map[int64]int {
	counts := map[int64]int{}
	for _, h := range d.Nodes() {
		for _, in := range h.Inputs {
			counts[in.ID]++
		}
		for _, p := range h.Params {
			counts[p.ID]++
		}
	}
	return counts
}

// --- mmchain ----------------------------------------------------------------

// OpXtY is the Op of the KindMMChain variant computing t(X) %*% Y from inputs
// [X, Y]; the two chain shapes keep Op "mmchain" and are told apart by their
// input count.
const OpXtY = "xty"

// fuseMMChains rewrites t(X) %*% (X %*% v) and t(X) %*% (w * (X %*% v)) into
// KindMMChain hops with inputs [X, v] or [X, v, w], and every remaining
// t(X) %*% Y into the xty variant with inputs [X, Y].
func fuseMMChains(d *DAG, p PlannerParams) {
	consumers := consumerCounts(d)
	for _, h := range d.Nodes() {
		if h.Kind != KindMatMult || len(h.Inputs) != 2 {
			continue
		}
		t, rhs := h.Inputs[0], h.Inputs[1]
		// left operand: a transpose of X. Unlike the compute-bearing
		// intermediates below, t(X) may have other consumers: the fused
		// kernel reads X directly, so nothing is recomputed — a shared
		// transpose simply stays materialized for its other consumers.
		if t.Kind != KindReorg || t.Op != "t" || len(t.Inputs) != 1 {
			continue
		}
		x := t.Inputs[0]
		if !x.IsMatrix() || WouldRunDist(h, p) {
			continue
		}
		var v, w *Hop
		switch {
		case consumers[rhs.ID] != 1:
			// a shared right-hand side is materialized anyway: no chain
		case rhs.Kind == KindMatMult && len(rhs.Inputs) == 2 && rhs.Inputs[0] == x:
			// t(X) %*% (X %*% v)
			v = rhs.Inputs[1]
		case rhs.Kind == KindBinary && rhs.Op == "*" && len(rhs.Inputs) == 2:
			// t(X) %*% (w * (X %*% v)), either operand order of the product
			for i := 0; i < 2; i++ {
				mm, cand := rhs.Inputs[i], rhs.Inputs[1-i]
				if mm.Kind == KindMatMult && len(mm.Inputs) == 2 && mm.Inputs[0] == x &&
					consumers[mm.ID] == 1 && isColVector(cand, x.DC.Rows) {
					v = mm.Inputs[1]
					w = cand
					break
				}
			}
		}
		h.Kind = KindMMChain
		h.Op = "mmchain"
		switch {
		case v == nil || !isColVector(v, x.DC.Cols):
			// no chain to fold: the multiply itself still reads X in place
			h.Op = OpXtY
			h.Inputs = []*Hop{x, rhs}
		case w != nil:
			h.Inputs = []*Hop{x, v, w}
		default:
			h.Inputs = []*Hop{x, v}
		}
		// interior nodes are now unreachable; refresh edge counts so later
		// matches see the rewritten graph
		consumers = consumerCounts(d)
	}
}

// isColVector reports whether a hop is statically known to be an n x 1
// matrix (rows must match n when n is known).
func isColVector(h *Hop, rows int64) bool {
	if !h.IsMatrix() || h.DC.Cols != 1 || h.DC.Rows < 0 {
		return false
	}
	return rows < 0 || h.DC.Rows == rows
}

// --- cellwise-aggregate pipelines -------------------------------------------

// fuseAggPipelines rewrites aggregates over single-consumer cellwise trees
// into KindFusedAgg hops carrying a cell program.
func fuseAggPipelines(d *DAG, p PlannerParams) {
	consumers := consumerCounts(d)
	for _, h := range d.Nodes() {
		aggKind, ok := fusableAggs[h.Op]
		if h.Kind != KindAggUnary || !ok || len(h.Inputs) != 1 {
			continue
		}
		root := h.Inputs[0]
		// the root must itself be a fusable cellwise operator: aggregating a
		// plain read or other materialized value is already a single pass
		if root.Kind != KindBinary && root.Kind != KindUnary {
			continue
		}
		if WouldRunDist(h, p) || WouldRunDist(root, p) {
			continue
		}
		b := &cellBuilder{consumers: consumers, dims: root.DC, argIdx: map[int64]int{}, firstMat: -1}
		if root.DC.Rows < 0 || root.DC.Cols < 0 {
			continue
		}
		if !b.build(root) || b.firstMat < 0 {
			continue
		}
		// a program that is a bare argument load means the root was not
		// eligible (multi-consumer or broadcast operands): nothing was fused,
		// keep the plain aggregate over the materialized value
		fusedOps := 0
		for _, ins := range b.instrs {
			if ins.Code != matrix.CellLoad {
				fusedOps++
			}
		}
		if fusedOps == 0 {
			continue
		}
		prog := &matrix.CellProgram{Instrs: b.instrs, NumArgs: len(b.args)}
		if prog.Validate() != nil {
			continue
		}
		prog.Annihilating = b.annihilates(root)
		h.Kind = KindFusedAgg
		h.FusedAgg = &FusedAggPlan{Agg: h.Op, Kind: aggKind, Prog: prog}
		h.Inputs = b.args
		consumers = consumerCounts(d)
	}
}

// cellBuilder linearizes a cellwise HOP tree into a stack program.
type cellBuilder struct {
	consumers map[int64]int
	dims      types.DataCharacteristics
	instrs    []matrix.CellInstr
	args      []*Hop
	argIdx    map[int64]int
	firstMat  int // index of the first matrix argument (the driver), -1 if none
	depth     int
	maxDepth  int
}

// eligible reports whether a hop may be fused as an interior node: a
// single-consumer cellwise binary/unary matrix operator of the root's shape
// whose operands are scalars or matrices of the same shape.
func (b *cellBuilder) eligible(h *Hop) bool {
	if !h.IsMatrix() || b.consumers[h.ID] != 1 {
		return false
	}
	if h.DC.Rows != b.dims.Rows || h.DC.Cols != b.dims.Cols {
		return false
	}
	switch h.Kind {
	case KindBinary:
		if len(h.Inputs) != 2 {
			return false
		}
		if _, ok := matrix.BinaryOpFromString(h.Op); !ok {
			return false
		}
		for _, in := range h.Inputs {
			if !b.operandOK(in) {
				return false
			}
		}
		return true
	case KindUnary:
		if len(h.Inputs) != 1 {
			return false
		}
		if _, ok := matrix.UnaryOpFromString(h.Op); !ok {
			return false
		}
		return b.operandOK(h.Inputs[0])
	}
	return false
}

// operandOK reports whether an operand can participate in the cell program:
// a scalar, or a matrix of the root's shape (broadcast vectors make the
// consuming operator a materialization boundary instead).
func (b *cellBuilder) operandOK(h *Hop) bool {
	if h.IsScalar() {
		return h.ValueType != types.String
	}
	return h.IsMatrix() && h.DC.Rows == b.dims.Rows && h.DC.Cols == b.dims.Cols
}

// build emits the post-order program for the subtree rooted at h; interior
// nodes recurse, everything else becomes an argument load.
func (b *cellBuilder) build(h *Hop) bool {
	if b.eligible(h) {
		switch h.Kind {
		case KindBinary:
			if !b.build(h.Inputs[0]) || !b.build(h.Inputs[1]) {
				return false
			}
			op, _ := matrix.BinaryOpFromString(h.Op)
			b.instrs = append(b.instrs, matrix.CellInstr{Code: matrix.CellBinary, Bin: op})
			b.depth--
		case KindUnary:
			if !b.build(h.Inputs[0]) {
				return false
			}
			op, _ := matrix.UnaryOpFromString(h.Op)
			b.instrs = append(b.instrs, matrix.CellInstr{Code: matrix.CellUnary, Un: op})
		}
		return len(b.instrs) <= matrix.CellMaxInstrs
	}
	// argument load (leaf)
	if !b.operandOK(h) {
		return false
	}
	idx, seen := b.argIdx[h.ID]
	if !seen {
		idx = len(b.args)
		b.argIdx[h.ID] = idx
		b.args = append(b.args, h)
		if h.IsMatrix() && b.firstMat < 0 {
			b.firstMat = idx
		}
	}
	b.instrs = append(b.instrs, matrix.CellInstr{Code: matrix.CellLoad, Arg: idx})
	b.depth++
	if b.depth > b.maxDepth {
		b.maxDepth = b.depth
	}
	return b.depth <= matrix.CellMaxStack && len(b.instrs) <= matrix.CellMaxInstrs
}

// annihilates reports the structural guarantee that the subtree evaluates to
// exactly 0 whenever the driver argument (first matrix argument) is 0,
// regardless of the other operands — the legality condition of the
// sparse-driver iteration. Division is excluded (0/0 would be NaN in the
// dense evaluation).
func (b *cellBuilder) annihilates(h *Hop) bool {
	if b.firstMat < 0 {
		return false
	}
	driver := b.args[b.firstMat]
	var ann func(h *Hop) bool
	ann = func(h *Hop) bool {
		if h == driver {
			return true
		}
		switch h.Kind {
		case KindUnary:
			if len(h.Inputs) != 1 || !ann(h.Inputs[0]) {
				return false
			}
			switch h.Op {
			case "uminus", "abs", "sqrt", "round", "floor", "ceil", "sign", "sin", "tan":
				return true
			}
			return false
		case KindBinary:
			if len(h.Inputs) != 2 {
				return false
			}
			a, c := h.Inputs[0], h.Inputs[1]
			switch h.Op {
			case "*":
				return ann(a) || ann(c)
			case "+", "-":
				return ann(a) && ann(c)
			case "min", "max":
				return ann(a) && ann(c)
			case "^":
				return ann(a) && c.IsLiteralNumber() && c.LitValue > 0
			}
			return false
		}
		return false
	}
	return ann(h)
}
