// HOP-level operator fusion (the fusion subsystem of DESIGN.md): a pattern
// matcher that runs after the static rewrites/CSE and before execution-type
// selection, replacing matched subgraphs with fused HOP kinds that lower to
// single-pass multi-threaded kernels. Three pattern families are recognized:
//
//   - mmchain: t(X) %*% (X %*% v) and t(X) %*% (w * (X %*% v)) — the
//     linear-regression / logistic-regression inner loop — become KindMMChain,
//     avoiding the materialized transpose and the m x 1 intermediate. Any
//     other t(X) %*% Y becomes the xty variant of the same kind: one pass
//     over X, no transpose.
//   - cellwise-aggregate pipelines: sum/min/max/colSums/rowSums over a tree
//     of cellwise binary/unary/scalar operations with single-consumer
//     intermediates (e.g. sum(X*Y), sum((X-P)^2)) become KindFusedAgg with a
//     matrix.CellProgram evaluated row by row directly into the aggregate.
//   - cellwise chains: a matrix-valued cellwise binary/unary operator over at
//     least one single-consumer cellwise interior (e.g. (X - mu) / sd) becomes
//     KindFusedCell — the same kind of program, written into one output
//     block. The hop keeps the root operator's Op, and so does the
//     instruction's opcode.
//
// The leaves of a cell program are scalars, matrices of the root's shape, and
// row (1 x n) or column (m x 1) vectors broadcast along it.
//
// Legality: fusion never fires across multi-consumer intermediates (a shared
// intermediate is materialized anyway, so fusing would trade reuse for
// recomputation), only across operators with known, matching shapes, and —
// when the distributed backend is enabled — only when the root operator fits
// the per-operator memory budget (larger operators belong to the blocked
// backend). The one fused kernel the blocked backend has is xty: a
// dist-bound t(X) %*% Y on a shape of the row-scatter leg (sparse X, or below
// the tiled crossover) still becomes the xty variant, which the planner keeps
// on the blocked backend (dist.XtY, no transpose, a local n x k result).
package hops

import (
	"math"
	"slices"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/types"
)

// FusedPlan describes a fused cellwise pipeline: the cell program over the
// Hop's inputs (the pipeline's leaves, in first-use order) and, for
// KindFusedAgg, the aggregate on top of it.
type FusedPlan struct {
	Agg  string // "sum", "min", "max", "colSums", "rowSums"; "" for KindFusedCell
	Kind matrix.AggKind
	Prog *matrix.CellProgram
	// OutNNZ is the non-zero bound size propagation derived for the root
	// operator of a KindFusedCell before it was rewritten (-1 when unknown).
	OutNNZ int64
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
	fuseCellChains(d, p)
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
		if !x.IsMatrix() {
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
		chain := v != nil && isColVector(v, x.DC.Cols)
		if WouldRunDist(h, p) && (chain || !rowScatterXtY(x, rhs)) {
			// the blocked backend has the xty kernel only for the shapes of
			// the row-scatter leg: a chain, a tiled shape or an unknown size
			// keeps the transpose and the blocked multiply
			continue
		}
		h.Kind = KindMMChain
		h.Op = "mmchain"
		switch {
		case !chain:
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

// rowScatterXtY reports whether t(X) %*% Y runs on the row-scatter leg of
// matrix.TransposeMultiply, the leg dist.XtY implements on X's row blocks:
// X is sparse, or the shape is below the tiled crossover (which every vector
// Y is). Unknown sizes answer false.
func rowScatterXtY(x, y *Hop) bool {
	xd := x.DC
	if !xd.DimsKnown() || y.DC.Cols < 0 {
		return false
	}
	sparse := xd.NNZKnown() && xd.Sparsity() < types.SparseThreshold
	return sparse || !matrix.UseTiledGEMM(int(xd.Cols), int(xd.Rows), int(y.DC.Cols))
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
		// the root must itself be a fusable cellwise operator: aggregating a
		// plain read or other materialized value is already a single pass
		root := h.Inputs[0]
		if WouldRunDist(h, p) || consumers[root.ID] != 1 {
			continue
		}
		b := buildCellProgram(root, consumers, p)
		if b == nil || b.ops < 1 {
			continue
		}
		h.Kind = KindFusedAgg
		h.Fused = &FusedPlan{Agg: h.Op, Kind: aggKind, Prog: b.program(root)}
		h.Inputs = b.args
		consumers = consumerCounts(d)
	}
}

// fuseCellChains rewrites matrix-valued cellwise operators over at least one
// single-consumer cellwise interior into KindFusedCell hops. Consumers are
// visited before their inputs, so a chain fuses at its outermost operator and
// swallows everything eligible below it.
func fuseCellChains(d *DAG, p PlannerParams) {
	consumers := consumerCounts(d)
	nodes := d.Nodes()
	fused := map[int64]bool{} // interiors of an already-rewritten chain
	for i := len(nodes) - 1; i >= 0; i-- {
		h := nodes[i]
		if fused[h.ID] || (h.Kind != KindBinary && h.Kind != KindUnary) {
			continue
		}
		b := buildCellProgram(h, consumers, p)
		if b == nil || b.ops < 2 {
			continue
		}
		for _, id := range b.interior {
			fused[id] = true
		}
		// the program is assembled (and the root's nnz bound read) while h is
		// still the plain operator the analyses below understand
		h.Fused = &FusedPlan{Prog: b.program(h), OutNNZ: h.DC.NNZ}
		h.Kind = KindFusedCell
		h.Inputs = b.args
		consumers = consumerCounts(d)
	}
}

// cellBuilder linearizes a cellwise HOP tree into a stack program.
type cellBuilder struct {
	consumers map[int64]int
	params    PlannerParams
	dims      types.DataCharacteristics
	instrs    []matrix.CellInstr
	args      []*Hop
	interior  []int64 // operators folded into the program below the root
	driver    *Hop    // first leaf of the root's shape
	ops       int     // operator instructions, root included
	depth     int
}

// buildCellProgram linearizes the cellwise tree under root — root itself plus
// every eligible interior — or returns nil when root is no fusable cellwise
// operator of known shape or the tree does not fit a cell program.
func buildCellProgram(root *Hop, consumers map[int64]int, p PlannerParams) *cellBuilder {
	b := &cellBuilder{consumers: consumers, params: p, dims: root.DC}
	if root.DC.Rows < 0 || root.DC.Cols < 0 || !b.fusable(root) {
		return nil
	}
	if !b.build(root, true) || b.driver == nil {
		return nil
	}
	return b
}

// program assembles the built instructions; root is the tree's top operator.
func (b *cellBuilder) program(root *Hop) *matrix.CellProgram {
	return &matrix.CellProgram{Instrs: b.instrs, NumArgs: len(b.args), Annihilating: b.annihilates(root)}
}

// fullShape reports whether a hop is a matrix of the root's shape.
func (b *cellBuilder) fullShape(h *Hop) bool {
	return h.IsMatrix() && h.DC.Rows == b.dims.Rows && h.DC.Cols == b.dims.Cols
}

// fusable reports whether a hop can be an operator of the cell program: a
// cellwise binary/unary matrix operator of the root's shape that the planner
// keeps in CP, whose operands are all possible leaves.
func (b *cellBuilder) fusable(h *Hop) bool {
	if !b.fullShape(h) || WouldRunDist(h, b.params) {
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
		// two vectors never combine into the root's shape (the kernels have
		// no outer broadcast): one operand carries it
		l, r := h.Inputs[0], h.Inputs[1]
		if l.IsMatrix() && r.IsMatrix() && !b.fullShape(l) && !b.fullShape(r) {
			return false
		}
		return b.operandOK(l) && b.operandOK(r)
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

// operandOK reports whether an operand can be a leaf of the cell program: a
// numeric scalar, a matrix of the root's shape, or a row or column vector
// broadcast along it.
func (b *cellBuilder) operandOK(h *Hop) bool {
	if h.IsScalar() {
		return h.ValueType != types.String
	}
	// a leaf the blocked backend produces arrives blocked: operators over it
	// run blocked too, and a fused instruction would collect it instead
	if !h.IsMatrix() || (WouldRunDist(h, b.params) && keepsBlockedOutput(h)) {
		return false
	}
	return b.fullShape(h) ||
		(h.DC.Rows == 1 && h.DC.Cols == b.dims.Cols) ||
		(h.DC.Cols == 1 && h.DC.Rows == b.dims.Rows)
}

// build emits the post-order program for the subtree rooted at h: the root
// and every single-consumer fusable operator below it recurse, everything
// else becomes an argument load.
func (b *cellBuilder) build(h *Hop, root bool) bool {
	if root || (b.consumers[h.ID] == 1 && b.fusable(h)) {
		for _, in := range h.Inputs {
			if !b.build(in, false) {
				return false
			}
		}
		if h.Kind == KindBinary {
			op, _ := matrix.BinaryOpFromString(h.Op)
			b.instrs = append(b.instrs, matrix.CellInstr{Code: matrix.CellBinary, Bin: op})
			b.depth--
		} else {
			op, _ := matrix.UnaryOpFromString(h.Op)
			b.instrs = append(b.instrs, matrix.CellInstr{Code: matrix.CellUnary, Un: op})
		}
		b.ops++
		if !root {
			b.interior = append(b.interior, h.ID)
		}
		return len(b.instrs) <= matrix.CellMaxInstrs
	}
	// argument load (leaf)
	if !b.operandOK(h) {
		return false
	}
	idx := slices.Index(b.args, h)
	if idx < 0 {
		idx = len(b.args)
		b.args = append(b.args, h)
		if b.driver == nil && b.fullShape(h) {
			b.driver = h
		}
	}
	b.instrs = append(b.instrs, matrix.CellInstr{Code: matrix.CellLoad, Arg: idx})
	b.depth++
	return b.depth <= matrix.CellMaxStack && len(b.instrs) <= matrix.CellMaxInstrs
}

// annihilates reports the structural guarantee that the subtree evaluates to
// exactly 0 whenever the driver argument (the first leaf of the root's shape)
// is 0, for finite leaf values — the legality condition of the sparse-driver
// iteration. A product annihilates only when its other factor stays finite
// (0 * Inf is NaN), and division is excluded (0/0 is NaN).
func (b *cellBuilder) annihilates(h *Hop) bool {
	var ann func(h *Hop) bool
	ann = func(h *Hop) bool {
		if h == b.driver {
			return true
		}
		switch h.Kind {
		case KindUnary:
			return len(h.Inputs) == 1 && zeroPreservingUnary[h.Op] && ann(h.Inputs[0])
		case KindBinary:
			if len(h.Inputs) != 2 {
				return false
			}
			a, c := h.Inputs[0], h.Inputs[1]
			switch h.Op {
			case "*":
				return (ann(a) && staysFinite(c)) || (ann(c) && staysFinite(a))
			case "+", "-", "min", "max":
				return ann(a) && ann(c)
			case "^":
				return ann(a) && c.IsLiteralNumber() && c.LitValue > 0
			}
		}
		return false
	}
	return ann(h)
}

// finiteUnary and finiteBinary list the cellwise operators that map finite
// operands to a finite result (overflow aside).
var (
	finiteUnary = map[string]bool{"uminus": true, "abs": true, "round": true, "floor": true,
		"ceil": true, "sign": true, "!": true, "sin": true, "cos": true, "sigmoid": true, "is.nan": true}
	finiteBinary = map[string]bool{"+": true, "-": true, "*": true, "min": true, "max": true,
		"==": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true, "&": true, "|": true}
)

// staysFinite reports whether a subtree is finite wherever its data is:
// anything that is not a cellwise operator counts as data, which the kernel
// checks for Inf and NaN at run time before it skips a cell.
func staysFinite(h *Hop) bool {
	switch h.Kind {
	case KindUnary:
		return len(h.Inputs) == 1 && finiteUnary[h.Op] && staysFinite(h.Inputs[0])
	case KindBinary:
		return len(h.Inputs) == 2 && finiteBinary[h.Op] && staysFinite(h.Inputs[0]) && staysFinite(h.Inputs[1])
	case KindLiteral:
		return !h.LitIsStr && !math.IsNaN(h.LitValue) && !math.IsInf(h.LitValue, 0)
	}
	return true
}
