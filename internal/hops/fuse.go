// HOP-level operator fusion (the fusion subsystem of DESIGN.md): a pattern
// matcher that runs after the static rewrites/CSE and before execution-type
// selection, replacing matched subgraphs with fused HOP kinds that lower to
// single-pass multi-threaded kernels. Three pattern families are recognized:
//
//   - row-wise gradients (the Row template): t(X) %*% f(X %*% v, a1…ak), with
//     f a tree of cellwise operators over q = X %*% v, m x 1 vectors and
//     scalars, becomes KindMMChain carrying f as a cell program — one pass
//     over X, no transpose, no m x 1 intermediate. The tree may absorb an
//     interior with several consumers when every consumer is inside it (its
//     program is emitted once per use). t(X) %*% (X %*% v) and
//     t(X) %*% (w * (X %*% v)) are the programs q and w*q. Any other
//     t(X) %*% Y becomes the xty variant of the same kind, and that rewrite
//     (RewriteXtY) runs with fusion off too: it fuses nothing, so the fusion
//     setting never changes which kernel computes a product.
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
// Legality: outside the Row template, fusion never fires across
// multi-consumer intermediates (a shared intermediate is materialized anyway,
// so fusing would trade reuse for recomputation), only across operators with
// known, matching shapes, and — when the distributed backend is enabled —
// only when the root operator fits the per-operator memory budget (larger
// operators belong to the blocked backend). The one fused kernel the blocked
// backend has is xty: a dist-bound t(X) %*% Y on a shape of the row-scatter
// leg (sparse X, or below the tiled crossover) still becomes the xty variant,
// which the planner keeps on the blocked backend (dist.XtY, no transpose, a
// local n x k result). A dist-bound row chain keeps that plan, except
// t(X) %*% (X %*% v), which keeps the transpose and the blocked multiply.
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
	fuseProducts(d, p, true)
	fuseAggPipelines(d, p)
	fuseCellChains(d, p)
}

// RewriteXtY is the product rewrite of a compile without fusion: every
// t(X) %*% Y that FuseOperators would turn into a row chain or the xty
// variant runs the xty kernel instead, so that turning fusion off never
// changes the bits of a product.
func RewriteXtY(d *DAG, p PlannerParams) {
	fuseProducts(d, p, false)
}

// --- row chains and xty -------------------------------------------------------

// OpXtY is the Op of the KindMMChain variant computing t(X) %*% Y from inputs
// [X, Y]; a row chain keeps Op "mmchain" and carries its program in Fused.
const OpXtY = "xty"

// fuseProducts rewrites every t(X) %*% Y: with rowChains, into a row chain
// (inputs [X, v, a1…ak], Fused.Prog over [q, a1…ak]) when Y is a cellwise
// tree over one X %*% v; otherwise into the xty variant with inputs [X, Y].
func fuseProducts(d *DAG, p PlannerParams, rowChains bool) {
	consumers := d.consumerCounts()
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
		var rc *rowChain
		if rowChains {
			rc = matchRowChain(x, rhs, consumers, p)
		}
		dist := WouldRunDist(h, p)
		switch {
		case rc != nil && !dist && !WouldRunDist(rc.mv, p):
			h.Kind, h.Op = KindMMChain, "mmchain"
			h.Fused = &FusedPlan{Prog: rc.prog, OutNNZ: -1}
			d.rewire(h, append([]*Hop{x, rc.v}, rc.args...))
		case dist && (rc.unfusedOnDist() || !rowScatterXtY(x, rhs)):
			// the blocked backend has the xty kernel only for the shapes of
			// the row-scatter leg: a tiled shape or an unknown size keeps the
			// transpose and the blocked multiply, and so does the chain it
			// never fused
			continue
		default:
			// no chain to fold: the multiply itself still reads X in place
			h.Kind, h.Op = KindMMChain, OpXtY
			d.rewire(h, []*Hop{x, rhs})
		}
		// interior nodes are now unreachable; recount so later matches see
		// the rewritten graph
		consumers = d.consumerCounts()
	}
}

// rowChain is a matched t(X) %*% f(X %*% v, a1…ak): the program f over
// [q, a1…ak] and the hops v and a1…ak.
type rowChain struct {
	mv, v *Hop // q = X %*% v, and v
	args  []*Hop
	prog  *matrix.CellProgram
}

// unfusedOnDist reports whether a dist-bound product keeps the transposed
// multiply: t(X) %*% (X %*% v), the chain the blocked backend has never
// fused (item 19(b) of the roadmap gives it the local bits first).
func (rc *rowChain) unfusedOnDist() bool {
	return rc != nil && len(rc.prog.Instrs) == 1
}

// matchRowChain matches the right-hand side of t(X) %*% rhs against the Row
// template: rhs is X %*% v itself, or a tree of fusable cellwise operators of
// rhs's m x 1 shape that reaches exactly one X %*% v. rhs has no consumer
// but the product, q = X %*% v none outside the tree, and an interior of
// the tree may have several consumers when all of them are inside it. It
// returns nil when rhs is no such tree.
func matchRowChain(x, rhs *Hop, consumers map[int64]int, p PlannerParams) *rowChain {
	n := x.DC.Cols
	if consumers[rhs.ID] != 1 || !isColVector(rhs, x.DC.Rows) || (WouldRunDist(x, p) && keepsBlockedOutput(x)) {
		return nil
	}
	isMV := func(h *Hop) bool {
		return h.Kind == KindMatMult && len(h.Inputs) == 2 && h.Inputs[0] == x && isColVector(h.Inputs[1], n)
	}
	if isMV(rhs) {
		prog := &matrix.CellProgram{Instrs: []matrix.CellInstr{{Code: matrix.CellLoad, Arg: 0}}, NumArgs: 1}
		return &rowChain{mv: rhs, v: rhs.Inputs[1], prog: prog}
	}
	b := &cellBuilder{consumers: consumers, params: p, dims: rhs.DC}
	if !b.fusable(rhs) {
		return nil
	}
	b.absorb = b.insideTree(rhs)
	// q: the one X %*% v among the tree's leaves, consumed only inside it
	var mv *Hop
	for _, h := range append([]*Hop{rhs}, b.absorbed...) {
		for _, in := range h.Inputs {
			if b.absorb[in.ID] || !isMV(in) {
				continue
			}
			if mv != nil && mv != in {
				return nil
			}
			mv = in
		}
	}
	if mv == nil || b.inside[mv.ID] != consumers[mv.ID] {
		return nil
	}
	b.args, b.driver = []*Hop{mv}, mv
	if !b.build(rhs, true) {
		return nil
	}
	prog := &matrix.CellProgram{Instrs: b.instrs, NumArgs: len(b.args)}
	return &rowChain{mv: mv, v: mv.Inputs[1], args: b.args[1:], prog: prog}
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
	consumers := d.consumerCounts()
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
		d.rewire(h, b.args)
		consumers = d.consumerCounts()
	}
}

// fuseCellChains rewrites matrix-valued cellwise operators over at least one
// single-consumer cellwise interior into KindFusedCell hops. Consumers are
// visited before their inputs, so a chain fuses at its outermost operator and
// swallows everything eligible below it.
func fuseCellChains(d *DAG, p PlannerParams) {
	consumers := d.consumerCounts()
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
		d.rewire(h, b.args)
		consumers = d.consumerCounts()
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
	// absorb, when set, names the operators below the root that the program
	// inlines (a row chain's tree, insideTree); absorbed lists them and
	// inside counts the edges from the root and them to every hop.
	absorb   map[int64]bool
	absorbed []*Hop
	inside   map[int64]int
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
	if root || b.inline(h) {
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

// inline reports whether an operator below the root becomes part of the
// program: by default a single-consumer fusable operator, in a row chain an
// operator of its tree.
func (b *cellBuilder) inline(h *Hop) bool {
	if b.absorb != nil {
		return b.absorb[h.ID]
	}
	return b.consumers[h.ID] == 1 && b.fusable(h)
}

// insideTree returns the operators below root that a row program absorbs:
// the fusable operators reachable from root through fusable operators, less
// those with a consumer outside root and the others (repeated until none
// has). It sets b.absorbed and b.inside to match.
func (b *cellBuilder) insideTree(root *Hop) map[int64]bool {
	var cand []*Hop
	seen := map[int64]bool{}
	var walk func(h *Hop)
	walk = func(h *Hop) {
		for _, in := range h.Inputs {
			if !seen[in.ID] && b.fusable(in) {
				seen[in.ID] = true
				cand = append(cand, in)
				walk(in)
			}
		}
	}
	walk(root)
	for {
		inside := map[int64]int{}
		for _, in := range root.Inputs {
			inside[in.ID]++
		}
		for _, h := range cand {
			for _, in := range h.Inputs {
				inside[in.ID]++
			}
		}
		var kept []*Hop
		for _, h := range cand {
			if inside[h.ID] == b.consumers[h.ID] {
				kept = append(kept, h)
			}
		}
		if len(kept) == len(cand) {
			absorb := make(map[int64]bool, len(cand))
			for _, h := range cand {
				absorb[h.ID] = true
			}
			b.absorbed, b.inside = cand, inside
			return absorb
		}
		cand = kept
	}
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
// operands to a finite result, overflow of +, - and * aside: derived from the
// runtime's operator table (matrix/elementwise.go) over finiteProbes, which
// hold a zero (log, /, %%), negatives (sqrt, ^) and a magnitude that
// overflows exp and ^.
var (
	finiteUnary = unaryOpsWhere(func(op matrix.UnaryOp) bool {
		for _, a := range finiteProbes {
			if r := op.Apply(a); math.IsNaN(r) || math.IsInf(r, 0) {
				return false
			}
		}
		return true
	})
	finiteBinary = binaryOpsWhere(func(op matrix.BinaryOp) bool {
		for _, a := range finiteProbes {
			for _, b := range finiteProbes {
				if r := op.Apply(a, b); math.IsNaN(r) || math.IsInf(r, 0) {
					return false
				}
			}
		}
		return true
	})
	finiteProbes = []float64{0, 0.5, -0.5, 1, -1, 2.5, -2.5, 1000, -1000}
)

// unaryOpsWhere returns the HOP names ("uminus" for negation) of the unary
// operators of the operator table for which keep holds.
func unaryOpsWhere(keep func(matrix.UnaryOp) bool) map[string]bool {
	names := map[string]bool{}
	for op := matrix.UnaryOp(0); op.String() != "?"; op++ {
		if !keep(op) {
			continue
		}
		if op == matrix.OpNeg {
			names["uminus"] = true
		} else {
			names[op.String()] = true
		}
	}
	return names
}

// binaryOpsWhere returns the symbols of the binary operators of the operator
// table for which keep holds.
func binaryOpsWhere(keep func(matrix.BinaryOp) bool) map[string]bool {
	names := map[string]bool{}
	for op := matrix.BinaryOp(0); op.String() != "?"; op++ {
		if keep(op) {
			names[op.String()] = true
		}
	}
	return names
}

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
