package hops

import (
	"reflect"
	"testing"

	"github.com/systemds/systemds-go/internal/types"
)

// matRead builds a transient read with known matrix characteristics.
func matRead(name string, rows, cols int64) *Hop {
	h := NewRead(name, types.Matrix)
	h.DC = types.NewDataCharacteristics(rows, cols, types.DefaultBlocksize, -1)
	return h
}

func binary(op string, a, b *Hop) *Hop {
	h := NewHop(KindBinary, op, a, b)
	h.DataType = types.Matrix
	return h
}

func agg(op string, in *Hop) *Hop {
	h := NewHop(KindAggUnary, op, in)
	h.DataType = types.Scalar
	return h
}

func prepare(d *DAG) {
	PropagateSizes(d, nil)
	FuseOperators(d, PlannerParams{})
}

func TestFuseMMChainXtXv(t *testing.T) {
	x := matRead("X", 100, 20)
	v := matRead("v", 20, 1)
	tx := NewHop(KindReorg, "t", x)
	tx.DataType = types.Matrix
	xv := NewHop(KindMatMult, "ba+*", x, v)
	xv.DataType = types.Matrix
	root := NewHop(KindMatMult, "ba+*", tx, xv)
	root.DataType = types.Matrix
	d := &DAG{Roots: []*Hop{NewWrite("g", root)}}
	prepare(d)
	if root.Kind != KindMMChain || len(root.Inputs) != 2 {
		t.Fatalf("expected mmchain fusion, got %s with %d inputs", root.Kind, len(root.Inputs))
	}
	if root.Inputs[0] != x || root.Inputs[1] != v {
		t.Error("mmchain inputs should be [X, v]")
	}
	if countKind(d, KindReorg) != 0 || countKind(d, KindMatMult) != 0 {
		t.Error("interior transpose and matmult should be removed from the DAG")
	}
	if root.DC.Rows != 20 || root.DC.Cols != 1 {
		t.Errorf("mmchain output characteristics = %v, want 20x1", root.DC)
	}
	if root.Fused == nil || root.Fused.Prog.Signature() != "L0" {
		t.Errorf("mmchain program = %v, want q alone (L0)", root.Fused)
	}
}

func TestFuseMMChainWeighted(t *testing.T) {
	x := matRead("X", 100, 20)
	v := matRead("v", 20, 1)
	w := matRead("w", 100, 1)
	tx := NewHop(KindReorg, "t", x)
	tx.DataType = types.Matrix
	xv := NewHop(KindMatMult, "ba+*", x, v)
	xv.DataType = types.Matrix
	wxv := binary("*", w, xv)
	root := NewHop(KindMatMult, "ba+*", tx, wxv)
	root.DataType = types.Matrix
	d := &DAG{Roots: []*Hop{NewWrite("g", root)}}
	prepare(d)
	if root.Kind != KindMMChain || len(root.Inputs) != 3 {
		t.Fatalf("expected weighted mmchain fusion, got %s with %d inputs", root.Kind, len(root.Inputs))
	}
	if root.Inputs[0] != x || root.Inputs[1] != v || root.Inputs[2] != w {
		t.Error("mmchain inputs should be [X, v, w]")
	}
	if root.Fused == nil || root.Fused.Prog.Signature() != "L1;L0;B*" {
		t.Errorf("mmchain program = %v, want w * q (L1;L0;B*)", root.Fused)
	}
}

// l2svmGradient builds l2svm's t(X) %*% (y * margin * (margin > 0)) with
// margin = 1 - y * (X %*% v), and writes g; written names the interiors that
// are transient writes too (as in code where they stay live).
func l2svmGradient(written ...string) (d *DAG, root, x, v, y *Hop) {
	x = matRead("X", 200, 20)
	v = matRead("v", 20, 1)
	y = matRead("y", 200, 1)
	tx := NewHop(KindReorg, "t", x)
	tx.DataType = types.Matrix
	xv := NewHop(KindMatMult, "ba+*", x, v)
	xv.DataType = types.Matrix
	margin := binary("-", NewLiteralNumber(1), binary("*", y, xv))
	active := binary(">", margin, NewLiteralNumber(0))
	hinge := binary("*", binary("*", y, margin), active)
	root = NewHop(KindMatMult, "ba+*", tx, hinge)
	root.DataType = types.Matrix
	d = &DAG{Roots: []*Hop{NewWrite("g", root)}}
	for _, name := range written {
		h := map[string]*Hop{"margin": margin, "active": active, "hinge": hinge, "q": xv}[name]
		d.Roots = append(d.Roots, NewWrite(name, h))
	}
	return d, root, x, v, y
}

// TestFuseRowChainL2SVM: l2svm's gradient is one row chain when margin is
// consumed only inside the tree, twice: its program is emitted at each use.
func TestFuseRowChainL2SVM(t *testing.T) {
	d, root, x, v, y := l2svmGradient()
	prepare(d)
	if root.Kind != KindMMChain || root.Op != "mmchain" || root.Fused == nil {
		t.Fatalf("expected a row chain, got %s %s", root.Kind, root.Op)
	}
	if len(root.Inputs) != 5 || root.Inputs[0] != x || root.Inputs[1] != v || root.Inputs[2] != y {
		t.Fatalf("row chain inputs %v, want [X, v, y, 1, 0]", root.Inputs)
	}
	const want = "L1;L2;L1;L0;B*;B-;B*;L2;L1;L0;B*;B-;L3;B>;B*"
	if got := root.Fused.Prog.Signature(); got != want {
		t.Errorf("program %s, want %s", got, want)
	}
	if countKind(d, KindBinary) != 0 || countKind(d, KindMatMult) != 0 || countKind(d, KindReorg) != 0 {
		t.Error("the tree, X %*% v and t(X) should be gone from the DAG")
	}
	if root.DC.Rows != 20 || root.DC.Cols != 1 {
		t.Errorf("row chain output %v, want 20x1", root.DC)
	}
}

// TestNoFuseRowChainAcrossAWrite: an interior (or q) that is also written is
// consumed outside the tree, so the tree stops there — and so does it at
// margin when active is written, since active consumes margin — and a tree
// that no longer reaches q is no row chain: the product runs as xty.
func TestNoFuseRowChainAcrossAWrite(t *testing.T) {
	for _, name := range []string{"margin", "active", "q", "hinge"} {
		d, root, x, _, _ := l2svmGradient(name)
		prepare(d)
		if root.Kind != KindMMChain || root.Op != OpXtY || root.Inputs[0] != x {
			t.Errorf("%s written: got %s %s, want xty", name, root.Kind, root.Op)
		}
	}
}

// TestRewriteXtYWithoutFusion: with fusion off every t(X) %*% Y — the chain
// shapes included — runs as xty, and nothing else is fused.
func TestRewriteXtYWithoutFusion(t *testing.T) {
	d, root, x, _, _ := l2svmGradient()
	PropagateSizes(d, nil)
	RewriteXtY(d, PlannerParams{})
	if root.Kind != KindMMChain || root.Op != OpXtY || root.Fused != nil || root.Inputs[0] != x {
		t.Fatalf("got %s %s, want xty", root.Kind, root.Op)
	}
	if countKind(d, KindFusedCell) != 0 || countKind(d, KindBinary) == 0 {
		t.Error("the cellwise tree must stay unfused")
	}
}

// TestNoFuseMMChainMultiConsumer: the X %*% v intermediate is also written to
// a variable, so the chain must not fuse across it.
func TestNoFuseMMChainMultiConsumer(t *testing.T) {
	x := matRead("X", 100, 20)
	v := matRead("v", 20, 1)
	tx := NewHop(KindReorg, "t", x)
	tx.DataType = types.Matrix
	xv := NewHop(KindMatMult, "ba+*", x, v)
	xv.DataType = types.Matrix
	root := NewHop(KindMatMult, "ba+*", tx, xv)
	root.DataType = types.Matrix
	d := &DAG{Roots: []*Hop{NewWrite("g", root), NewWrite("p", xv)}}
	prepare(d)
	// the chain must not fold the shared X %*% v away; the outer multiply
	// still becomes the transpose-free xty over the materialized intermediate
	if root.Kind != KindMMChain || root.Op != OpXtY {
		t.Fatalf("chain with shared intermediate must stop at xty, got %s %s", root.Kind, root.Op)
	}
	if len(root.Inputs) != 2 || root.Inputs[0] != x || root.Inputs[1] != xv {
		t.Error("xty inputs should be [X, X v]")
	}
	if xv.Kind != KindMatMult {
		t.Errorf("shared intermediate was rewritten to %s", xv.Kind)
	}
}

// TestFuseXtY: a plain t(X) %*% Y (vector or matrix Y) becomes the xty
// variant with inputs [X, Y]; the transpose disappears unless something else
// consumes it, in which case it stays for that consumer only.
func TestFuseXtY(t *testing.T) {
	for _, k := range []int64{1, 7} {
		x := matRead("X", 100, 20)
		y := matRead("Y", 100, k)
		tx := NewHop(KindReorg, "t", x)
		tx.DataType = types.Matrix
		root := NewHop(KindMatMult, "ba+*", tx, y)
		root.DataType = types.Matrix
		d := &DAG{Roots: []*Hop{NewWrite("g", root)}}
		prepare(d)
		PropagateSizes(d, nil)
		if root.Kind != KindMMChain || root.Op != OpXtY {
			t.Fatalf("k=%d: expected xty fusion, got %s %s", k, root.Kind, root.Op)
		}
		if len(root.Inputs) != 2 || root.Inputs[0] != x || root.Inputs[1] != y {
			t.Errorf("k=%d: xty inputs should be [X, Y]", k)
		}
		if countKind(d, KindReorg) != 0 {
			t.Errorf("k=%d: transpose should be removed from the DAG", k)
		}
		if root.DC.Rows != 20 || root.DC.Cols != k {
			t.Errorf("k=%d: xty output characteristics = %v, want 20x%d", k, root.DC, k)
		}
	}
	// shared transpose: fused anyway, t(X) survives for its other consumer
	x := matRead("X", 100, 20)
	y := matRead("Y", 100, 1)
	tx := NewHop(KindReorg, "t", x)
	tx.DataType = types.Matrix
	root := NewHop(KindMatMult, "ba+*", tx, y)
	root.DataType = types.Matrix
	d := &DAG{Roots: []*Hop{NewWrite("g", root), NewWrite("Xt", tx)}}
	prepare(d)
	if root.Kind != KindMMChain || root.Op != OpXtY {
		t.Fatalf("shared t(X): expected xty fusion, got %s %s", root.Kind, root.Op)
	}
	if countKind(d, KindReorg) != 1 {
		t.Error("shared t(X) must stay materialized for its other consumer")
	}
}

// TestNoFuseXtYWhenDist: a dist-bound multiply whose shape the tiled engine
// runs (dense X, wide Y) has no blocked xty kernel and keeps its
// materialize-then-multiply plan, while a dist-bound t(X) %*% (X %*% v) is
// no row chain but the xty variant, as every dist-bound chain is.
func TestNoFuseXtYWhenDist(t *testing.T) {
	params := PlannerParams{DistEnabled: true, MemBudget: 2 << 20, Blocksize: types.DefaultBlocksize}
	x := matRead("X", 4000, 200)
	y := matRead("Y", 4000, 200)
	tx := NewHop(KindReorg, "t", x)
	tx.DataType = types.Matrix
	root := NewHop(KindMatMult, "ba+*", tx, y)
	root.DataType = types.Matrix
	d := &DAG{Roots: []*Hop{NewWrite("g", root)}}
	PropagateSizes(d, nil)
	FuseOperators(d, params)
	if root.Kind != KindMatMult {
		t.Fatalf("dist-bound tiled-shape multiply must not fuse, got %s", root.Kind)
	}

	// t(X) %*% (X %*% v): xty over X and the multiply, no transpose
	x = matRead("X", 4000, 200)
	v := matRead("v", 200, 1)
	tx = NewHop(KindReorg, "t", x)
	tx.DataType = types.Matrix
	xv := NewHop(KindMatMult, "ba+*", x, v)
	xv.DataType = types.Matrix
	root = NewHop(KindMatMult, "ba+*", tx, xv)
	root.DataType = types.Matrix
	d = &DAG{Roots: []*Hop{NewWrite("g", root)}}
	PropagateSizes(d, nil)
	FuseOperators(d, params)
	if root.Kind != KindMMChain || root.Op != OpXtY || root.Inputs[1] != xv || countKind(d, KindReorg) != 0 {
		t.Fatalf("dist-bound chain: got %s %s, want xty over X and X %%*%% v", root.Kind, root.Op)
	}
}

// TestFuseXtYUnderDist: a dist-bound t(X) %*% Y on a shape of the row-scatter
// leg — a vector or narrow Y, or a sparse X whatever Y's width — fuses into
// the xty variant, which the planner keeps on the blocked backend with a local
// output and prices without a transpose.
func TestFuseXtYUnderDist(t *testing.T) {
	params := PlannerParams{DistEnabled: true, MemBudget: 2 << 20, Blocksize: types.DefaultBlocksize}
	for _, tc := range []struct {
		name string
		k    int64
		nnz  int64
	}{
		{"vector y", 1, -1},
		{"three columns", 3, -1},
		{"sparse X, wide Y", 200, 4000 * 200 / 100},
	} {
		x := matRead("X", 4000, 200)
		x.DC.NNZ = tc.nnz
		y := matRead("Y", 4000, tc.k)
		tx := NewHop(KindReorg, "t", x)
		tx.DataType = types.Matrix
		root := NewHop(KindMatMult, "ba+*", tx, y)
		root.DataType = types.Matrix
		d := &DAG{Roots: []*Hop{NewWrite("g", root)}}
		PropagateSizes(d, nil)
		if !WouldRunDist(root, params) {
			t.Fatalf("%s: the multiply should be dist-bound", tc.name)
		}
		FuseOperators(d, params)
		PropagateSizes(d, nil)
		if root.Kind != KindMMChain || root.Op != OpXtY || countKind(d, KindReorg) != 0 {
			t.Fatalf("%s: expected xty fusion without a transpose, got %s %s", tc.name, root.Kind, root.Op)
		}
		Plan(d, params)
		PropagateBlockedOutputs(d)
		if root.ExecType != types.ExecDist || root.BlockedOutput {
			t.Errorf("%s: xty planned %s (blocked output %v), want DIST with a local output", tc.name, root.ExecType, root.BlockedOutput)
		}
		// X partitioned, Y read once, the output summed: no transpose term
		want := types.EstimateSize(x.DC) + types.EstimateSize(y.DC) + root.CostEst.OutputBytes
		if root.CostEst.ShuffleBytes != want {
			t.Errorf("%s: shuffle = %d, want %d", tc.name, root.CostEst.ShuffleBytes, want)
		}
	}
}

func TestFuseAggPipeline(t *testing.T) {
	x := matRead("X", 50, 30)
	y := matRead("Y", 50, 30)
	mul := binary("*", x, y)
	root := agg("sum", mul)
	d := &DAG{Roots: []*Hop{NewWrite("s", root)}}
	prepare(d)
	if root.Kind != KindFusedAgg || root.Fused == nil {
		t.Fatalf("expected fused aggregate, got %s", root.Kind)
	}
	if got := root.Fused.Prog.Signature(); got != "L0;L1;B*" {
		t.Errorf("program signature = %q, want L0;L1;B*", got)
	}
	if !root.Fused.Prog.Annihilating {
		t.Error("X*Y should annihilate on the driver")
	}
	if len(root.Inputs) != 2 || root.Inputs[0] != x || root.Inputs[1] != y {
		t.Error("fused agg inputs should be the leaves [X, Y]")
	}
	if countKind(d, KindBinary) != 0 {
		t.Error("interior cellwise operator should be removed from the DAG")
	}
}

// TestFuseAggSharedLeaf: sum(X*X) loads the shared leaf twice through one
// argument slot.
func TestFuseAggSharedLeaf(t *testing.T) {
	x := matRead("X", 50, 30)
	mul := binary("*", x, x)
	root := agg("sum", mul)
	d := &DAG{Roots: []*Hop{NewWrite("s", root)}}
	prepare(d)
	if root.Kind != KindFusedAgg {
		t.Fatalf("expected fused aggregate, got %s", root.Kind)
	}
	if len(root.Inputs) != 1 {
		t.Fatalf("shared leaf should deduplicate to one argument, got %d", len(root.Inputs))
	}
	if got := root.Fused.Prog.Signature(); got != "L0;L0;B*" {
		t.Errorf("program signature = %q, want L0;L0;B*", got)
	}
}

// TestNoFuseAggMultiConsumer is the legality property: fusion never fires
// across multi-consumer intermediates.
func TestNoFuseAggMultiConsumer(t *testing.T) {
	x := matRead("X", 50, 30)
	y := matRead("Y", 50, 30)
	mul := binary("*", x, y)
	root := agg("sum", mul)
	// the product is also a DAG output in its own right
	d := &DAG{Roots: []*Hop{NewWrite("s", root), NewWrite("P", mul)}}
	prepare(d)
	if root.Kind != KindAggUnary {
		t.Fatalf("aggregate over shared intermediate must not fuse, got %s", root.Kind)
	}
	if countKind(d, KindFusedAgg) != 0 {
		t.Error("no fused aggregate may exist in the DAG")
	}
}

// TestFuseAggBroadcastLeaves: row- and column-vector operands are leaves of
// the cell program, the driver is the first leaf of the root's shape, and the
// aggregate keeps the pipeline's shape however the leaves are ordered.
func TestFuseAggBroadcastLeaves(t *testing.T) {
	row := matRead("mu", 1, 30)
	x := matRead("X", 50, 30)
	col := matRead("c", 50, 1)
	root := agg("rowSums", binary("*", binary("-", row, x), col))
	d := &DAG{Roots: []*Hop{NewWrite("s", root)}}
	prepare(d)
	if root.Kind != KindFusedAgg {
		t.Fatalf("broadcast leaves must fuse, got %s", root.Kind)
	}
	if got := root.Fused.Prog.Signature(); got != "L0;L1;B-;L2;B*" {
		t.Errorf("program signature = %q, want L0;L1;B-;L2;B*", got)
	}
	if len(root.Inputs) != 3 || root.Inputs[0] != row || root.Inputs[1] != x || root.Inputs[2] != col {
		t.Error("fused inputs should be [mu, X, c]")
	}
	if root.DC.Rows != 50 || root.DC.Cols != 1 {
		t.Errorf("rowSums characteristics = %v, want 50x1", root.DC)
	}
	if root.Fused.Prog.Annihilating {
		t.Error("(mu - X) * c is mu*c where X is 0: must not annihilate")
	}
}

// TestNoFuseTwoVectors: a row vector against a column vector has no operand
// of the root's shape — the kernels have no outer broadcast — so the binary
// stays a materialization boundary (and fails at runtime as before).
func TestNoFuseTwoVectors(t *testing.T) {
	row := matRead("r", 1, 30)
	col := matRead("c", 50, 1)
	root := agg("sum", binary("+", row, col))
	d := &DAG{Roots: []*Hop{NewWrite("s", root)}}
	prepare(d)
	if root.Kind != KindAggUnary {
		t.Fatalf("vector-vector operator must not fuse, got %s", root.Kind)
	}
}

// TestFuseCellChain: Xs = (X - mu) / sd becomes one FusedCell hop under the
// root operator's Op, with the row vectors as leaves.
func TestFuseCellChain(t *testing.T) {
	x := matRead("X", 64, 100)
	mu := matRead("mu", 1, 100)
	sd := matRead("sd", 1, 100)
	sub := binary("-", x, mu)
	root := binary("/", sub, sd)
	d := &DAG{Roots: []*Hop{NewWrite("Xs", root)}}
	prepare(d)
	if root.Kind != KindFusedCell || root.Op != "/" {
		t.Fatalf("chain root = %s %s, want FusedCell /", root.Kind, root.Op)
	}
	if got := root.Fused.Prog.Signature(); got != "L0;L1;B-;L2;B/" {
		t.Errorf("program signature = %q, want L0;L1;B-;L2;B/", got)
	}
	if len(root.Inputs) != 3 || root.Inputs[0] != x || root.Inputs[1] != mu || root.Inputs[2] != sd {
		t.Error("fused inputs should be [X, mu, sd]")
	}
	if countKind(d, KindBinary) != 0 {
		t.Error("the interior subtraction should be gone from the DAG")
	}
	if root.DC.Rows != 64 || root.DC.Cols != 100 {
		t.Errorf("output characteristics = %v, want 64x100", root.DC)
	}
}

// TestFuseCellChainOutermostRoot: a chain fuses once, at its outermost
// operator, and a single operator is left alone.
func TestFuseCellChainOutermostRoot(t *testing.T) {
	x := matRead("X", 64, 100)
	y := matRead("Y", 64, 100)
	inner := binary("*", binary("-", x, y), NewLiteralNumber(2))
	abs := NewHop(KindUnary, "abs", inner)
	abs.DataType = types.Matrix
	single := binary("+", x, y)
	d := &DAG{Roots: []*Hop{NewWrite("A", abs), NewWrite("S", single)}}
	prepare(d)
	if abs.Kind != KindFusedCell || countKind(d, KindFusedCell) != 1 {
		t.Fatalf("want exactly one FusedCell at abs, got %s and %d", abs.Kind, countKind(d, KindFusedCell))
	}
	if got := abs.Fused.Prog.Signature(); got != "L0;L1;B-;L2;B*;Uabs" {
		t.Errorf("program signature = %q, want L0;L1;B-;L2;B*;Uabs", got)
	}
	if single.Kind != KindBinary {
		t.Errorf("a single operator must stay %s, got %s", KindBinary, single.Kind)
	}
}

// TestFuseCellChainKeepsRootAnalyses: the rewritten root carries what the
// plain operator had — the program annihilates on a sparse driver (abs(S*2)
// runs over stored cells only), and the output keeps the root's nnz bound.
func TestFuseCellChainKeepsRootAnalyses(t *testing.T) {
	s := matRead("S", 6000, 6000)
	s.DC.NNZ = 18000
	root := NewHop(KindUnary, "abs", binary("*", s, NewLiteralNumber(2)))
	root.DataType = types.Matrix
	shifted := binary("/", binary("+", s, NewLiteralNumber(1)), NewLiteralNumber(2))
	d := &DAG{Roots: []*Hop{NewWrite("R", root), NewWrite("T", shifted)}}
	prepare(d)
	if root.Kind != KindFusedCell || shifted.Kind != KindFusedCell {
		t.Fatalf("chains did not fuse: %s, %s", root.Kind, shifted.Kind)
	}
	if !root.Fused.Prog.Annihilating {
		t.Error("abs(S*2) must annihilate on its driver")
	}
	if root.DC.NNZ != 18000 {
		t.Errorf("abs(S*2) nnz bound = %d, want the driver's 18000", root.DC.NNZ)
	}
	if shifted.Fused.Prog.Annihilating {
		t.Error("(S+1)/2 must not annihilate")
	}
}

// TestNoFuseCellChainMultiConsumer: an interior with a second consumer is
// materialized anyway and stays a leaf.
func TestNoFuseCellChainMultiConsumer(t *testing.T) {
	x := matRead("X", 64, 100)
	mu := matRead("mu", 1, 100)
	sub := binary("-", x, mu)
	root := binary("/", sub, NewLiteralNumber(3))
	d := &DAG{Roots: []*Hop{NewWrite("Xs", root), NewWrite("D", sub)}}
	prepare(d)
	if root.Kind != KindBinary || sub.Kind != KindBinary || countKind(d, KindFusedCell) != 0 {
		t.Fatalf("two-consumer interior must not fuse, got %s over %s", root.Kind, sub.Kind)
	}
}

// TestNoFuseCellChainOverBlockedLeaf: with the distributed backend on, a leaf
// the blocked backend produces keeps its consumers unfused (they run blocked).
func TestNoFuseCellChainOverBlockedLeaf(t *testing.T) {
	x := matRead("X", 4000, 200)
	v := matRead("V", 4000, 200)
	w := matRead("W", 200, 200)
	tx := NewHop(KindReorg, "t", x)
	tx.DataType = types.Matrix
	// 6.4 MB operands: over the budget, and a tiled shape, so the multiply
	// stays a blocked matmult with a blocked output
	g := NewHop(KindMatMult, "ba+*", tx, v)
	g.DataType = types.Matrix
	root := binary("-", w, binary("*", NewLiteralNumber(0.1), g))
	d := &DAG{Roots: []*Hop{NewWrite("w", root)}}
	PropagateSizes(d, nil)
	FuseOperators(d, PlannerParams{DistEnabled: true, MemBudget: 2 << 20})
	if countKind(d, KindFusedCell) != 0 {
		t.Fatal("operators over a blocked leaf must not fuse")
	}
	FuseOperators(d, PlannerParams{})
	if root.Kind != KindFusedCell {
		t.Fatalf("the same chain fuses without the backend, got %s", root.Kind)
	}
}

// TestNoFuseAggUnknownShape: unknown sizes disable fusion.
func TestNoFuseAggUnknownShape(t *testing.T) {
	x := NewRead("X", types.Matrix) // unknown characteristics
	y := NewRead("Y", types.Matrix)
	mul := binary("*", x, y)
	root := agg("sum", mul)
	d := &DAG{Roots: []*Hop{NewWrite("s", root)}}
	prepare(d)
	if root.Kind != KindAggUnary {
		t.Fatalf("unknown shapes must not fuse, got %s", root.Kind)
	}
}

// TestNoFuseOverBudget: with the distributed backend enabled, operators whose
// memory estimate exceeds the budget stay unfused (they belong to the blocked
// backend).
func TestNoFuseOverBudget(t *testing.T) {
	x := matRead("X", 5000, 1000)
	y := matRead("Y", 5000, 1000)
	mul := binary("*", x, y)
	root := agg("sum", mul)
	d := &DAG{Roots: []*Hop{NewWrite("s", root)}}
	PropagateSizes(d, nil)
	FuseOperators(d, PlannerParams{MemBudget: 1024, DistEnabled: true}) // tiny budget, dist enabled
	if root.Kind != KindAggUnary {
		t.Fatalf("over-budget pipeline must not fuse, got %s", root.Kind)
	}
	// without the distributed backend the same pipeline fuses
	FuseOperators(d, PlannerParams{MemBudget: 1024})
	if root.Kind != KindFusedAgg {
		t.Fatalf("CP-only pipeline should fuse, got %s", root.Kind)
	}
}

// TestAnnihilationRules pins the structural sparse-safety analysis.
func TestAnnihilationRules(t *testing.T) {
	build := func(mk func(x, y *Hop) *Hop) *Hop {
		x := matRead("X", 40, 10)
		y := matRead("Y", 40, 10)
		root := agg("sum", mk(x, y))
		d := &DAG{Roots: []*Hop{NewWrite("s", root)}}
		prepare(d)
		if root.Kind != KindFusedAgg {
			t.Fatalf("pipeline did not fuse")
		}
		return root
	}
	cases := []struct {
		name string
		mk   func(x, y *Hop) *Hop
		want bool
	}{
		{"X*Y", func(x, y *Hop) *Hop { return binary("*", x, y) }, true},
		{"X+Y", func(x, y *Hop) *Hop { return binary("+", x, y) }, false},
		{"X-X? (abs(X)*Y)", func(x, y *Hop) *Hop {
			a := NewHop(KindUnary, "abs", x)
			a.DataType = types.Matrix
			return binary("*", a, y)
		}, true},
		// driver is X; exp(X) is 1 at X=0, and Y is not the driver, so the
		// product must NOT count as annihilating
		{"exp(X)*Y", func(x, y *Hop) *Hop {
			e := NewHop(KindUnary, "exp", x)
			e.DataType = types.Matrix
			return binary("*", e, y)
		}, false},
		{"X^2", func(x, y *Hop) *Hop { return binary("^", x, NewLiteralNumber(2)) }, true},
		{"X/Y", func(x, y *Hop) *Hop { return binary("/", x, y) }, false},
	}
	for _, tc := range cases {
		root := build(tc.mk)
		if got := root.Fused.Prog.Annihilating; got != tc.want {
			t.Errorf("%s: annihilating = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestOperatorPropertiesFromTable pins the operator property lists derived
// from the operator table to the hand-written lists they replaced. The
// derivation adds operators the lists had missed, each correct: tan is finite
// on every finite operand, is.nan(0), 0 != 0, 0 < 0 and 0 > 0 are 0, and
// * and & (zero-annihilating, checked first) preserve zero pairs too.
func TestOperatorPropertiesFromTable(t *testing.T) {
	set := func(names ...string) map[string]bool {
		m := map[string]bool{}
		for _, n := range names {
			m[n] = true
		}
		return m
	}
	for _, tc := range []struct {
		name      string
		got, want map[string]bool
	}{
		{"finiteUnary", finiteUnary, set("uminus", "abs", "round", "floor", "ceil", "sign", "!", "sin", "cos",
			"sigmoid", "is.nan", "tan")},
		{"finiteBinary", finiteBinary, set("+", "-", "*", "min", "max", "==", "!=", "<", "<=", ">", ">=", "&", "|")},
		{"zeroPreserving", zeroPreserving, set("+", "-", "|", "min", "max", "!=", "<", ">", "*", "&")},
		{"zeroPreservingUnary", zeroPreservingUnary, set("uminus", "abs", "sqrt", "round", "floor", "ceil", "sign",
			"sin", "tan", "is.nan")},
	} {
		if !reflect.DeepEqual(tc.got, tc.want) {
			t.Errorf("%s = %v, want %v", tc.name, tc.got, tc.want)
		}
	}
}
