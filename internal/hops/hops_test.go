package hops

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/types"
)

// buildLmDSDag constructs the HOP DAG of the lmDS core computation
// A = t(X) %*% X + diag(l); b = t(X) %*% y to exercise rewrites and size
// propagation the way the compiler does.
func buildLmDSDag() (*DAG, *Hop, *Hop) {
	x := NewRead("X", types.Matrix)
	y := NewRead("y", types.Matrix)
	l := NewRead("l", types.Matrix)
	tx1 := NewHop(KindReorg, "t", x)
	tx1.DataType = types.Matrix
	tx2 := NewHop(KindReorg, "t", x)
	tx2.DataType = types.Matrix
	gram := NewHop(KindMatMult, "ba+*", tx1, x)
	gram.DataType = types.Matrix
	diag := NewHop(KindReorg, "diag", l)
	diag.DataType = types.Matrix
	a := NewHop(KindBinary, "+", gram, diag)
	a.DataType = types.Matrix
	b := NewHop(KindMatMult, "ba+*", tx2, y)
	b.DataType = types.Matrix
	dag := &DAG{Roots: []*Hop{NewWrite("A", a), NewWrite("b", b)}}
	return dag, a, b
}

// countKind returns the number of DAG nodes of the given kind.
func countKind(d *DAG, k Kind) int {
	n := 0
	for _, h := range d.Nodes() {
		if h.Kind == k {
			n++
		}
	}
	return n
}

func TestRewriteFusesTSMM(t *testing.T) {
	dag, a, _ := buildLmDSDag()
	Rewrite(dag)
	// t(X) %*% X must become a TSMM node
	if countKind(dag, KindTSMM) != 1 {
		t.Fatalf("TSMM nodes = %d, want 1\n%s", countKind(dag, KindTSMM), dag.ExplainPlan())
	}
	// the A node's first input is now the tsmm
	if a.Inputs[0].Kind != KindTSMM {
		t.Errorf("A input kind = %s", a.Inputs[0].Kind)
	}
	// the duplicated transpose reads were merged by CSE: only one reorg (the
	// diag) plus the transpose feeding b remain
	if n := countKind(dag, KindRead); n != 3 {
		t.Errorf("reads = %d, want 3 (X, y, l deduplicated)", n)
	}
}

func TestFoldConstants(t *testing.T) {
	two := NewLiteralNumber(2)
	three := NewLiteralNumber(3)
	sum := NewHop(KindBinary, "+", two, three)
	sum.DataType = types.Scalar
	neg := NewHop(KindUnary, "-", sum)
	neg.DataType = types.Scalar
	cmp := NewHop(KindBinary, ">", neg, NewLiteralNumber(0))
	cmp.DataType = types.Scalar
	dag := &DAG{Roots: []*Hop{NewWrite("x", neg), NewWrite("c", cmp)}}
	Rewrite(dag)
	xRoot := dag.Roots[0]
	if xRoot.Inputs[0].Kind != KindLiteral || xRoot.Inputs[0].LitValue != -5 {
		t.Errorf("folded value = %+v", xRoot.Inputs[0])
	}
	cRoot := dag.Roots[1]
	if !cRoot.Inputs[0].LitIsBool || cRoot.Inputs[0].LitBool {
		t.Errorf("folded comparison = %+v", cRoot.Inputs[0])
	}
}

func TestSimplifyAlgebraic(t *testing.T) {
	x := NewRead("X", types.Matrix)
	tt := NewHop(KindReorg, "t", NewHop(KindReorg, "t", x))
	tt.DataType = types.Matrix
	tt.Inputs[0].DataType = types.Matrix
	mulOne := NewHop(KindBinary, "*", x, NewLiteralNumber(1))
	mulOne.DataType = types.Matrix
	addZero := NewHop(KindBinary, "+", x, NewLiteralNumber(0))
	addZero.DataType = types.Matrix
	dag := &DAG{Roots: []*Hop{NewWrite("a", tt), NewWrite("b", mulOne), NewWrite("c", addZero)}}
	Rewrite(dag)
	for i, root := range dag.Roots {
		if root.Inputs[0] != x {
			t.Errorf("root %d not simplified to X: %+v", i, root.Inputs[0])
		}
	}
}

func TestCSEKeepsNonDeterministicNodes(t *testing.T) {
	r1 := NewHop(KindDataGen, "rand")
	r1.DataType = types.Matrix
	r1.Params = map[string]*Hop{"rows": NewLiteralNumber(2), "cols": NewLiteralNumber(2), "seed": NewLiteralNumber(1)}
	r2 := NewHop(KindDataGen, "rand")
	r2.DataType = types.Matrix
	r2.Params = map[string]*Hop{"rows": NewLiteralNumber(2), "cols": NewLiteralNumber(2), "seed": NewLiteralNumber(1)}
	dag := &DAG{Roots: []*Hop{NewWrite("a", r1), NewWrite("b", r2)}}
	Rewrite(dag)
	if dag.Roots[0].Inputs[0] == dag.Roots[1].Inputs[0] {
		t.Error("datagen nodes must not be merged by CSE")
	}
}

func TestCSEMergesIdenticalSubtrees(t *testing.T) {
	x := NewRead("X", types.Matrix)
	s1 := NewHop(KindAggUnary, "sum", x)
	s1.DataType = types.Scalar
	x2 := NewRead("X", types.Matrix)
	s2 := NewHop(KindAggUnary, "sum", x2)
	s2.DataType = types.Scalar
	add := NewHop(KindBinary, "+", s1, s2)
	add.DataType = types.Scalar
	dag := &DAG{Roots: []*Hop{NewWrite("out", add)}}
	Rewrite(dag)
	if add.Inputs[0] != add.Inputs[1] {
		t.Error("identical aggregations should be merged")
	}
}

func TestPropagateSizesAndMemEstimates(t *testing.T) {
	dag, a, b := buildLmDSDag()
	Rewrite(dag)
	known := map[string]types.DataCharacteristics{
		"X": types.NewDataCharacteristics(1000, 50, 1024, 50000),
		"y": types.NewDataCharacteristics(1000, 1, 1024, 1000),
		"l": types.NewDataCharacteristics(50, 1, 1024, 50),
	}
	PropagateSizes(dag, known)
	if a.DC.Rows != 50 || a.DC.Cols != 50 {
		t.Errorf("A dims = %v", a.DC)
	}
	if b.DC.Rows != 50 || b.DC.Cols != 1 {
		t.Errorf("b dims = %v", b.DC)
	}
	for _, h := range dag.Nodes() {
		if h.Kind == KindRead || h.Kind == KindLiteral {
			continue
		}
		if h.MemEstimate < 0 {
			t.Errorf("node %s %s has unknown memory estimate", h.Kind, h.Op)
		}
	}
}

func TestPropagateSizesSpecificOps(t *testing.T) {
	x := NewRead("X", types.Matrix)
	known := map[string]types.DataCharacteristics{"X": types.NewDataCharacteristics(100, 20, 1024, 2000)}
	colsums := NewHop(KindAggUnary, "colSums", x)
	colsums.DataType = types.Matrix
	rowsums := NewHop(KindAggUnary, "rowSums", x)
	rowsums.DataType = types.Matrix
	total := NewHop(KindAggUnary, "sum", x)
	total.DataType = types.Scalar
	trans := NewHop(KindReorg, "t", x)
	trans.DataType = types.Matrix
	cb := NewHop(KindNary, "cbind", x, x)
	cb.DataType = types.Matrix
	gen := NewHop(KindDataGen, "rand")
	gen.DataType = types.Matrix
	gen.Params = map[string]*Hop{"rows": NewLiteralNumber(7), "cols": NewLiteralNumber(3), "sparsity": NewLiteralNumber(0.5)}
	seq := NewHop(KindDataGen, "seq")
	seq.DataType = types.Matrix
	seq.Params = map[string]*Hop{"from": NewLiteralNumber(1), "to": NewLiteralNumber(10), "incr": NewLiteralNumber(1)}
	dag := &DAG{Roots: []*Hop{
		NewWrite("a", colsums), NewWrite("b", rowsums), NewWrite("c", total),
		NewWrite("d", trans), NewWrite("e", cb), NewWrite("f", gen), NewWrite("g", seq),
	}}
	PropagateSizes(dag, known)
	if colsums.DC.Rows != 1 || colsums.DC.Cols != 20 {
		t.Errorf("colSums dc = %v", colsums.DC)
	}
	if rowsums.DC.Rows != 100 || rowsums.DC.Cols != 1 {
		t.Errorf("rowSums dc = %v", rowsums.DC)
	}
	if total.DC.Rows != 0 || total.DC.Cols != 0 {
		t.Errorf("sum dc = %v", total.DC)
	}
	if trans.DC.Rows != 20 || trans.DC.Cols != 100 || trans.DC.NNZ != 2000 {
		t.Errorf("transpose dc = %v", trans.DC)
	}
	if cb.DC.Cols != 40 {
		t.Errorf("cbind dc = %v", cb.DC)
	}
	if gen.DC.Rows != 7 || gen.DC.Cols != 3 || gen.DC.NNZ != 10 {
		t.Errorf("rand dc = %v", gen.DC)
	}
	if seq.DC.Rows != 10 || seq.DC.Cols != 1 {
		t.Errorf("seq dc = %v", seq.DC)
	}
}

// planWithBudget runs the planner the way the tests below need it: default
// block size, the given operator budget, blocked backend on or off.
func planWithBudget(d *DAG, memBudget int64, distEnabled bool) {
	Plan(d, PlannerParams{MemBudget: memBudget, DistEnabled: distEnabled, Blocksize: types.DefaultBlocksize})
}

func TestSelectExecTypes(t *testing.T) {
	x := NewRead("X", types.Matrix)
	z := NewRead("z", types.Matrix)
	big := NewHop(KindMatMult, "ba+*", x, x)
	big.DataType = types.Matrix
	small := NewHop(KindAggUnary, "sum", z)
	small.DataType = types.Scalar
	dag := &DAG{Roots: []*Hop{NewWrite("a", big), NewWrite("s", small)}}
	known := map[string]types.DataCharacteristics{
		"X": types.NewDataCharacteristics(5000, 5000, 1024, 25_000_000),
		"z": types.NewDataCharacteristics(10, 10, 1024, 100),
	}
	PropagateSizes(dag, known)
	planWithBudget(dag, 1<<20, true) // 1 MB budget forces DIST for the multiply
	if big.ExecType != types.ExecDist {
		t.Errorf("large matmult exec type = %s, want DIST", big.ExecType)
	}
	if small.ExecType != types.ExecCP {
		t.Errorf("small aggregate exec type = %s, want CP", small.ExecType)
	}
	// with the distributed backend disabled everything stays in CP
	planWithBudget(dag, 1<<20, false)
	if big.ExecType != types.ExecCP {
		t.Error("disabled backend must keep operators in CP")
	}
}

func TestPropagateBlockedOutputs(t *testing.T) {
	x := NewRead("X", types.Matrix)
	// add -> matmult -> sum, all Dist: add and matmult stay blocked, sum is a scalar
	add := NewHop(KindBinary, "+", x, x)
	add.DataType = types.Matrix
	w := NewRead("W", types.Matrix)
	mm := NewHop(KindMatMult, "ba+*", add, w)
	mm.DataType = types.Matrix
	sum := NewHop(KindAggUnary, "sum", mm)
	sum.DataType = types.Scalar
	dag := &DAG{Roots: []*Hop{NewWrite("Y", mm), NewWrite("s", sum)}}
	known := map[string]types.DataCharacteristics{
		"X": types.NewDataCharacteristics(5000, 5000, 1024, -1),
		"W": types.NewDataCharacteristics(5000, 100, 1024, -1),
	}
	PropagateSizes(dag, known)
	planWithBudget(dag, 1<<20, true)
	PropagateBlockedOutputs(dag)
	if !add.BlockedOutput {
		t.Error("add feeding a Dist matmult must stay blocked")
	}
	if !mm.BlockedOutput {
		t.Error("matmult feeding a Dist aggregate and a transient write must stay blocked")
	}
	if sum.BlockedOutput {
		t.Error("scalar aggregate output cannot stay blocked")
	}

	// a Dist operator consumed only by CP compute collects eagerly
	y := NewRead("Y", types.Matrix)
	t1 := NewHop(KindReorg, "t", y)
	t1.DataType = types.Matrix
	cpDiag := NewHop(KindReorg, "diag", t1)
	cpDiag.DataType = types.Matrix
	dag2 := &DAG{Roots: []*Hop{NewWrite("D", cpDiag)}}
	PropagateSizes(dag2, map[string]types.DataCharacteristics{
		"Y": types.NewDataCharacteristics(5000, 5000, 1024, -1),
	})
	planWithBudget(dag2, 1<<20, true)
	// force the consumer to CP to model a mixed chain
	cpDiag.ExecType = types.ExecCP
	PropagateBlockedOutputs(dag2)
	if t1.BlockedOutput {
		t.Error("Dist op with only CP compute consumers should collect eagerly")
	}
}

func TestSelectExecTypesNaryConcat(t *testing.T) {
	a := NewRead("A", types.Matrix)
	b := NewRead("B", types.Matrix)
	rb := NewHop(KindNary, "rbind", a, b)
	rb.DataType = types.Matrix
	dag := &DAG{Roots: []*Hop{NewWrite("C", rb)}}
	known := map[string]types.DataCharacteristics{
		"A": types.NewDataCharacteristics(5000, 5000, 1024, -1),
		"B": types.NewDataCharacteristics(5000, 5000, 1024, -1),
	}
	PropagateSizes(dag, known)
	planWithBudget(dag, 1<<20, true)
	if rb.ExecType != types.ExecDist {
		t.Errorf("large rbind exec type = %s, want DIST", rb.ExecType)
	}
	PropagateBlockedOutputs(dag)
	if !rb.BlockedOutput {
		t.Error("rbind feeding only a transient write should stay blocked")
	}
}

func TestExplainOutput(t *testing.T) {
	dag, _, _ := buildLmDSDag()
	Rewrite(dag)
	PropagateSizes(dag, nil)
	out := dag.ExplainPlan()
	if !strings.Contains(out, "TSMM") || !strings.Contains(out, "TWrite") {
		t.Errorf("explain output missing operators:\n%s", out)
	}
}

func TestLiteralConstructors(t *testing.T) {
	n := NewLiteralNumber(2.5)
	if !n.IsLiteralNumber() || n.LitValue != 2.5 || !n.IsScalar() {
		t.Error("number literal malformed")
	}
	s := NewLiteralString("csv")
	if s.IsLiteralNumber() || !s.LitIsStr || s.LitString != "csv" {
		t.Error("string literal malformed")
	}
	b := NewLiteralBool(true)
	if !b.LitIsBool || b.LitValue != 1 {
		t.Error("bool literal malformed")
	}
}

// formattedSignature is the fmt spelling Hop.signature had before it
// appended into a buffer; CSE merges exactly what it did while the two agree.
func formattedSignature(h *Hop) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s:%s:%s", h.Kind, h.Op, h.Name)
	if h.Kind == KindLiteral {
		fmt.Fprintf(&sb, ":%x:%q:%v:%v", math.Float64bits(h.LitValue), h.LitString, h.LitBool, h.ValueType)
	}
	for _, in := range h.Inputs {
		fmt.Fprintf(&sb, ":%d", in.ID)
	}
	if len(h.Params) > 0 {
		keys := make([]string, 0, len(h.Params))
		for k := range h.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, ":%s=%d", k, h.Params[k].ID)
		}
	}
	if h.Fused != nil {
		fmt.Fprintf(&sb, ":%s:%s", h.Fused.Agg, h.Fused.Prog.Signature())
	}
	return sb.String()
}

// TestSignatureMatchesFormatted: the signature of every node of generated
// DAGs, and of literals with awkward payloads, parameters and fused
// programs, is byte for byte the formatted one.
func TestSignatureMatchesFormatted(t *testing.T) {
	var hops []*Hop
	for seed := int64(0); seed < 300; seed++ {
		hops = append(hops, genDAG(seed, 4+int(seed)%40).Nodes()...)
	}
	for _, v := range []float64{0, math.Copysign(0, -1), math.NaN(), -math.NaN(), math.Inf(-1), 1e-310, 12345.678} {
		hops = append(hops, NewLiteralNumber(v), NewLiteralInt(int64(v)))
	}
	for _, s := range []string{"", "a b", `q"uo\te`, "tab\tnl\n", "ünï\u00e9", "\x00\xff"} {
		hops = append(hops, NewLiteralString(s))
	}
	hops = append(hops, NewLiteralBool(true), NewLiteralBool(false))
	rnd := NewHop(KindDataGen, "rand")
	rnd.Params = map[string]*Hop{"rows": NewLiteralNumber(3), "cols": NewLiteralNumber(4), "seed": NewLiteralInt(-7)}
	x := NewRead("X", types.Matrix)
	cell := NewHop(KindFusedCell, "*", x, NewLiteralNumber(2))
	cell.Fused = &FusedPlan{Prog: &matrix.CellProgram{Instrs: []matrix.CellInstr{
		{Code: matrix.CellLoad, Arg: 0}, {Code: matrix.CellLoad, Arg: 1}, {Code: matrix.CellBinary, Bin: matrix.OpMul}}, NumArgs: 2}}
	agg := NewHop(KindFusedAgg, "sum", x)
	agg.Fused = &FusedPlan{Agg: "sum", Prog: &matrix.CellProgram{Instrs: []matrix.CellInstr{{Code: matrix.CellLoad, Arg: 0}}, NumArgs: 1}}
	hops = append(hops, rnd, cell, agg, NewWrite("out", cell), NewHop(Kind(99), "?", x))
	for _, h := range hops {
		if got, want := h.signature(), formattedSignature(h); got != want {
			t.Fatalf("signature %q, formatted %q", got, want)
		}
	}
}
