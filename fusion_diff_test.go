package systemds_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	systemds "github.com/systemds/systemds-go"
)

// The generated differential test of cellwise fusion: seeded random cellwise
// expressions over every binary and unary operator and every leaf kind, run
// as a fused chain (R = expr) and under each fusable aggregate, with
// WithFusion(false) as the oracle.

// exprShape is the shape class of a generated subexpression.
type exprShape int

const (
	shapeScalar exprShape = iota
	shapeFull             // rows x cols
	shapeRow              // 1 x cols
	shapeCol              // rows x 1
)

var (
	diffLeaves = []struct {
		text  string
		shape exprShape
	}{
		{"2.5", shapeScalar}, {"0.5", shapeScalar},
		{"D", shapeFull}, {"S", shapeFull}, {"r", shapeRow}, {"c", shapeCol},
	}
	diffInfix  = []string{"+", "-", "*", "/", "^", "==", "!=", "<", "<=", ">", ">=", "&", "|", "%%", "%/%"}
	diffBinary = append([]string{"min", "max"}, diffInfix...)
	diffUnary  = []string{"-", "!", "abs", "exp", "log", "sqrt", "round", "floor", "ceil", "sign",
		"sin", "cos", "tan", "sigmoid", "is.nan"}
)

// genExpr draws a shape-correct cellwise expression of at most the given
// depth.
func genExpr(rng *rand.Rand, depth int) (string, exprShape) {
	if depth == 0 || rng.Intn(6) == 0 {
		l := diffLeaves[rng.Intn(len(diffLeaves))]
		return l.text, l.shape
	}
	if rng.Intn(3) == 0 {
		op := diffUnary[rng.Intn(len(diffUnary))]
		in, shape := genExpr(rng, depth-1)
		return fmt.Sprintf("%s(%s)", op, in), shape
	}
	op := diffBinary[rng.Intn(len(diffBinary))]
	l, ls := genExpr(rng, depth-1)
	r, rs := genExpr(rng, depth-1)
	if (ls == shapeRow && rs == shapeCol) || (ls == shapeCol && rs == shapeRow) {
		r, rs = "D", shapeFull // the kernels have no outer broadcast
	}
	shape := ls
	if rs == shapeFull || ls == shapeScalar {
		shape = rs
	}
	if op == "min" || op == "max" {
		return fmt.Sprintf("%s(%s, %s)", op, l, r), shape
	}
	return fmt.Sprintf("(%s) %s (%s)", l, op, r), shape
}

// sameValue is value equality across evaluation plans: equal bits — the sign
// of a zero and of an Inf included — or both NaN.
func sameValue(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// compareResults holds got to want: every cell, the non-zero count and the
// sparse/dense representation.
func compareResults(got, want any) error {
	eq := sameValue
	switch w := want.(type) {
	case float64:
		if g, ok := got.(float64); !ok || !eq(g, w) {
			return fmt.Errorf("scalar %v, want %v", got, w)
		}
	case *systemds.Matrix:
		g, ok := got.(*systemds.Matrix)
		if !ok || g.Rows() != w.Rows() || g.Cols() != w.Cols() {
			return fmt.Errorf("result %v, want a %dx%d matrix", got, w.Rows(), w.Cols())
		}
		for r := 0; r < w.Rows(); r++ {
			for c := 0; c < w.Cols(); c++ {
				if !eq(g.Get(r, c), w.Get(r, c)) {
					return fmt.Errorf("cell (%d,%d) = %v, want %v", r, c, g.Get(r, c), w.Get(r, c))
				}
			}
		}
		if g.NNZ() != w.NNZ() || g.IsSparse() != w.IsSparse() {
			return fmt.Errorf("nnz %d sparse %v, want nnz %d sparse %v", g.NNZ(), g.IsSparse(), w.NNZ(), w.IsSparse())
		}
	default:
		return fmt.Errorf("unexpected result type %T", want)
	}
	return nil
}

func TestFusedCellwiseMatchesOperatorAtATime(t *testing.T) {
	const rows, cols, programs = 130, 130, 60 // 16 900 cells: the kernels go multi-threaded
	rng := rand.New(rand.NewSource(20))
	spread := func(m *systemds.Matrix) *systemds.Matrix { // [0, 1) -> [-3, 3), zeros stay
		out := systemds.NewMatrix(m.Rows(), m.Cols(), nil)
		for r := 0; r < m.Rows(); r++ {
			for c := 0; c < m.Cols(); c++ {
				if v := m.Get(r, c); v != 0 {
					out.Set(r, c, 6*v-3)
				}
			}
		}
		return out.ExamineAndApplySparsity()
	}
	inputs := map[string]any{
		"D": spread(systemds.RandMatrix(rows, cols, 1.0, 21)),
		"S": spread(systemds.RandMatrix(rows, cols, 0.15, 22)),
		"r": spread(systemds.RandMatrix(1, cols, 1.0, 23)),
		"c": spread(systemds.RandMatrix(rows, 1, 1.0, 24)),
	}
	if !inputs["S"].(*systemds.Matrix).IsSparse() {
		t.Fatal("expected a sparse S")
	}
	run := func(script string, fusion bool, threads int) (any, *systemds.ExecStats) {
		ctx := systemds.NewContext(systemds.WithFusion(fusion), systemds.WithParallelism(threads))
		res, err := ctx.Execute(script, inputs, "R")
		if err != nil {
			t.Fatalf("%s (fusion %v, threads %d): %v", script, fusion, threads, err)
		}
		return res["R"], ctx.LastRunStats()
	}
	aggs := []string{"sum", "min", "max", "colSums", "rowSums"}
	var fusedCells, fusedAggs int64
	for i := 0; i < programs; i++ {
		expr, shape := genExpr(rng, 1+rng.Intn(6))
		if shape != shapeFull {
			expr = fmt.Sprintf("(%s) + D", expr)
		}
		for _, script := range []string{
			fmt.Sprintf("R = %s", expr),
			fmt.Sprintf("R = %s(%s)", aggs[i%len(aggs)], expr),
		} {
			want, ustats := run(script, false, 1)
			if f := ustats.FusedStats; f.FusedCellOps+f.FusedAggOps != 0 {
				t.Fatalf("%s: the oracle ran fused instructions: %+v", script, f)
			}
			fused, fstats := run(script, true, 1)
			fusedCells += fstats.FusedStats.FusedCellOps
			fusedAggs += fstats.FusedStats.FusedAggOps
			if err := compareResults(fused, want); err != nil {
				t.Errorf("%s: fused vs operator-at-a-time: %v", script, err)
			}
			for _, threads := range []int{2, 4} {
				got, _ := run(script, true, threads)
				if err := compareResults(got, fused); err != nil {
					t.Errorf("%s: %d threads vs 1: %v", script, threads, err)
				}
			}
		}
	}
	// the comparison means something only if the fused kernels actually ran
	if fusedCells < programs/2 || fusedAggs < programs/2 {
		t.Errorf("%d fused cellwise and %d fused aggregate instructions over %d programs: the generator no longer exercises fusion",
			fusedCells, fusedAggs, programs)
	}
}

// TestFusedSparseDriverSeesNonFiniteLeaves: 0 * Inf is NaN whichever plan
// runs and however the zero is stored. An Inf in another leaf, at a cell the
// sparse driver does not store, switches the stored-cells iteration off for
// that run; with finite leaves the same scripts take it.
func TestFusedSparseDriverSeesNonFiniteLeaves(t *testing.T) {
	const rows, cols = 60, 40
	s := systemds.RandMatrix(rows, cols, 0.1, 31)
	if !s.IsSparse() || s.Get(3, 5) != 0 {
		t.Fatal("expected a sparse S with no value at (3,5)")
	}
	for _, poison := range []float64{1, math.Inf(1), math.NaN()} {
		y := systemds.RandMatrix(rows, cols, 1.0, 32)
		y.Set(3, 5, poison)
		inputs := map[string]any{"S": s, "Y": y}
		for _, script := range []string{"R = (S * 2) * Y", "R = sum((S * 2) * Y)", "R = rowSums(abs(S) * Y)"} {
			var results [2]any
			for i, fusion := range []bool{false, true} {
				res, err := systemds.NewContext(systemds.WithFusion(fusion)).Execute(script, inputs, "R")
				if err != nil {
					t.Fatalf("%s (fusion %v): %v", script, fusion, err)
				}
				results[i] = res["R"]
			}
			if err := compareResults(results[1], results[0]); err != nil {
				t.Errorf("%s with Y[3,5] = %v: fused vs operator-at-a-time: %v", script, poison, err)
			}
		}
	}
}
