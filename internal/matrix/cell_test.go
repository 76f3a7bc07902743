package matrix

import (
	"fmt"
	"math"
	"testing"
)

// sameCell is value equality for cellwise results: equal bits (the sign of a
// zero included) or both NaN.
func sameCell(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// requireSameBlock holds got to want's cells, non-zero count and
// representation.
func requireSameBlock(t *testing.T, got, want *MatrixBlock, context string) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: got %dx%d, want %dx%d", context, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for r := 0; r < want.Rows(); r++ {
		for c := 0; c < want.Cols(); c++ {
			if !sameCell(got.Get(r, c), want.Get(r, c)) {
				t.Fatalf("%s: cell (%d,%d) = %v, want %v", context, r, c, got.Get(r, c), want.Get(r, c))
			}
		}
	}
	if got.NNZ() != want.NNZ() || got.IsSparse() != want.IsSparse() {
		t.Fatalf("%s: nnz %d sparse %v, want nnz %d sparse %v", context, got.NNZ(), got.IsSparse(), want.NNZ(), want.IsSparse())
	}
}

// TestScalarOpSparseMatchesDense: a matrix-scalar result must not depend on
// the representation of the matrix. The stored-cells shortcut over a sparse
// block is only taken when the operator maps zero to zero for the actual
// scalar — X / 0, X %/% 0, X * Inf and X * NaN turn every zero cell into NaN.
func TestScalarOpSparseMatchesDense(t *testing.T) {
	sparse := RandUniform(20, 15, -2, 2, 0.1, 61)
	if !sparse.IsSparse() {
		t.Fatal("expected sparse input")
	}
	dense := sparse.Copy().ToDense()
	ops := []BinaryOp{OpDiv, OpIntDiv, OpMul, OpPow, OpMin, OpMax}
	scalars := []float64{0, math.Inf(1), math.Inf(-1), math.NaN(), 2}
	for _, op := range ops {
		for _, s := range scalars {
			for _, swap := range []bool{false, true} {
				for _, threads := range []int{1, 3} {
					got := ScalarOp(sparse, s, op, swap, threads)
					want := ScalarOp(dense, s, op, swap, threads)
					requireSameBlock(t, got, want, fmt.Sprintf("X %s %v (swap %v, threads %d)", op, s, swap, threads))
				}
			}
		}
	}
	// the case of the bug report: every zero cell of X / 0 is NaN
	q := ScalarOp(sparse, 0, OpDiv, false, 1)
	nan := 0
	for r := 0; r < q.Rows(); r++ {
		for c := 0; c < q.Cols(); c++ {
			if v := q.Get(r, c); v != v {
				nan++
			}
		}
	}
	if want := q.Rows()*q.Cols() - int(sparse.NNZ()); nan != want {
		t.Errorf("X / 0 has %d NaN cells, want %d (one per zero of X)", nan, want)
	}
}

// TestCellwiseKernelsWriteNoNegativeZero: a sparse block cannot hold the sign
// of a zero, so no kernel writes one — -(0), 0 * -1, 0 / -2, round(-0.2),
// min(0, -0) all store +0 — and 1 / (X * -1) is +Inf at every zero of X
// whether X, or the product, is dense or sparse.
func TestCellwiseKernelsWriteNoNegativeZero(t *testing.T) {
	sparse := RandUniform(20, 15, -2, 2, 0.1, 63)
	dense := sparse.Copy().ToDense()
	negZero := math.Copysign(0, -1)
	results := map[string]*MatrixBlock{
		"-X":          UnaryApply(dense, OpNeg, 1),
		"X * -1":      ScalarOp(dense, -1, OpMul, false, 1),
		"X / -2":      ScalarOp(dense, -2, OpDiv, false, 1),
		"round(X/10)": UnaryApply(ScalarOp(dense, 10, OpDiv, false, 1), OpRound, 1),
		"min(X, -0)":  ScalarOp(dense, negZero, OpMin, false, 1),
	}
	neg, _ := CellwiseOp(dense, UnaryApply(dense, OpNeg, 1), OpMul, 1)
	results["X * -X"] = neg
	for name, m := range results {
		for r := 0; r < m.Rows(); r++ {
			for c := 0; c < m.Cols(); c++ {
				if v := m.Get(r, c); v == 0 && math.Signbit(v) {
					t.Fatalf("%s: cell (%d,%d) is -0", name, r, c)
				}
			}
		}
	}
	for _, x := range []*MatrixBlock{sparse, dense} {
		inv := ScalarOp(ScalarOp(x, -1, OpMul, false, 1), 1, OpDiv, true, 1)
		for r := 0; r < inv.Rows(); r++ {
			for c := 0; c < inv.Cols(); c++ {
				if sparse.Get(r, c) == 0 && !math.IsInf(inv.Get(r, c), 1) {
					t.Fatalf("1 / (X * -1) over sparse=%v: cell (%d,%d) = %v, want +Inf", x.IsSparse(), r, c, inv.Get(r, c))
				}
			}
		}
	}
}

// TestCellwiseResultsCarryExactNNZ: a stored cell that evaluates to zero is
// dropped, so nnz and the chosen representation follow the values alone.
func TestCellwiseResultsCarryExactNNZ(t *testing.T) {
	sparse := RandUniform(30, 30, -0.9, 0.9, 0.2, 62)
	got := UnaryApply(sparse, OpRound, 1) // |x| < 0.5 rounds to zero
	want := UnaryApply(sparse.Copy().ToDense(), OpRound, 1)
	requireSameBlock(t, got, want, "round(sparse)")
	if got.NNZ() >= sparse.NNZ() || got.NNZ() == 0 {
		t.Errorf("round kept %d of %d stored cells, want some but not all", got.NNZ(), sparse.NNZ())
	}
	if zero := ScalarOp(sparse, 0, OpMul, false, 1); zero.NNZ() != 0 {
		t.Errorf("X * 0 has nnz %d, want 0", zero.NNZ())
	}
}

// standardizeProgram is (arg0 - arg1) / arg2.
func standardizeProgram() *CellProgram {
	return &CellProgram{
		Instrs: []CellInstr{
			{Code: CellLoad, Arg: 0}, {Code: CellLoad, Arg: 1}, {Code: CellBinary, Bin: OpSub},
			{Code: CellLoad, Arg: 2}, {Code: CellBinary, Bin: OpDiv},
		},
		NumArgs: 3,
	}
}

// TestFusedCellBroadcastLeaves: row- and column-vector leaves, a sparse
// output-shaped leaf and a scalar in one program equal the operator-at-a-time
// plan, whatever the thread count and wherever the output-shaped leaf sits.
func TestFusedCellBroadcastLeaves(t *testing.T) {
	const rows, cols = 150, 130 // above the single-threaded cutoff
	x := RandUniform(rows, cols, -3, 3, 1.0, 41)
	xs := RandUniform(rows, cols, -3, 3, 0.2, 42)
	mu := RandUniform(1, cols, -1, 1, 1.0, 43)
	sd := RandUniform(rows, 1, 0.5, 2, 1.0, 44)
	for _, m := range []*MatrixBlock{x, xs} {
		d, _ := CellwiseOp(m, mu, OpSub, 1)
		want, _ := CellwiseOp(d, sd, OpDiv, 1)
		for _, threads := range []int{1, 2, 4} {
			got, err := FusedCell(standardizeProgram(), []CellArg{{Mat: m}, {Mat: mu}, {Mat: sd}}, threads, nil)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBlock(t, got, want, fmt.Sprintf("(X - mu) / sd, sparse %v, threads %d", m.IsSparse(), threads))
		}
	}
	// the vector first: mu - X
	want, _ := CellwiseOp(mu, x, OpSub, 1)
	got, err := FusedCell(BinaryProgram(OpSub), []CellArg{{Mat: mu}, {Mat: x}}, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameBlock(t, got, want, "mu - X")
	// a row vector against a column vector has no output-shaped operand
	if _, err := FusedCell(BinaryProgram(OpAdd), []CellArg{{Mat: mu}, {Mat: sd}}, 1, nil); err == nil {
		t.Error("expected an error for a program without an output-shaped argument")
	}
}

// TestFusedCellSparseDriver: an annihilating program over a sparse driver is
// evaluated at the stored cells only — other leaves gathered at the driver's
// columns — and equals the dense evaluation; a non-finite scalar switches the
// stored-cells iteration off.
func TestFusedCellSparseDriver(t *testing.T) {
	const rows, cols = 150, 130
	s := RandUniform(rows, cols, -2, 2, 0.1, 51)
	y := RandUniform(rows, cols, -2, 2, 1.0, 52)
	ys := RandUniform(rows, cols, -2, 2, 0.3, 53)
	rv := RandUniform(1, cols, -2, 2, 1.0, 54)
	cv := RandUniform(rows, 1, -2, 2, 1.0, 55)
	prog := &CellProgram{ // abs(S * other) * k
		Instrs: []CellInstr{
			{Code: CellLoad, Arg: 0}, {Code: CellLoad, Arg: 1}, {Code: CellBinary, Bin: OpMul},
			{Code: CellUnary, Un: OpAbs}, {Code: CellLoad, Arg: 2}, {Code: CellBinary, Bin: OpMul},
		},
		NumArgs: 3, Annihilating: true,
	}
	dense := *prog
	dense.Annihilating = false
	for name, other := range map[string]*MatrixBlock{"dense": y, "sparse": ys, "rowvec": rv, "colvec": cv} {
		for _, k := range []float64{0.5, math.Inf(1)} {
			args := []CellArg{{Mat: s}, {Mat: other}, {Scalar: k}}
			want, err := FusedCell(&dense, args, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, threads := range []int{1, 2, 4} {
				got, err := FusedCell(prog, args, threads, nil)
				if err != nil {
					t.Fatal(err)
				}
				requireSameBlock(t, got, want, fmt.Sprintf("abs(S * %s) * %v, threads %d", name, k, threads))
			}
		}
	}
}

// TestCellMapMatchesFusedCell: a program over one matrix and scalars, run as
// a row function over any slice of values (a dictionary), computes what
// FusedCell computes over the cells — in place too.
func TestCellMapMatchesFusedCell(t *testing.T) {
	x := RandUniform(40, 60, -2, 2, 1.0, 57) // 2400 values: more than one span
	prog := &CellProgram{                    // (3 - X) * X
		Instrs: []CellInstr{
			{Code: CellLoad, Arg: 0}, {Code: CellLoad, Arg: 1}, {Code: CellBinary, Bin: OpSub},
			{Code: CellLoad, Arg: 1}, {Code: CellBinary, Bin: OpMul},
		},
		NumArgs: 2,
	}
	want, err := FusedCell(prog, []CellArg{{Scalar: 3}, {Mat: x}}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	fn, err := CellMap(prog, []CellArg{{Scalar: 3}, {}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]float64, len(x.dense))
	fn(got, x.dense)
	inPlace := append([]float64(nil), x.dense...)
	fn(inPlace, inPlace)
	for i, w := range want.dense {
		if got[i] != w || inPlace[i] != w {
			t.Fatalf("value %d: mapped %v, in place %v, want %v", i, got[i], inPlace[i], w)
		}
	}
	if _, err := CellMap(prog, []CellArg{{Mat: x}, {}}, 1); err == nil {
		t.Error("expected an error for a second matrix argument")
	}
}
