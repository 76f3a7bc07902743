package matrix

import (
	"math"
	"testing"
)

// UnaryApply applies the unary operation cell-wise, as the runtime's unary
// instruction does through the same one-operator program.
func UnaryApply(m *MatrixBlock, op UnaryOp, threads int) *MatrixBlock {
	return mustCell(UnaryProgram(op), []CellArg{{Mat: m}}, threads)
}

func TestScalarOp(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	got := ScalarOp(m, 2, OpMul, false, 1)
	want := FromRows([][]float64{{2, 4}, {6, 8}})
	if !got.Equals(want, 0) {
		t.Errorf("m*2 = %v", got)
	}
	got = ScalarOp(m, 10, OpSub, true, 1) // 10 - m
	want = FromRows([][]float64{{9, 8}, {7, 6}})
	if !got.Equals(want, 0) {
		t.Errorf("10-m = %v", got)
	}
	got = ScalarOp(m, 2, OpPow, false, 1)
	want = FromRows([][]float64{{1, 4}, {9, 16}})
	if !got.Equals(want, 0) {
		t.Errorf("m^2 = %v", got)
	}
	got = ScalarOp(m, 3, OpGreaterEqual, false, 1)
	want = FromRows([][]float64{{0, 0}, {1, 1}})
	if !got.Equals(want, 0) {
		t.Errorf("m>=3 = %v", got)
	}
}

func TestScalarOpSparsePreserved(t *testing.T) {
	m := RandUniform(30, 30, 1, 2, 0.1, 55)
	if !m.IsSparse() {
		t.Fatal("expected sparse input")
	}
	got := ScalarOp(m, 3, OpMul, false, 1)
	if !got.IsSparse() {
		t.Error("multiplication by scalar should preserve sparse representation")
	}
	want := ScalarOp(m.Copy().ToDense(), 3, OpMul, false, 1)
	if !got.Equals(want, 1e-12) {
		t.Error("sparse scalar op disagrees with dense")
	}
	// addition densifies because f(0,s) != 0
	got = ScalarOp(m, 3, OpAdd, false, 1)
	if got.Get(0, 1) == 0 && m.Get(0, 1) == 0 {
		// pick any zero cell and verify it became 3
		found := false
		for r := 0; r < m.Rows() && !found; r++ {
			for c := 0; c < m.Cols() && !found; c++ {
				if m.Get(r, c) == 0 {
					if got.Get(r, c) != 3 {
						t.Errorf("zero cell + 3 = %v, want 3", got.Get(r, c))
					}
					found = true
				}
			}
		}
	}
}

func TestUnaryApply(t *testing.T) {
	m := FromRows([][]float64{{-1, 4}, {9, -16}})
	if got := UnaryApply(m, OpAbs, 1); !got.Equals(FromRows([][]float64{{1, 4}, {9, 16}}), 0) {
		t.Errorf("abs = %v", got)
	}
	if got := UnaryApply(FromRows([][]float64{{4, 9}}), OpSqrt, 1); !got.Equals(FromRows([][]float64{{2, 3}}), 1e-12) {
		t.Errorf("sqrt = %v", got)
	}
	if got := UnaryApply(FromRows([][]float64{{0, 1}}), OpNot, 1); !got.Equals(FromRows([][]float64{{1, 0}}), 0) {
		t.Errorf("not = %v", got)
	}
	sig := UnaryApply(FromRows([][]float64{{0}}), OpSigmoid, 1)
	if math.Abs(sig.Get(0, 0)-0.5) > 1e-12 {
		t.Errorf("sigmoid(0) = %v", sig.Get(0, 0))
	}
	if got := UnaryApply(FromRows([][]float64{{1}}), OpExp, 1).Get(0, 0); math.Abs(got-math.E) > 1e-12 {
		t.Errorf("exp(1) = %v", got)
	}
}

func TestCellwiseOpSameDim(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	got, err := CellwiseOp(a, b, OpAdd, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equals(FromRows([][]float64{{11, 22}, {33, 44}}), 0) {
		t.Errorf("a+b = %v", got)
	}
	got, _ = CellwiseOp(a, b, OpMul, 1)
	if !got.Equals(FromRows([][]float64{{10, 40}, {90, 160}}), 0) {
		t.Errorf("a*b = %v", got)
	}
	if _, err := CellwiseOp(a, NewDense(3, 3), OpAdd, 1); err == nil {
		t.Error("expected dimension mismatch error")
	}
}

func TestCellwiseBroadcast(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	col := FromRows([][]float64{{10}, {20}})
	got, err := CellwiseOp(m, col, OpAdd, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equals(FromRows([][]float64{{11, 12}, {23, 24}}), 0) {
		t.Errorf("m + colvec = %v", got)
	}
	row := FromRows([][]float64{{100, 200}})
	got, err = CellwiseOp(m, row, OpMul, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equals(FromRows([][]float64{{100, 400}, {300, 800}}), 0) {
		t.Errorf("m * rowvec = %v", got)
	}
	// reversed: vector op matrix
	got, err = CellwiseOp(col, m, OpSub, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equals(FromRows([][]float64{{9, 8}, {17, 16}}), 0) {
		t.Errorf("colvec - m = %v", got)
	}
}

func TestTernaryIfElse(t *testing.T) {
	cond := FromRows([][]float64{{1, 0}, {0, 1}})
	a := FromRows([][]float64{{10, 20}, {30, 40}})
	b := Fill(2, 2, -1)
	got, err := Ternary(cond, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := FromRows([][]float64{{10, -1}, {-1, 40}})
	if !got.Equals(want, 0) {
		t.Errorf("ifelse = %v", got)
	}
	// scalar branches
	got, err = Ternary(cond, Fill(1, 1, 7), Fill(1, 1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equals(FromRows([][]float64{{7, 0}, {0, 7}}), 0) {
		t.Errorf("ifelse scalar = %v", got)
	}
	if _, err := Ternary(cond, NewDense(3, 3), b); err == nil {
		t.Error("expected shape error")
	}
}

func TestBinaryOpApplyTable(t *testing.T) {
	cases := []struct {
		op   BinaryOp
		a, b float64
		want float64
	}{
		{OpAdd, 2, 3, 5}, {OpSub, 2, 3, -1}, {OpMul, 2, 3, 6}, {OpDiv, 6, 3, 2},
		{OpPow, 2, 3, 8}, {OpMin, 2, 3, 2}, {OpMax, 2, 3, 3},
		{OpEqual, 2, 2, 1}, {OpNotEqual, 2, 2, 0}, {OpLess, 1, 2, 1},
		{OpLessEqual, 2, 2, 1}, {OpGreater, 3, 2, 1}, {OpGreaterEqual, 1, 2, 0},
		{OpAnd, 1, 0, 0}, {OpOr, 1, 0, 1}, {OpModulus, 7, 3, 1}, {OpIntDiv, 7, 3, 2},
	}
	for _, c := range cases {
		if got := c.op.Apply(c.a, c.b); got != c.want {
			t.Errorf("%v.Apply(%v,%v) = %v, want %v", c.op, c.a, c.b, got, c.want)
		}
	}
}

func TestUnaryOpApplyTable(t *testing.T) {
	cases := []struct {
		op   UnaryOp
		a    float64
		want float64
	}{
		{OpNeg, 2, -2}, {OpAbs, -3, 3}, {OpSqrt, 9, 3}, {OpRound, 2.5, 3},
		{OpFloor, 2.9, 2}, {OpCeil, 2.1, 3}, {OpSign, -7, -1}, {OpSign, 0, 0},
		{OpNot, 0, 1}, {OpNot, 5, 0}, {OpIsNaN, 1, 0},
	}
	for _, c := range cases {
		if got := c.op.Apply(c.a); got != c.want {
			t.Errorf("%v.Apply(%v) = %v, want %v", c.op, c.a, got, c.want)
		}
	}
	if got := OpIsNaN.Apply(math.NaN()); got != 1 {
		t.Errorf("is.nan(NaN) = %v, want 1", got)
	}
}

func TestOpStrings(t *testing.T) {
	if OpAdd.String() != "+" || OpMul.String() != "*" || OpGreaterEqual.String() != ">=" {
		t.Error("unexpected binary op string")
	}
	if OpExp.String() != "exp" || OpSigmoid.String() != "sigmoid" {
		t.Error("unexpected unary op string")
	}
}
