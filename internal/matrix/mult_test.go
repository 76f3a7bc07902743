package matrix

import (
	"testing"
)

func TestMultiplySmall(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := Multiply(a, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !c.Equals(want, 1e-12) {
		t.Errorf("product = %v, want %v", c, want)
	}
}

func TestMultiplyDimensionMismatch(t *testing.T) {
	a := NewDense(2, 3)
	b := NewDense(2, 3)
	if _, err := Multiply(a, b, 1); err == nil {
		t.Error("expected dimension mismatch error")
	}
}

func TestMultiplyKernelsAgree(t *testing.T) {
	a := RandUniform(37, 23, -1, 1, 1.0, 7)
	b := RandUniform(23, 19, -1, 1, 1.0, 8)
	dense, err := Multiply(a, b, 4)
	if err != nil {
		t.Fatal(err)
	}

	as := a.Copy().ToSparse()
	sd, err := Multiply(as, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !dense.Equals(sd, 1e-9) {
		t.Error("sparse-dense kernel disagrees with dense kernel")
	}

	bs := b.Copy().ToSparse()
	ds, err := Multiply(a, bs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !dense.Equals(ds, 1e-9) {
		t.Error("dense-sparse kernel disagrees with dense kernel")
	}

	ss, err := Multiply(as, bs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !dense.Equals(ss, 1e-9) {
		t.Error("sparse-sparse kernel disagrees with dense kernel")
	}
}

func TestMultiplySparseInputs(t *testing.T) {
	a := RandUniform(50, 40, 0, 1, 0.1, 11)
	b := RandUniform(40, 30, 0, 1, 0.1, 12)
	if !a.IsSparse() || !b.IsSparse() {
		t.Fatal("expected sparse generated inputs")
	}
	got, err := Multiply(a, b, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Multiply(a.Copy().ToDense(), b.Copy().ToDense(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equals(want, 1e-9) {
		t.Error("sparse multiply disagrees with dense reference")
	}
}

func TestMultiplyParallelMatchesSingleThread(t *testing.T) {
	a := RandUniform(64, 48, -2, 2, 1.0, 3)
	b := RandUniform(48, 32, -2, 2, 1.0, 4)
	single, _ := Multiply(a, b, 1)
	multi, _ := Multiply(a, b, 8)
	if !single.Equals(multi, 1e-10) {
		t.Error("multi-threaded result differs from single-threaded")
	}
}

func TestTSMM(t *testing.T) {
	x := RandUniform(40, 12, -1, 1, 1.0, 5)
	got := TSMM(x, 4)
	xt := Transpose(x)
	want, err := Multiply(xt, x, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equals(want, 1e-9) {
		t.Error("TSMM disagrees with explicit t(X) * X")
	}
	// result must be symmetric
	for i := 0; i < got.Rows(); i++ {
		for j := 0; j < got.Cols(); j++ {
			if got.Get(i, j) != got.Get(j, i) {
				t.Fatalf("TSMM result not symmetric at (%d,%d)", i, j)
			}
		}
	}
}

func TestTSMMSparse(t *testing.T) {
	x := RandUniform(60, 15, 0, 1, 0.15, 6)
	if !x.IsSparse() {
		t.Fatal("expected sparse input")
	}
	got := TSMM(x, 4)
	want, err := Multiply(Transpose(x.Copy().ToDense()), x.Copy().ToDense(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equals(want, 1e-9) {
		t.Error("sparse TSMM disagrees with dense reference")
	}
}

func TestMatVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	v := FromRows([][]float64{{1}, {0}, {-1}})
	got, err := MatVec(a, v, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := FromRows([][]float64{{-2}, {-2}})
	if !got.Equals(want, 1e-12) {
		t.Errorf("matvec = %v, want %v", got, want)
	}
	if _, err := MatVec(a, FromRows([][]float64{{1, 2}}), 1); err == nil {
		t.Error("expected error for non column-vector input")
	}
}

func TestMultiplyIdentity(t *testing.T) {
	a := RandUniform(20, 20, -1, 1, 1.0, 9)
	id := Identity(20)
	left, _ := Multiply(id, a, 2)
	right, _ := Multiply(a, id, 2)
	if !left.Equals(a, 1e-12) || !right.Equals(a, 1e-12) {
		t.Error("identity multiplication changed the matrix")
	}
}

func TestMultiplyEmptyOperand(t *testing.T) {
	a := NewDense(4, 3) // all zeros
	b := RandUniform(3, 5, -1, 1, 1.0, 13)
	c, err := Multiply(a, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.NNZ() != 0 {
		t.Errorf("zero matrix product has nnz = %d", c.NNZ())
	}
}

// TestMultiplyAccStripesBitwise verifies the multiply-accumulate contract the
// blocked matmult executors rely on: accumulating k-stripes in
// ascending order reproduces the one-shot multiply bitwise.
func TestMultiplyAccStripesBitwise(t *testing.T) {
	const m, k, n, stripe = 37, 200, 23, 48
	a := RandUniform(m, k, -1, 1, 1.0, 61)
	b := RandUniform(k, n, -1, 1, 1.0, 62)
	want, err := Multiply(a, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	acc := NewDense(m, n)
	for k0 := 0; k0 < k; k0 += stripe {
		k1 := min(k0+stripe, k)
		as, err := Slice(a, 0, m, k0, k1)
		if err != nil {
			t.Fatal(err)
		}
		bs, err := Slice(b, k0, k1, 0, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := MultiplyAcc(acc, as, bs, 2); err != nil {
			t.Fatal(err)
		}
	}
	if !want.Equals(acc, 0) {
		t.Error("stripe-accumulated product is not bitwise-equal to one multiply")
	}
	if want.NNZ() != acc.NNZ() {
		t.Errorf("nnz = %d, want %d", acc.NNZ(), want.NNZ())
	}
}

func TestMultiplyAccErrors(t *testing.T) {
	a, b := NewDense(4, 5), NewDense(6, 3)
	if err := MultiplyAcc(NewDense(4, 3), a, b, 1); err == nil {
		t.Error("inner dimension mismatch not rejected")
	}
	if err := MultiplyAcc(NewDense(3, 3), a, NewDense(5, 3), 1); err == nil {
		t.Error("accumulator shape mismatch not rejected")
	}
}

// TestMultiplyAccSparseInputs checks the densified sparse path agrees with
// the dense kernel on the same values.
func TestMultiplyAccSparseInputs(t *testing.T) {
	a := RandUniform(30, 40, -1, 1, 0.1, 63).ToSparse()
	b := RandUniform(40, 20, -1, 1, 0.1, 64).ToSparse()
	acc := NewDense(30, 20)
	if err := MultiplyAcc(acc, a, b, 1); err != nil {
		t.Fatal(err)
	}
	want, err := Multiply(a.Copy().ToDense(), b.Copy().ToDense(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !want.Equals(acc, 0) {
		t.Error("sparse-input multiply-acc differs from the dense kernel")
	}
}
