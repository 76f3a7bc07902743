package matrix

import (
	"fmt"
	"math"
	"testing"
)

// xtyOracle is the plan the fused kernel replaces: materialize t(x), multiply.
func xtyOracle(t *testing.T, x, y *MatrixBlock) *MatrixBlock {
	t.Helper()
	want, err := Multiply(Transpose(x), y, 1)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestTransposeMultiplyMatchesOracle checks TransposeMultiply against
// Multiply(Transpose(x), y) over ragged shapes — row counts around the
// 4-row blocking and the 128-row chunk size, vector and matrix right-hand
// sides on both sides of the tiled crossover, dense and sparse x, an all-zero
// y — and requires bitwise-identical results across thread counts.
func TestTransposeMultiplyMatchesOracle(t *testing.T) {
	shapes := []struct{ m, n, k int }{
		{1, 1, 1}, {3, 5, 1}, {127, 7, 1}, {129, 33, 1}, {1001, 10, 1}, {2050, 101, 1},
		{5, 3, 2}, {130, 9, 3}, {517, 67, 5}, {1001, 3, 7}, // row-scatter leg, matrix y
		{300, 129, 130}, {515, 131, 67}, // tiled leg, ragged tiles
		{2000, 300, 300}, // sparse x: output large enough that the partial-size cap cuts the chunk count
	}
	for _, s := range shapes {
		for _, sparsity := range []float64{1.0, 0.1} {
			x := RandUniform(s.m, s.n, -1, 1, sparsity, int64(s.m*31+s.n))
			if sparsity < 1 {
				x.ToSparse()
			}
			ys := map[string]*MatrixBlock{
				"dense y": RandUniform(s.m, s.k, -1, 1, 1.0, int64(s.m+s.k*17)),
				"zero y":  NewDense(s.m, s.k),
			}
			for yname, y := range ys {
				what := fmt.Sprintf("%dx%d (sparsity %.1f) ^T * %dx%d %s", s.m, s.n, sparsity, s.m, s.k, yname)
				want := xtyOracle(t, x, y)
				base, err := TransposeMultiply(x, y, 1)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if base.Rows() != s.n || base.Cols() != s.k {
					t.Fatalf("%s: got %dx%d", what, base.Rows(), base.Cols())
				}
				for r := 0; r < s.n; r++ {
					for c := 0; c < s.k; c++ {
						g, w := base.Get(r, c), want.Get(r, c)
						if math.Abs(g-w) > 1e-12*math.Max(1, math.Abs(w)) {
							t.Fatalf("%s: cell (%d,%d) = %v, want %v", what, r, c, g, w)
						}
					}
				}
				for _, threads := range []int{2, 4} {
					got, err := TransposeMultiply(x, y, threads)
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					bitwiseEqual(t, base, got, fmt.Sprintf("%s threads=%d", what, threads))
				}
			}
		}
	}
}

// TestTransposeMultiplyTiledBitwiseEqualsOracle: the tiled leg adds every
// cell's contributions in ascending row order, exactly like the GEMM over a
// materialized transpose, so there the fused result is not merely close.
func TestTransposeMultiplyTiledBitwiseEqualsOracle(t *testing.T) {
	x := RandUniform(515, 131, -1, 1, 1.0, 5)
	y := RandUniform(515, 67, -1, 1, 1.0, 6)
	got, err := TransposeMultiply(x, y, 2)
	if err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, xtyOracle(t, x, y), got, "tiled t(X)%*%Y")
}

func TestTransposeMultiplyShapeError(t *testing.T) {
	if _, err := TransposeMultiply(NewDense(5, 3), NewDense(4, 1), 1); err == nil {
		t.Error("expected a row-count mismatch error")
	}
}

// singleRowMV is the loop the 4-row MV leg replaced: one accumulator per
// row, products added in ascending k onto the accumulator's value.
func singleRowMV(acc, a, v *MatrixBlock) {
	k := a.Cols()
	for i := 0; i < a.Rows(); i++ {
		d := acc.dense[i]
		for p := 0; p < k; p++ {
			d += float64(a.dense[i*k+p] * v.dense[p])
		}
		acc.dense[i] = d
	}
}

// TestMatVecBlockedBitwise pins the 4-row dense MV leg behind gemmAcc against
// the single-row loop for row counts in every residue class mod 4, through
// Multiply, MatVec and MultiplyAcc (non-zero accumulator), at 1, 2 and 4
// threads.
func TestMatVecBlockedBitwise(t *testing.T) {
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 64, 129, 1002, 1003} {
		for _, k := range []int{1, 3, 100} {
			a := RandUniform(m, k, -1, 1, 1.0, int64(m*7+k))
			v := RandUniform(k, 1, -1, 1, 1.0, int64(m+k*13))
			want := NewDense(m, 1)
			singleRowMV(want, a, v)
			want.RecomputeNNZ()
			start := RandUniform(m, 1, -1, 1, 1.0, int64(m+k))
			wantAcc := start.Copy()
			singleRowMV(wantAcc, a, v)
			wantAcc.RecomputeNNZ()
			for _, threads := range []int{1, 2, 4} {
				what := fmt.Sprintf("%dx%d threads=%d", m, k, threads)
				got, err := Multiply(a, v, threads)
				if err != nil {
					t.Fatal(err)
				}
				bitwiseEqual(t, want, got, "Multiply "+what)
				got, err = MatVec(a, v, threads)
				if err != nil {
					t.Fatal(err)
				}
				bitwiseEqual(t, want, got, "MatVec "+what)
				acc := start.Copy()
				if err := MultiplyAcc(acc, a, v, threads); err != nil {
					t.Fatal(err)
				}
				bitwiseEqual(t, wantAcc, acc, "MultiplyAcc "+what)
			}
		}
	}
}

// TestMatVecStripesBitwise re-verifies the MultiplyAcc stripe contract on the
// MV leg: accumulating k-stripes in ascending order equals the one-shot
// product bit for bit.
func TestMatVecStripesBitwise(t *testing.T) {
	const m, k, stripe = 203, 150, 48
	a := RandUniform(m, k, -1, 1, 1.0, 81)
	v := RandUniform(k, 1, -1, 1, 1.0, 82)
	want, err := Multiply(a, v, 1)
	if err != nil {
		t.Fatal(err)
	}
	acc := NewDense(m, 1)
	for k0 := 0; k0 < k; k0 += stripe {
		k1 := min(k0+stripe, k)
		as, err := Slice(a, 0, m, k0, k1)
		if err != nil {
			t.Fatal(err)
		}
		vs, err := Slice(v, k0, k1, 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := MultiplyAcc(acc, as, vs, 2); err != nil {
			t.Fatal(err)
		}
	}
	bitwiseEqual(t, want, acc, "MV stripe accumulation")
}
