package matrix

import (
	"fmt"
	"math"
	"testing"
)

func TestSolveSPD(t *testing.T) {
	// build an SPD system from normal equations
	x := RandUniform(50, 8, -1, 1, 1.0, 31)
	a := TSMM(x, 2)
	// add ridge term to guarantee positive definiteness
	for i := 0; i < a.Rows(); i++ {
		a.Set(i, i, a.Get(i, i)+0.1)
	}
	wTrue := RandUniform(8, 1, -1, 1, 1.0, 32)
	b, _ := Multiply(a, wTrue, 1)
	got, err := Solve(a, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equals(wTrue, 1e-8) {
		t.Errorf("solve result differs from true solution")
	}
}

func TestSolveGeneral(t *testing.T) {
	a := FromRows([][]float64{{0, 2, 1}, {3, 0, 2}, {1, 1, 0}})
	xTrue := FromRows([][]float64{{1}, {-2}, {3}})
	b, _ := Multiply(a, xTrue, 1)
	got, err := Solve(a, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equals(xTrue, 1e-10) {
		t.Errorf("solve = %v, want %v", got, xTrue)
	}
}

func TestSolveSingular(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {2, 4}})
	b := FromRows([][]float64{{1}, {2}})
	if _, err := Solve(a, b, 1); err == nil {
		t.Error("expected singularity error")
	}
}

func TestSolveErrors(t *testing.T) {
	if _, err := Solve(NewDense(2, 3), NewDense(2, 1), 1); err == nil {
		t.Error("expected non-square error")
	}
	if _, err := Solve(NewDense(3, 3), NewDense(2, 1), 1); err == nil {
		t.Error("expected rhs mismatch error")
	}
}

func TestCholesky(t *testing.T) {
	a := FromRows([][]float64{{4, 2}, {2, 3}})
	l, err := Cholesky(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	recon, _ := Multiply(l, Transpose(l), 1)
	if !recon.Equals(a, 1e-10) {
		t.Errorf("L*t(L) = %v, want %v", recon, a)
	}
	if _, err := Cholesky(FromRows([][]float64{{1, 5}, {5, 1}}), 1); err == nil {
		t.Error("expected non-PD error")
	}
}

func TestInverse(t *testing.T) {
	a := FromRows([][]float64{{2, 1}, {1, 3}})
	inv, err := Inverse(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	prod, _ := Multiply(a, inv, 1)
	if !prod.Equals(Identity(2), 1e-10) {
		t.Errorf("A * inv(A) = %v", prod)
	}
}

func TestEigenSym(t *testing.T) {
	a := FromRows([][]float64{{2, 0, 0}, {0, 3, 4}, {0, 4, 9}})
	vals, vecs, err := EigenSym(a)
	if err != nil {
		t.Fatal(err)
	}
	// eigenvalues of the 2x2 block [3 4; 4 9] are 11 and 1, plus 2
	want := []float64{11, 2, 1}
	for i, w := range want {
		if math.Abs(vals.Get(i, 0)-w) > 1e-8 {
			t.Errorf("eigenvalue %d = %v, want %v", i, vals.Get(i, 0), w)
		}
	}
	// verify A v = lambda v for each eigenpair
	for i := 0; i < 3; i++ {
		v, _ := Slice(vecs, 0, 3, i, i+1)
		av, _ := Multiply(a, v, 1)
		lv := ScalarOp(v, vals.Get(i, 0), OpMul, false, 1)
		if !av.Equals(lv, 1e-8) {
			t.Errorf("eigenpair %d does not satisfy A v = lambda v", i)
		}
	}
}

func TestSolveNormalEquationsRegression(t *testing.T) {
	// end-to-end: recover regression weights from noise-free data
	n, m := 200, 10
	x := RandUniform(n, m, -1, 1, 1.0, 77)
	wTrue := RandUniform(m, 1, -2, 2, 1.0, 78)
	y, _ := Multiply(x, wTrue, 2)
	a := TSMM(x, 2)
	b, _ := Multiply(Transpose(x), y, 2)
	w, err := Solve(a, b, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Equals(wTrue, 1e-6) {
		t.Error("normal equations did not recover the true weights")
	}
}

// --- bitwise equality with the unblocked routines ------------------------------

// factorDims are the system sizes of the bitwise tests: one row, the block
// width and its neighbours, and sizes with a ragged last block.
var factorDims = []int{1, cholBlock - 1, cholBlock, cholBlock + 1, 130, 257, 512}

// factorThreads are the thread counts every factorisation result must not
// depend on.
var factorThreads = []int{1, 2, 3, 4, 7}

// normalEquations returns t(X) %*% X + 0.1*I for a random (n+8) x n X: the
// SPD shape lmDS solves.
func normalEquations(n int, seed int64) *MatrixBlock {
	a := TSMM(RandUniform(n+8, n, -1, 1, 1.0, seed), 2)
	for i := 0; i < n; i++ {
		a.Set(i, i, a.Get(i, i)+0.1)
	}
	return a
}

// symmetricIndefinite returns a random symmetric n x n matrix with a
// diagonal of mixed sign, so Cholesky fails and Solve takes LU.
func symmetricIndefinite(n int, seed int64) *MatrixBlock {
	r := RandUniform(n, n, -1, 1, 1.0, seed)
	a := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			v := r.Get(i, j)
			if i == j {
				v += float64(n) * float64(1-2*(i%2))
			}
			a.Set(i, j, v)
			a.Set(j, i, v)
		}
	}
	return a
}

func TestCholeskyBitwiseEqualsUnblocked(t *testing.T) {
	for _, n := range factorDims {
		a := normalEquations(n, int64(100+n))
		want, err := refCholesky(a)
		if err != nil {
			t.Fatalf("n=%d: reference: %v", n, err)
		}
		for _, threads := range factorThreads {
			got, err := Cholesky(a, threads)
			if err != nil {
				t.Fatalf("n=%d T=%d: %v", n, threads, err)
			}
			requireSameBlock(t, got, want, fmt.Sprintf("cholesky n=%d T=%d", n, threads))
		}
	}
}

func TestSolveBitwiseEqualsUnblocked(t *testing.T) {
	for _, n := range factorDims {
		a := normalEquations(n, int64(200+n))
		for _, k := range []int{1, 3} {
			b := RandUniform(n, k, -1, 1, 1.0, int64(300+n+k))
			want, err := refSolve(a, b)
			if err != nil {
				t.Fatalf("n=%d k=%d: reference: %v", n, k, err)
			}
			for _, threads := range factorThreads {
				got, err := Solve(a, b, threads)
				if err != nil {
					t.Fatalf("n=%d k=%d T=%d: %v", n, k, threads, err)
				}
				requireSameBlock(t, got, want, fmt.Sprintf("solve n=%d k=%d T=%d", n, k, threads))
			}
		}
	}
}

// TestCholeskyNotPDFailsAtSameColumn breaks positive definiteness at a
// column inside a later block (the pivot there goes negative) and in the
// first one, and requires the reference's error.
func TestCholeskyNotPDFailsAtSameColumn(t *testing.T) {
	for _, col := range []int{5, cholBlock, 77} {
		a := normalEquations(100, 41)
		a.Set(col, col, -1)
		_, want := refCholesky(a)
		if want == nil {
			t.Fatalf("col %d: reference factored a non-PD matrix", col)
		}
		for _, threads := range factorThreads {
			_, err := Cholesky(a, threads)
			if err == nil || err.Error() != want.Error() {
				t.Fatalf("col %d T=%d: error %v, want %v", col, threads, err, want)
			}
		}
	}
}

func TestSolveIndefiniteFallsBackToLU(t *testing.T) {
	n := 3*cholBlock + 5
	a := symmetricIndefinite(n, 51)
	if _, err := refCholesky(a); err == nil {
		t.Fatal("test matrix is positive definite")
	}
	for _, k := range []int{1, 3} {
		b := RandUniform(n, k, -1, 1, 1.0, int64(52+k))
		want, err := refSolveLU(a.Copy(), b.Copy())
		if err != nil {
			t.Fatal(err)
		}
		for _, threads := range factorThreads {
			got, err := Solve(a, b, threads)
			if err != nil {
				t.Fatal(err)
			}
			requireSameBlock(t, got, want, fmt.Sprintf("indefinite solve k=%d T=%d", k, threads))
		}
	}
}

// TestSolveLeavesOperandsUnchanged is the guard for the copies being gone:
// Solve reads both operands in place (or densifies a CSR one into scratch)
// and must not write them.
func TestSolveLeavesOperandsUnchanged(t *testing.T) {
	n := 2*cholBlock + 9
	dense := normalEquations(n, 61)
	// a ~10%-dense symmetric, diagonally dominant CSR system
	r := RandUniform(n, n, -1, 1, 0.05, 62)
	sparse := NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			if v := r.Get(i, j) + r.Get(j, i); v != 0 {
				sparse.Set(i, j, v)
				sparse.Set(j, i, v)
			}
		}
		sparse.Set(i, i, float64(n))
	}
	sparse.ToSparse()
	for _, tc := range []struct {
		name string
		a, b *MatrixBlock
	}{
		{"dense", dense, RandUniform(n, 3, -1, 1, 1.0, 63)},
		{"csr", sparse, RandUniform(n, 2, -1, 1, 0.2, 64).ToSparse()},
		{"indefinite", symmetricIndefinite(n, 65), RandUniform(n, 1, -1, 1, 1.0, 66)},
	} {
		a0, b0 := tc.a.Copy(), tc.b.Copy()
		want, err := refSolve(a0.Copy(), b0.Copy())
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		for _, threads := range []int{1, 3} {
			got, err := Solve(tc.a, tc.b, threads)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			requireSameBlock(t, got, want, tc.name+" solve")
			requireSameBlock(t, tc.a, a0, tc.name+" a after solve")
			requireSameBlock(t, tc.b, b0, tc.name+" b after solve")
		}
	}
}

func TestInverseBitwiseEqualsNaive(t *testing.T) {
	const n = 300
	for _, tc := range []struct {
		name string
		a    *MatrixBlock
	}{
		{"spd", normalEquations(n, 71)},
		{"non-symmetric", RandUniform(n, n, -1, 1, 1.0, 72)},
	} {
		want, err := refSolve(tc.a, Identity(n))
		if err != nil {
			t.Fatalf("%s: reference: %v", tc.name, err)
		}
		for _, threads := range []int{1, 2, 3} {
			got, err := Inverse(tc.a, threads)
			if err != nil {
				t.Fatalf("%s T=%d: %v", tc.name, threads, err)
			}
			requireSameBlock(t, got, want, fmt.Sprintf("inverse %s T=%d", tc.name, threads))
		}
	}
}

// --- the unblocked routines, kept as references ----------------------------------

// refSolve is the unblocked solve: copy both operands, test symmetry with a
// column-strided scan, then Cholesky with column-at-a-time substitutions or
// LU.
func refSolve(a, b *MatrixBlock) (*MatrixBlock, error) {
	ad := a.Copy().ToDense()
	bd := b.Copy().ToDense()
	if refIsSymmetric(ad, 1e-10) {
		if x, err := refSolveCholesky(ad, bd); err == nil {
			return x, nil
		}
	}
	return refSolveLU(ad, bd)
}

func refIsSymmetric(a *MatrixBlock, tol float64) bool {
	n := a.rows
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(a.dense[i*n+j]-a.dense[j*n+i]) > tol {
				return false
			}
		}
	}
	return true
}

// refCholesky is the unblocked left-looking factor: per cell one
// accumulator from 0 over k ascending.
func refCholesky(a *MatrixBlock) (*MatrixBlock, error) {
	n := a.rows
	src := a.Copy().ToDense()
	l := NewDense(n, n)
	for j := 0; j < n; j++ {
		var d float64
		for k := 0; k < j; k++ {
			d += float64(l.dense[j*n+k] * l.dense[j*n+k])
		}
		d = src.dense[j*n+j] - d
		if d <= 0 {
			return nil, fmt.Errorf("matrix: cholesky failed, matrix not positive definite at column %d", j)
		}
		l.dense[j*n+j] = math.Sqrt(d)
		for i := j + 1; i < n; i++ {
			var s float64
			for k := 0; k < j; k++ {
				s += float64(l.dense[i*n+k] * l.dense[j*n+k])
			}
			l.dense[i*n+j] = (src.dense[i*n+j] - s) / l.dense[j*n+j]
		}
	}
	l.RecomputeNNZ()
	return l, nil
}

func refSolveCholesky(a, b *MatrixBlock) (*MatrixBlock, error) {
	l, err := refCholesky(a)
	if err != nil {
		return nil, err
	}
	n, k := a.rows, b.cols
	y := NewDense(n, k)
	for c := 0; c < k; c++ {
		for i := 0; i < n; i++ {
			s := b.dense[i*k+c]
			for j := 0; j < i; j++ {
				s -= float64(l.dense[i*n+j] * y.dense[j*k+c])
			}
			y.dense[i*k+c] = s / l.dense[i*n+i]
		}
	}
	x := NewDense(n, k)
	for c := 0; c < k; c++ {
		for i := n - 1; i >= 0; i-- {
			s := y.dense[i*k+c]
			for j := i + 1; j < n; j++ {
				s -= float64(l.dense[j*n+i] * x.dense[j*k+c])
			}
			x.dense[i*k+c] = s / l.dense[i*n+i]
		}
	}
	x.RecomputeNNZ()
	return x, nil
}

func refSolveLU(a, b *MatrixBlock) (*MatrixBlock, error) {
	n, k := a.rows, b.cols
	a.ToDense()
	b.ToDense()
	lu := append([]float64(nil), a.dense...)
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		pivot, pivotVal := col, math.Abs(lu[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(lu[r*n+col]); v > pivotVal {
				pivot, pivotVal = r, v
			}
		}
		if pivotVal < 1e-14 {
			return nil, fmt.Errorf("matrix: solve failed, matrix is singular at column %d", col)
		}
		if pivot != col {
			for c := 0; c < n; c++ {
				lu[col*n+c], lu[pivot*n+c] = lu[pivot*n+c], lu[col*n+c]
			}
			perm[col], perm[pivot] = perm[pivot], perm[col]
		}
		inv := 1 / lu[col*n+col]
		for r := col + 1; r < n; r++ {
			f := lu[r*n+col] * inv
			lu[r*n+col] = f
			for c := col + 1; c < n; c++ {
				lu[r*n+c] -= float64(f * lu[col*n+c])
			}
		}
	}
	x := NewDense(n, k)
	for c := 0; c < k; c++ {
		y := make([]float64, n)
		for i := 0; i < n; i++ {
			s := b.dense[perm[i]*k+c]
			for j := 0; j < i; j++ {
				s -= float64(lu[i*n+j] * y[j])
			}
			y[i] = s
		}
		for i := n - 1; i >= 0; i-- {
			s := y[i]
			for j := i + 1; j < n; j++ {
				s -= float64(lu[i*n+j] * x.dense[j*k+c])
			}
			x.dense[i*k+c] = s / lu[i*n+i]
		}
	}
	x.RecomputeNNZ()
	return x, nil
}
