package matrix

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// genMatrix builds a deterministic pseudo-random matrix from a seed; used by
// the property-based tests to explore the operation space.
func genMatrix(rows, cols int, sparsity float64, seed int64) *MatrixBlock {
	return RandUniform(rows, cols, -10, 10, sparsity, seed)
}

func clampDim(v uint8) int { return int(v%16) + 1 }

func clampSparsity(v uint8) float64 {
	s := float64(v%100) / 100.0
	if s < 0.05 {
		s = 0.05
	}
	return s
}

func TestPropertyTransposeInvolution(t *testing.T) {
	f := func(r, c uint8, seed int64, sp uint8) bool {
		m := genMatrix(clampDim(r), clampDim(c), clampSparsity(sp), seed)
		return Transpose(Transpose(m)).Equals(m, 1e-12)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyTransposeProductRule(t *testing.T) {
	// t(A %*% B) == t(B) %*% t(A)
	f := func(r, k, c uint8, seed int64) bool {
		a := genMatrix(clampDim(r), clampDim(k), 1.0, seed)
		b := genMatrix(clampDim(k), clampDim(c), 1.0, seed+1)
		ab, err := Multiply(a, b, 2)
		if err != nil {
			return false
		}
		tb := Transpose(b)
		ta := Transpose(a)
		btat, err := Multiply(tb, ta, 2)
		if err != nil {
			return false
		}
		return Transpose(ab).Equals(btat, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyMultiplyDistributesOverAdd(t *testing.T) {
	// A %*% (B + C) == A %*% B + A %*% C
	f := func(r, k, c uint8, seed int64) bool {
		a := genMatrix(clampDim(r), clampDim(k), 1.0, seed)
		b := genMatrix(clampDim(k), clampDim(c), 1.0, seed+1)
		cc := genMatrix(clampDim(k), clampDim(c), 1.0, seed+2)
		bc, err := CellwiseOp(b, cc, OpAdd, 1)
		if err != nil {
			return false
		}
		left, err := Multiply(a, bc, 2)
		if err != nil {
			return false
		}
		ab, _ := Multiply(a, b, 2)
		ac, _ := Multiply(a, cc, 2)
		right, err := CellwiseOp(ab, ac, OpAdd, 1)
		if err != nil {
			return false
		}
		return left.Equals(right, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertySparseDenseEquivalence(t *testing.T) {
	// every kernel must produce the same result regardless of representation
	f := func(r, k uint8, seed int64, sp uint8) bool {
		rows, cols := clampDim(r)+2, clampDim(k)+2
		m := genMatrix(rows, cols, clampSparsity(sp), seed)
		dense := m.Copy().ToDense()
		sparse := m.Copy().ToSparse()
		if math.Abs(Sum(dense, 1)-Sum(sparse, 1)) > 1e-9 {
			return false
		}
		if !ColSums(dense, 1).Equals(ColSums(sparse, 1), 1e-9) {
			return false
		}
		if !Transpose(dense).Equals(Transpose(sparse), 1e-12) {
			return false
		}
		ts1 := TSMM(dense, 2)
		ts2 := TSMM(sparse, 2)
		return ts1.Equals(ts2, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertySumLinearity(t *testing.T) {
	// sum(a*X) == a*sum(X)
	f := func(r, c uint8, seed int64, scale int8) bool {
		m := genMatrix(clampDim(r), clampDim(c), 1.0, seed)
		a := float64(scale)
		scaled := ScalarOp(m, a, OpMul, false, 1)
		return math.Abs(Sum(scaled, 1)-a*Sum(m, 1)) < 1e-8*(1+math.Abs(a*Sum(m, 1)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyCBindSliceRoundTrip(t *testing.T) {
	// slicing a cbind back apart recovers the operands
	f := func(r, c1, c2 uint8, seed int64) bool {
		rows := clampDim(r)
		a := genMatrix(rows, clampDim(c1), 1.0, seed)
		b := genMatrix(rows, clampDim(c2), 1.0, seed+1)
		cb, err := CBind(a, b)
		if err != nil {
			return false
		}
		backA, err := Slice(cb, 0, rows, 0, a.Cols())
		if err != nil {
			return false
		}
		backB, err := Slice(cb, 0, rows, a.Cols(), a.Cols()+b.Cols())
		if err != nil {
			return false
		}
		return backA.Equals(a, 0) && backB.Equals(b, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropertySolveRecoversSolution(t *testing.T) {
	f := func(n uint8, seed int64) bool {
		dim := int(n%8) + 2
		rng := rand.New(rand.NewSource(seed))
		// build a well-conditioned SPD matrix A = M^T M + I
		m := RandNormal(dim*2, dim, 1.0, rng.Int63())
		a := TSMM(m, 1)
		for i := 0; i < dim; i++ {
			a.Set(i, i, a.Get(i, i)+1)
		}
		xTrue := RandNormal(dim, 1, 1.0, rng.Int63())
		b, err := Multiply(a, xTrue, 1)
		if err != nil {
			return false
		}
		x, err := Solve(a, b, 1)
		if err != nil {
			return false
		}
		return x.Equals(xTrue, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPropertyOrderIsPermutation(t *testing.T) {
	f := func(r uint8, seed int64) bool {
		rows := clampDim(r) + 1
		m := genMatrix(rows, 3, 1.0, seed)
		sorted, err := Order(m, 0, false, false)
		if err != nil {
			return false
		}
		// sums are invariant under row permutation
		if math.Abs(Sum(sorted, 1)-Sum(m, 1)) > 1e-9 {
			return false
		}
		// sorted column must be non-decreasing
		for i := 1; i < rows; i++ {
			if sorted.Get(i, 0) < sorted.Get(i-1, 0) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyScalarCompareComplement(t *testing.T) {
	// (m < s) + (m >= s) == 1 everywhere
	f := func(r, c uint8, seed int64, sRaw int8) bool {
		m := genMatrix(clampDim(r), clampDim(c), 1.0, seed)
		s := float64(sRaw)
		lt := ScalarOp(m, s, OpLess, false, 1)
		ge := ScalarOp(m, s, OpGreaterEqual, false, 1)
		sum, err := CellwiseOp(lt, ge, OpAdd, 1)
		if err != nil {
			return false
		}
		return sum.Equals(Fill(m.Rows(), m.Cols(), 1), 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestPropertyDatagenSeedDeterminism(t *testing.T) {
	f := func(r, c uint8, seed int64, sp uint8) bool {
		a := RandUniform(clampDim(r), clampDim(c), 0, 1, clampSparsity(sp), seed)
		b := RandUniform(clampDim(r), clampDim(c), 0, 1, clampSparsity(sp), seed)
		return a.Equals(b, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
