package matrix

import (
	"math"
	"testing"
)

func TestNewDenseAndSetGet(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("dims = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	m.Set(1, 2, 5.0)
	if got := m.Get(1, 2); got != 5.0 {
		t.Errorf("Get(1,2) = %v, want 5", got)
	}
	if m.NNZ() != 1 {
		t.Errorf("NNZ = %d, want 1", m.NNZ())
	}
	m.Set(1, 2, 0)
	if m.NNZ() != 0 {
		t.Errorf("NNZ after clearing = %d, want 0", m.NNZ())
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {0, 6}})
	if m.Rows() != 3 || m.Cols() != 2 {
		t.Fatalf("dims = %dx%d", m.Rows(), m.Cols())
	}
	if m.Get(2, 1) != 6 {
		t.Errorf("Get(2,1) = %v", m.Get(2, 1))
	}
	if m.NNZ() != 5 {
		t.Errorf("NNZ = %d, want 5", m.NNZ())
	}
}

func TestSparseDenseConversionRoundTrip(t *testing.T) {
	m := FromRows([][]float64{
		{0, 1, 0, 0},
		{2, 0, 0, 3},
		{0, 0, 0, 0},
	})
	orig := m.Copy()
	m.ToSparse()
	if !m.IsSparse() {
		t.Fatal("expected sparse after ToSparse")
	}
	if m.NNZ() != 3 {
		t.Errorf("sparse NNZ = %d, want 3", m.NNZ())
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 4; c++ {
			if m.Get(r, c) != orig.Get(r, c) {
				t.Errorf("cell (%d,%d) = %v, want %v", r, c, m.Get(r, c), orig.Get(r, c))
			}
		}
	}
	m.ToDense()
	if m.IsSparse() {
		t.Fatal("expected dense after ToDense")
	}
	if !m.Equals(orig, 0) {
		t.Error("round trip changed values")
	}
}

// emptySparse returns an empty rows x cols block in the sparse
// representation.
func emptySparse(rows, cols int) *MatrixBlock { return NewBuilder(rows, cols).Build() }

func TestSparseSetGet(t *testing.T) {
	m := emptySparse(4, 4)
	if !m.IsSparse() {
		t.Fatal("empty builder block should be sparse")
	}
	m.Set(0, 3, 1)
	m.Set(2, 1, 2)
	m.Set(2, 3, 3)
	m.Set(2, 1, 0) // remove
	if m.Get(0, 3) != 1 || m.Get(2, 3) != 3 {
		t.Errorf("unexpected values: %v %v", m.Get(0, 3), m.Get(2, 3))
	}
	if m.Get(2, 1) != 0 {
		t.Errorf("removed cell = %v, want 0", m.Get(2, 1))
	}
	if m.NNZ() != 2 {
		t.Errorf("NNZ = %d, want 2", m.NNZ())
	}
}

func TestBuilder(t *testing.T) {
	b := NewBuilder(3, 3)
	b.Add(0, 1, 1)
	b.Add(1, 0, 2)
	b.Add(1, 2, 3)
	m := b.Build()
	if !m.IsSparse() {
		t.Fatal("builder should produce a sparse block")
	}
	want := FromRows([][]float64{{0, 1, 0}, {2, 0, 3}, {0, 0, 0}})
	if !m.Equals(want, 0) {
		t.Errorf("builder result mismatch:\n%v\nwant\n%v", m, want)
	}
}

func TestExamineAndApplySparsity(t *testing.T) {
	// 10% dense -> should become sparse
	m := NewDense(10, 10)
	for i := 0; i < 10; i++ {
		m.Set(i, i, 1)
	}
	m.ExamineAndApplySparsity()
	if !m.IsSparse() {
		t.Error("10% dense matrix should convert to sparse")
	}
	// mostly dense -> should stay/convert dense
	d := Fill(10, 10, 2.0)
	d.ExamineAndApplySparsity()
	if d.IsSparse() {
		t.Error("fully dense matrix should not convert to sparse")
	}
}

func TestCopyIndependence(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Copy()
	c.Set(0, 0, 99)
	if m.Get(0, 0) != 1 {
		t.Error("copy is not independent of original")
	}
}

func TestReshape(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	r, err := m.Reshape(3, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	want := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if !r.Equals(want, 0) {
		t.Errorf("reshape by row mismatch: %v", r)
	}
	if _, err := m.Reshape(4, 2, true); err == nil {
		t.Error("expected error for mismatched cell count")
	}
}

func TestEqualsTolerance(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{1.0000001, 2}})
	if a.Equals(b, 0) {
		t.Error("exact equality should fail")
	}
	if !a.Equals(b, 1e-5) {
		t.Error("tolerant equality should pass")
	}
	c := FromRows([][]float64{{math.NaN(), 2}})
	d := FromRows([][]float64{{math.NaN(), 2}})
	if !c.Equals(d, 0) {
		t.Error("NaN cells should compare equal to NaN")
	}
}

func TestInMemorySize(t *testing.T) {
	d := NewDense(100, 100)
	if d.InMemorySize() < 80000 {
		t.Errorf("dense size = %d, want >= 80000", d.InMemorySize())
	}
	s := emptySparse(100, 100)
	if s.InMemorySize() >= d.InMemorySize() {
		t.Errorf("empty sparse size %d should be below dense %d", s.InMemorySize(), d.InMemorySize())
	}
}

func TestSparsity(t *testing.T) {
	m := NewDense(10, 10)
	m.Set(0, 0, 1)
	m.Set(5, 5, 2)
	if got := m.Sparsity(); math.Abs(got-0.02) > 1e-12 {
		t.Errorf("sparsity = %v, want 0.02", got)
	}
}

// TestCopyRowAndRangeNNZ: both read a block in place — a sparse block stays
// sparse — and agree with Get on either representation.
func TestCopyRowAndRangeNNZ(t *testing.T) {
	for _, m := range []*MatrixBlock{RandUniform(12, 9, -1, 1, 1, 1), RandUniform(12, 9, 0, 1, 0.15, 2), emptySparse(12, 9)} {
		sparse := m.IsSparse()
		row := make([]float64, 4)
		for r := 0; r < m.Rows(); r++ {
			m.CopyRow(row, r, 3)
			for i, v := range row {
				if v != m.Get(r, 3+i) {
					t.Errorf("CopyRow(%d)[%d] = %v, want %v", r, i, v, m.Get(r, 3+i))
				}
			}
		}
		var want int64
		for r := 2; r < 10; r++ {
			for c := 1; c < 8; c++ {
				if m.Get(r, c) != 0 {
					want++
				}
			}
		}
		if got := m.RangeNNZ(2, 10, 1, 8); got != want {
			t.Errorf("RangeNNZ = %d, want %d", got, want)
		}
		if m.RangeNNZ(0, m.Rows(), 0, m.Cols()) != m.NNZ() {
			t.Errorf("RangeNNZ over the whole block = %d, NNZ = %d", m.RangeNNZ(0, m.Rows(), 0, m.Cols()), m.NNZ())
		}
		if m.IsSparse() != sparse {
			t.Error("reading changed the representation")
		}
	}
}
