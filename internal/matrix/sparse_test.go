package matrix

import (
	"math/rand"
	"testing"
)

// TestCSRIncrementalSetMatchesDense fuzzes interleaved Set/Get (inserts,
// overwrites, deletions, re-inserts) against a dense reference, exercising
// the amortized edit overlay and compaction.
func TestCSRIncrementalSetMatchesDense(t *testing.T) {
	const rows, cols = 37, 23
	rng := rand.New(rand.NewSource(99))
	s := NewCSR(rows, cols)
	ref := make([]float64, rows*cols)
	for step := 0; step < 5000; step++ {
		r, c := rng.Intn(rows), rng.Intn(cols)
		switch rng.Intn(4) {
		case 0: // delete
			s.Set(r, c, 0)
			ref[r*cols+c] = 0
		default: // insert / overwrite
			v := rng.NormFloat64()
			s.Set(r, c, v)
			ref[r*cols+c] = v
		}
		if step%97 == 0 {
			// interleaved reads must see pending edits
			if got := s.Get(r, c); got != ref[r*cols+c] {
				t.Fatalf("step %d: Get(%d,%d) = %v, want %v", step, r, c, got, ref[r*cols+c])
			}
		}
		if step%501 == 0 {
			s.Compact()
		}
	}
	s.Compact()
	nnz := 0
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if got := s.Get(r, c); got != ref[r*cols+c] {
				t.Fatalf("final Get(%d,%d) = %v, want %v", r, c, got, ref[r*cols+c])
			}
			if ref[r*cols+c] != 0 {
				nnz++
			}
		}
	}
	if got := s.NNZ(); got != int64(nnz) {
		t.Errorf("NNZ = %d, want %d", got, nnz)
	}
	// flat invariant after compaction: sorted columns, consistent row pointers
	if s.RowPtr[0] != 0 || s.RowPtr[rows] != len(s.Values) {
		t.Errorf("row pointer bounds inconsistent: %d..%d with %d values", s.RowPtr[0], s.RowPtr[rows], len(s.Values))
	}
	for r := 0; r < rows; r++ {
		for p := s.RowPtr[r] + 1; p < s.RowPtr[r+1]; p++ {
			if s.ColIdx[p-1] >= s.ColIdx[p] {
				t.Fatalf("row %d columns not strictly ascending", r)
			}
		}
	}
}

// TestCSRRowMajorConstruction covers the common incremental construction
// pattern (ascending row-major Set) that was previously O(rows·nnz).
func TestCSRRowMajorConstruction(t *testing.T) {
	const rows, cols = 400, 50
	m := emptySparse(rows, cols)
	for r := 0; r < rows; r++ {
		for c := r % 3; c < cols; c += 3 {
			m.Set(r, c, float64(r*cols+c+1))
		}
	}
	if m.NNZ() != m.RecomputeNNZ() {
		t.Errorf("tracked nnz %d != recomputed %d", m.NNZ(), m.RecomputeNNZ())
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			want := 0.0
			if c >= r%3 && (c-r%3)%3 == 0 {
				want = float64(r*cols + c + 1)
			}
			if got := m.Get(r, c); got != want {
				t.Fatalf("Get(%d,%d) = %v, want %v", r, c, got, want)
			}
		}
	}
}

// TestCSRCopyCompactsPendingEdits ensures copies observe buffered edits.
func TestCSRCopyCompactsPendingEdits(t *testing.T) {
	s := NewCSR(4, 4)
	s.Set(0, 1, 2)
	s.Set(3, 2, 5)
	s.Set(0, 1, 0) // delete again while still buffered
	cp := s.Copy()
	if cp.Get(0, 1) != 0 || cp.Get(3, 2) != 5 {
		t.Errorf("copy lost pending edits: got (%v, %v)", cp.Get(0, 1), cp.Get(3, 2))
	}
	if cp.NNZ() != 1 {
		t.Errorf("copy NNZ = %d, want 1", cp.NNZ())
	}
}

// BenchmarkCSRIncrementalConstruction measures row-major incremental Set; the
// amortized overlay keeps this near-linear in nnz (it was O(rows·nnz)).
func BenchmarkCSRIncrementalConstruction(b *testing.B) {
	const rows, cols = 2000, 100
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := emptySparse(rows, cols)
		for r := 0; r < rows; r++ {
			for c := 0; c < cols; c += 5 {
				m.Set(r, c, 1.5)
			}
		}
		m.RecomputeNNZ()
	}
}
