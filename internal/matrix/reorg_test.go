package matrix

import (
	"math"
	"testing"
)

func TestTransposeDense(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	got := Transpose(m)
	want := FromRows([][]float64{{1, 4}, {2, 5}, {3, 6}})
	if !got.Equals(want, 0) {
		t.Errorf("transpose = %v, want %v", got, want)
	}
}

func TestTransposeSparse(t *testing.T) {
	m := RandUniform(40, 25, 0, 1, 0.15, 21)
	if !m.IsSparse() {
		t.Fatal("expected sparse input")
	}
	got := Transpose(m)
	want := Transpose(m.Copy().ToDense())
	if !got.Equals(want, 0) {
		t.Error("sparse transpose disagrees with dense transpose")
	}
}

func TestTransposeInvolution(t *testing.T) {
	m := RandUniform(17, 29, -5, 5, 1.0, 22)
	if !Transpose(Transpose(m)).Equals(m, 0) {
		t.Error("t(t(X)) != X")
	}
}

func TestDiag(t *testing.T) {
	v := FromRows([][]float64{{1}, {2}, {3}})
	d, err := Diag(v)
	if err != nil {
		t.Fatal(err)
	}
	if d.Rows() != 3 || d.Cols() != 3 || d.Get(1, 1) != 2 || d.Get(0, 1) != 0 {
		t.Errorf("diag(v) = %v", d)
	}
	back, err := Diag(d.Copy().ToDense())
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equals(v, 0) {
		t.Errorf("diag(diag(v)) = %v, want %v", back, v)
	}
	if _, err := Diag(NewDense(2, 3)); err == nil {
		t.Error("expected error for non-square non-vector input")
	}
}

// TestDiagBuildsTheRepresentationDirectly: diag of a column vector has the
// cells (zero signs and NaN included), non-zero count and representation of
// writing the vector into a zeroed dense n x n array and applying the
// sparsity rule, as the kernel once did.
func TestDiagBuildsTheRepresentationDirectly(t *testing.T) {
	zeroed := func(v *MatrixBlock) *MatrixBlock {
		n := v.rows
		out := NewDense(n, n)
		for i := 0; i < n; i++ {
			out.dense[i*n+i] = v.Get(i, 0)
		}
		out.RecomputeNNZ()
		return out.ExamineAndApplySparsity()
	}
	negZero, nan := math.Copysign(0, -1), math.NaN()
	for _, n := range []int{0, 1, 2, 3, 512} {
		fills := map[string]func(i int) float64{
			"full":    func(i int) float64 { return float64(i + 1) },
			"zeros":   func(int) float64 { return 0 },
			"-0":      func(i int) float64 { return []float64{negZero, 2}[i%2] },
			"NaN":     func(i int) float64 { return []float64{nan, 0, 3}[i%3] },
			"alone":   func(i int) float64 { return []float64{negZero, 7}[min(i, 1)] },
			"mixed-0": func(i int) float64 { return []float64{5, negZero, nan, 0}[i%4] },
		}
		for name, fill := range fills {
			v := NewDense(n, 1)
			for i := 0; i < n; i++ {
				v.dense[i] = fill(i)
			}
			v.RecomputeNNZ()
			for _, in := range []*MatrixBlock{v, v.Copy().ToSparse()} {
				got, err := Diag(in)
				if err != nil {
					t.Fatal(err)
				}
				want := zeroed(v)
				if msg := sameBits(got, want); msg != "" {
					t.Errorf("n=%d %s sparse=%v: %s", n, name, in.IsSparse(), msg)
				}
				if got.NNZ() != want.NNZ() || got.IsSparse() != want.IsSparse() {
					t.Errorf("n=%d %s sparse=%v: nnz %d sparse %v, want %d %v", n, name, in.IsSparse(),
						got.NNZ(), got.IsSparse(), want.NNZ(), want.IsSparse())
				}
			}
		}
	}
}

// TestReverseReadsSparseRowsInPlace: rev of a CSR input has the bits and
// non-zero count of rev of its dense copy, and is dense.
func TestReverseReadsSparseRowsInPlace(t *testing.T) {
	m := RandUniform(40, 25, -1, 1, 0.1, 23)
	if !m.IsSparse() {
		t.Fatal("expected a sparse input")
	}
	got, want := Reverse(m), Reverse(m.Copy().ToDense())
	if msg := sameBits(got, want); msg != "" || got.NNZ() != want.NNZ() || got.IsSparse() || !m.IsSparse() {
		t.Errorf("%s; nnz %d, want %d; sparse output %v, input still sparse %v", msg, got.NNZ(), want.NNZ(), got.IsSparse(), m.IsSparse())
	}
}

func TestReverse(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	got := Reverse(m)
	want := FromRows([][]float64{{5, 6}, {3, 4}, {1, 2}})
	if !got.Equals(want, 0) {
		t.Errorf("reverse = %v", got)
	}
}

func TestCBindRBind(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5}, {6}})
	cb, err := CBind(a, b)
	if err != nil {
		t.Fatal(err)
	}
	wantCB := FromRows([][]float64{{1, 2, 5}, {3, 4, 6}})
	if !cb.Equals(wantCB, 0) {
		t.Errorf("cbind = %v", cb)
	}
	c := FromRows([][]float64{{7, 8}})
	rb, err := RBind(a, c)
	if err != nil {
		t.Fatal(err)
	}
	wantRB := FromRows([][]float64{{1, 2}, {3, 4}, {7, 8}})
	if !rb.Equals(wantRB, 0) {
		t.Errorf("rbind = %v", rb)
	}
	if _, err := CBind(a, FromRows([][]float64{{1}})); err == nil {
		t.Error("expected cbind row mismatch error")
	}
	if _, err := RBind(a, FromRows([][]float64{{1}})); err == nil {
		t.Error("expected rbind column mismatch error")
	}
}

// TestBindReadsSparseInputsInPlace: cbind and rbind of CSR and m x 1 inputs
// give the bits and non-zero count of binding their dense copies.
func TestBindReadsSparseInputsInPlace(t *testing.T) {
	dense := func(ms []*MatrixBlock) []*MatrixBlock {
		out := make([]*MatrixBlock, len(ms))
		for i, m := range ms {
			out[i] = m.Copy().ToDense()
		}
		return out
	}
	for _, tc := range []struct {
		bind func(...*MatrixBlock) (*MatrixBlock, error)
		ins  []*MatrixBlock
	}{
		{CBind, []*MatrixBlock{RandUniform(30, 4, -1, 1, 0.1, 1), RandUniform(30, 1, -1, 1, 1, 2), RandUniform(30, 3, -1, 1, 0.2, 3)}},
		{RBind, []*MatrixBlock{RandUniform(30, 4, -1, 1, 0.1, 4), RandUniform(7, 4, -1, 1, 1, 5), RandUniform(5, 4, -1, 1, 0.2, 6)}},
	} {
		if !tc.ins[0].IsSparse() || !tc.ins[2].IsSparse() {
			t.Fatal("the first and last inputs should be sparse")
		}
		got, err := tc.bind(tc.ins...)
		if err != nil {
			t.Fatal(err)
		}
		want, err := tc.bind(dense(tc.ins)...)
		if err != nil {
			t.Fatal(err)
		}
		g, w := got.Copy().DenseValues(), want.Copy().DenseValues()
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("cell %d: %v, want %v", i, g[i], w[i])
			}
		}
		if got.NNZ() != want.NNZ() || got.IsSparse() != want.IsSparse() {
			t.Errorf("nnz %d sparse %v, want %d %v", got.NNZ(), got.IsSparse(), want.NNZ(), want.IsSparse())
		}
	}
}

func TestSlice(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s, err := Slice(m, 1, 3, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := FromRows([][]float64{{4, 5}, {7, 8}})
	if !s.Equals(want, 0) {
		t.Errorf("slice = %v", s)
	}
	if _, err := Slice(m, 0, 4, 0, 1); err == nil {
		t.Error("expected out of bounds error")
	}
	// sparse path
	sp := m.Copy().ToSparse()
	s2, err := Slice(sp, 1, 3, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !s2.Equals(want, 0) {
		t.Errorf("sparse slice = %v", s2)
	}
}

// sliceRecount is Slice as it was before it counted while copying: copy the
// cells, then recount the whole output and pick its representation.
func sliceRecount(m *MatrixBlock, rl, ru, cl, cu int) *MatrixBlock {
	out := NewDense(ru-rl, cu-cl)
	for r := rl; r < ru; r++ {
		for c := cl; c < cu; c++ {
			out.dense[(r-rl)*(cu-cl)+c-cl] = m.Get(r, c)
		}
	}
	out.RecomputeNNZ()
	return out.ExamineAndApplySparsity()
}

// TestSliceCountsWhileCopying: counting non-zeros in the copy pass gives the
// recounting path's non-zero count, representation and bits (a stored -0
// included) for dense, sparse and half-empty inputs, over ragged, single-row,
// single-column, empty and whole ranges.
func TestSliceCountsWhileCopying(t *testing.T) {
	negZero := RandUniform(57, 31, -1, 1, 1.0, 71)
	for i := 0; i < 57*31; i += 5 {
		negZero.dense[i] = math.Copysign(0, -1)
	}
	negZero.RecomputeNNZ()
	halfEmpty := RandUniform(57, 31, -1, 1, 1.0, 72)
	for i := 0; i < 40*31; i++ {
		halfEmpty.dense[i] = 0
	}
	halfEmpty.RecomputeNNZ()
	inputs := map[string]*MatrixBlock{
		"dense":       RandUniform(57, 31, -1, 1, 1.0, 73),
		"sparse":      RandUniform(57, 31, -1, 1, 0.1, 74),
		"negZero":     negZero,
		"halfEmpty":   halfEmpty,
		"sparseStore": negZero.Copy().ToSparse(), // CSR above the threshold: a dense slice
	}
	ranges := [][4]int{{0, 57, 0, 31}, {3, 50, 2, 29}, {40, 57, 0, 31}, {0, 40, 5, 6}, {7, 8, 0, 31}, {9, 9, 0, 31}, {0, 57, 30, 31}}
	for name, m := range inputs {
		for _, r := range ranges {
			got, err := Slice(m, r[0], r[1], r[2], r[3])
			if err != nil {
				t.Fatal(err)
			}
			want := sliceRecount(m, r[0], r[1], r[2], r[3])
			if got.NNZ() != want.NNZ() || got.IsSparse() != want.IsSparse() {
				t.Errorf("%s %v: nnz %d sparse %v, want %d %v", name, r, got.NNZ(), got.IsSparse(), want.NNZ(), want.IsSparse())
			}
			for i := 0; i < got.Rows(); i++ {
				for j := 0; j < got.Cols(); j++ {
					if a, b := got.Get(i, j), want.Get(i, j); math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("%s %v: cell (%d,%d) %v, want %v", name, r, i, j, a, b)
					}
				}
			}
		}
	}
}

func TestLeftIndex(t *testing.T) {
	m := NewDense(3, 3)
	src := FromRows([][]float64{{1, 2}, {3, 4}})
	got, err := LeftIndex(m, src, 1, 3, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got.Get(1, 1) != 1 || got.Get(2, 2) != 4 || got.Get(0, 0) != 0 {
		t.Errorf("left index result = %v", got)
	}
	// original unchanged
	if m.Get(1, 1) != 0 {
		t.Error("LeftIndex mutated its target")
	}
	if _, err := LeftIndex(m, src, 2, 4, 0, 2); err == nil {
		t.Error("expected out of bounds error")
	}
	if _, err := LeftIndex(m, src, 0, 1, 0, 1); err == nil {
		t.Error("expected shape mismatch error")
	}
}

func TestRemoveEmpty(t *testing.T) {
	m := FromRows([][]float64{{1, 0, 2}, {0, 0, 0}, {3, 0, 4}})
	rows, err := RemoveEmpty(m, "rows")
	if err != nil {
		t.Fatal(err)
	}
	if rows.Rows() != 2 || rows.Get(1, 2) != 4 {
		t.Errorf("removeEmpty rows = %v", rows)
	}
	cols, err := RemoveEmpty(m, "cols")
	if err != nil {
		t.Fatal(err)
	}
	if cols.Cols() != 2 || cols.Get(2, 1) != 4 {
		t.Errorf("removeEmpty cols = %v", cols)
	}
	if _, err := RemoveEmpty(m, "diag"); err == nil {
		t.Error("expected error for invalid margin")
	}
}

func TestOrder(t *testing.T) {
	m := FromRows([][]float64{{3, 30}, {1, 10}, {2, 20}})
	sorted, err := Order(m, 0, false, false)
	if err != nil {
		t.Fatal(err)
	}
	want := FromRows([][]float64{{1, 10}, {2, 20}, {3, 30}})
	if !sorted.Equals(want, 0) {
		t.Errorf("order = %v", sorted)
	}
	idx, err := Order(m, 0, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Get(0, 0) != 1 || idx.Get(1, 0) != 3 || idx.Get(2, 0) != 2 {
		t.Errorf("order index = %v", idx)
	}
	if _, err := Order(m, 5, false, false); err == nil {
		t.Error("expected error for out of range column")
	}
}

func TestSelectRows(t *testing.T) {
	m := FromRows([][]float64{{1, 1}, {2, 2}, {3, 3}})
	idx := FromRows([][]float64{{3}, {1}})
	got, err := SelectRows(m, idx)
	if err != nil {
		t.Fatal(err)
	}
	want := FromRows([][]float64{{3, 3}, {1, 1}})
	if !got.Equals(want, 0) {
		t.Errorf("SelectRows = %v", got)
	}
	if _, err := SelectRows(m, FromRows([][]float64{{9}})); err == nil {
		t.Error("expected out of bounds error")
	}
}

// TestLeftIndexDenseSourceMatchesCellwise: copying a dense source's rows into
// place gives, bit for bit and in the same representation, what reading it
// cell by cell gave — NaN payloads and -0 included — whatever the target's
// and the source's representation.
func TestLeftIndexDenseSourceMatchesCellwise(t *testing.T) {
	cellwise := func(target, src *MatrixBlock, rl, ru, cl, cu int) *MatrixBlock {
		out := target.Copy().ToDense()
		for r := rl; r < ru; r++ {
			for c := cl; c < cu; c++ {
				out.dense[r*out.cols+c] = src.Get(r-rl, c-cl)
			}
		}
		out.RecomputeNNZ()
		out.ExamineAndApplySparsity()
		return out
	}
	special := RandUniform(4, 3, -1, 1, 1, 1)
	special.Set(0, 0, math.Float64frombits(0x7ff8dead0000beef))
	special.Set(1, 1, math.Copysign(0, -1))
	special.Set(2, 2, math.Inf(-1))
	for _, tc := range []struct {
		name        string
		target, src *MatrixBlock
	}{
		{"dense into dense", RandUniform(9, 7, -1, 1, 1, 2), special},
		{"dense into sparse", RandUniform(9, 7, 0, 1, 0.1, 3), special},
		{"dense into empty", NewDense(9, 7), special},
		{"sparse into dense", RandUniform(9, 7, -1, 1, 1, 4), RandUniform(4, 3, 0, 1, 0.2, 5)},
		{"zeros into dense", RandUniform(9, 7, -1, 1, 1, 6), NewDense(4, 3)},
	} {
		got, err := LeftIndex(tc.target, tc.src, 2, 6, 3, 6)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := cellwise(tc.target, tc.src, 2, 6, 3, 6)
		if got.IsSparse() != want.IsSparse() || got.NNZ() != want.NNZ() {
			t.Errorf("%s: sparse %v nnz %d, want sparse %v nnz %d", tc.name, got.IsSparse(), got.NNZ(), want.IsSparse(), want.NNZ())
		}
		for r := 0; r < 9; r++ {
			for c := 0; c < 7; c++ {
				if a, b := math.Float64bits(got.Get(r, c)), math.Float64bits(want.Get(r, c)); a != b {
					t.Errorf("%s: cell (%d,%d) = %#x, want %#x", tc.name, r, c, a, b)
				}
			}
		}
	}
}

// TestUpdateInPlaceMatchesCopy: writing regions in place gives the bits, the
// non-zero count and the representation of writing them into a copy, also
// when the writes overlap, come from a sparse source, or empty the target
// below the sparse threshold; the copy leaves its target alone.
func TestUpdateInPlaceMatchesCopy(t *testing.T) {
	src := RandUniform(20, 10, -1, 1, 0.3, 8)
	zeros := NewDense(20, 10)
	for _, writes := range [][]RegionWrite{
		{{R0: 2, R1: 5, C0: 1, C1: 4, Src: RandUniform(3, 3, -1, 1, 1, 9)}},
		{{R0: 0, R1: 20, C0: 3, C1: 4, Src: src, SR: 0, SC: 3}, {R0: 4, R1: 9, C0: 2, C1: 8, Src: src, SR: 4, SC: 2}},
		{{R0: 0, R1: 20, C0: 0, C1: 8, Src: zeros}},
	} {
		target := RandUniform(20, 10, -1, 1, 1, 10)
		before := target.Copy()
		copied, err := Update(target, writes, false)
		if err != nil {
			t.Fatal(err)
		}
		if !target.Equals(before, 0) || target.NNZ() != before.NNZ() {
			t.Fatal("the copying update changed its target")
		}
		inPlace, err := Update(target, writes, true)
		if err != nil {
			t.Fatal(err)
		}
		if inPlace != target {
			t.Error("the in-place update returned another block")
		}
		if !inPlace.Equals(copied, 0) || inPlace.NNZ() != copied.NNZ() || inPlace.IsSparse() != copied.IsSparse() {
			t.Errorf("in place: nnz %d sparse %v; copy: nnz %d sparse %v", inPlace.NNZ(), inPlace.IsSparse(), copied.NNZ(), copied.IsSparse())
		}
	}
}
