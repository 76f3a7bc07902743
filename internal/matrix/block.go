// Package matrix implements the dense and sparse matrix blocks and the
// multi-threaded linear algebra kernels that form the numerical substrate of
// SystemDS-Go. A MatrixBlock corresponds to SystemDS' MatrixBlock/TensorBlock
// for the 2D FP64 case: it either holds a dense row-major array or a CSR
// sparse representation, and operations choose kernels based on the present
// sparsity (lesson L1 of the paper: physical data independence).
package matrix

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// SparseThreshold is the sparsity (nnz/cells) below which blocks prefer the
// sparse CSR representation.
const SparseThreshold = 0.4

// MatrixBlock is a two-dimensional FP64 block in either dense (row-major) or
// sparse (CSR) representation. The zero value is an empty 0x0 matrix.
type MatrixBlock struct {
	rows, cols int
	dense      []float64 // row-major, nil when sparse
	sparse     *CSR      // nil when dense
	nnz        int64
	// claim says how many handles wrapped the block (recycle.go): a block a
	// kernel allocated starts fresh, one wrapping memory it did not allocate
	// (NewDenseFromSlice, NewDenseCounted) is never claimable. from is the
	// Recycler dense came from, or nil.
	claim int32
	from  *Recycler
}

// NewDense allocates a dense rows x cols matrix of zeros.
func NewDense(rows, cols int) *MatrixBlock {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimensions %dx%d", rows, cols))
	}
	return &MatrixBlock{rows: rows, cols: cols, dense: make([]float64, rows*cols), claim: claimFresh}
}

// NewDenseFromSlice wraps an existing row-major slice of length rows*cols.
// The slice is not copied.
func NewDenseFromSlice(rows, cols int, data []float64) *MatrixBlock {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("matrix: slice length %d does not match %dx%d", len(data), rows, cols))
	}
	m := &MatrixBlock{rows: rows, cols: cols, dense: data}
	m.RecomputeNNZ()
	return m
}

// NewDenseCounted wraps an existing row-major slice of length rows*cols whose
// non-zero count the caller has already taken, e.g. a decoder that counts
// while it copies. The slice is not copied and not recounted.
func NewDenseCounted(rows, cols int, data []float64, nnz int64) *MatrixBlock {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("matrix: slice length %d does not match %dx%d", len(data), rows, cols))
	}
	return &MatrixBlock{rows: rows, cols: cols, dense: data, nnz: nnz}
}

// FromRows builds a dense matrix from a slice of row slices. All rows must
// have the same length.
func FromRows(rows [][]float64) *MatrixBlock {
	r := len(rows)
	if r == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("matrix: ragged rows")
		}
		copy(m.dense[i*c:(i+1)*c], row)
	}
	m.RecomputeNNZ()
	return m
}

// Rows returns the number of rows.
func (m *MatrixBlock) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *MatrixBlock) Cols() int { return m.cols }

// NNZ returns the tracked number of non-zero values.
func (m *MatrixBlock) NNZ() int64 { return m.nnz }

// IsSparse reports whether the block is in sparse representation.
func (m *MatrixBlock) IsSparse() bool { return m.sparse != nil }

// IsEmpty reports whether the block has no non-zero values.
func (m *MatrixBlock) IsEmpty() bool { return m.nnz == 0 }

// Sparsity returns nnz / (rows*cols), or 0 for empty matrices.
func (m *MatrixBlock) Sparsity() float64 {
	cells := int64(m.rows) * int64(m.cols)
	if cells == 0 {
		return 0
	}
	return float64(m.nnz) / float64(cells)
}

// DenseValues returns the dense row-major backing slice, converting the block
// to dense representation if necessary.
func (m *MatrixBlock) DenseValues() []float64 {
	m.ToDense()
	return m.dense
}

// CopyRow copies the cells [cl, cl+len(dst)) of row r into dst. A sparse
// block is read in place — unlike DenseValues, which converts it — so
// serializers can stream a block without changing its representation.
func (m *MatrixBlock) CopyRow(dst []float64, r, cl int) {
	if m.sparse == nil {
		copy(dst, m.dense[r*m.cols+cl:r*m.cols+cl+len(dst)])
		return
	}
	clear(dst)
	s := m.csr()
	lo, hi := s.RowPtr[r], s.RowPtr[r+1]
	for p := lo + sort.SearchInts(s.ColIdx[lo:hi], cl); p < hi && s.ColIdx[p] < cl+len(dst); p++ {
		dst[s.ColIdx[p]-cl] = s.Values[p]
	}
}

// RangeNNZ counts the non-zero cells in [rl:ru, cl:cu) without converting the
// block.
func (m *MatrixBlock) RangeNNZ(rl, ru, cl, cu int) int64 {
	var n int64
	if m.sparse == nil {
		for r := rl; r < ru; r++ {
			for _, v := range m.dense[r*m.cols+cl : r*m.cols+cu] {
				if v != 0 {
					n++
				}
			}
		}
		return n
	}
	s := m.csr()
	for r := rl; r < ru; r++ {
		lo, hi := s.RowPtr[r], s.RowPtr[r+1]
		for p := lo + sort.SearchInts(s.ColIdx[lo:hi], cl); p < hi && s.ColIdx[p] < cu; p++ {
			if s.Values[p] != 0 {
				n++
			}
		}
	}
	return n
}

// Get returns the value at (r, c).
func (m *MatrixBlock) Get(r, c int) float64 {
	m.checkIndex(r, c)
	if m.sparse != nil {
		return m.sparse.Get(r, c)
	}
	return m.dense[r*m.cols+c]
}

// Set assigns the value at (r, c), updating the non-zero count.
func (m *MatrixBlock) Set(r, c int, v float64) {
	m.checkIndex(r, c)
	if m.sparse != nil {
		old := m.sparse.Get(r, c)
		m.sparse.Set(r, c, v)
		m.nnz += deltaNNZ(old, v)
		return
	}
	idx := r*m.cols + c
	old := m.dense[idx]
	m.dense[idx] = v
	m.nnz += deltaNNZ(old, v)
}

func deltaNNZ(old, new float64) int64 {
	switch {
	case old == 0 && new != 0:
		return 1
	case old != 0 && new == 0:
		return -1
	default:
		return 0
	}
}

func (m *MatrixBlock) checkIndex(r, c int) {
	if r < 0 || r >= m.rows || c < 0 || c >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d,%d) out of bounds %dx%d", r, c, m.rows, m.cols))
	}
}

// RecomputeNNZ recounts the non-zero values and updates the tracked count.
func (m *MatrixBlock) RecomputeNNZ() int64 {
	if m.sparse != nil {
		m.nnz = m.sparse.NNZ()
		return m.nnz
	}
	var n int64
	for _, v := range m.dense {
		if v != 0 {
			n++
		}
	}
	m.nnz = n
	return n
}

// ToDense converts the block to dense representation in place.
func (m *MatrixBlock) ToDense() *MatrixBlock {
	if m.sparse == nil {
		if m.dense == nil {
			m.dense = make([]float64, m.rows*m.cols)
		}
		return m
	}
	d := make([]float64, m.rows*m.cols)
	s := m.csr()
	for r := 0; r < m.rows; r++ {
		for p := s.RowPtr[r]; p < s.RowPtr[r+1]; p++ {
			d[r*m.cols+s.ColIdx[p]] = s.Values[p]
		}
	}
	m.dense = d
	m.sparse = nil
	return m
}

// ToSparse converts the block to CSR sparse representation in place.
func (m *MatrixBlock) ToSparse() *MatrixBlock {
	if m.sparse != nil {
		return m
	}
	s := NewCSR(m.rows, m.cols)
	s.RowPtr = make([]int, m.rows+1)
	nnz := 0
	for i, v := range m.dense {
		_ = i
		if v != 0 {
			nnz++
		}
	}
	s.ColIdx = make([]int, 0, nnz)
	s.Values = make([]float64, 0, nnz)
	for r := 0; r < m.rows; r++ {
		s.RowPtr[r] = len(s.Values)
		base := r * m.cols
		for c := 0; c < m.cols; c++ {
			if v := m.dense[base+c]; v != 0 {
				s.ColIdx = append(s.ColIdx, c)
				s.Values = append(s.Values, v)
			}
		}
	}
	s.RowPtr[m.rows] = len(s.Values)
	m.sparse = s
	m.dense = nil
	atomic.StoreInt32(&m.claim, claimNone) // the recycled array is gone
	m.nnz = int64(nnz)
	return m
}

// ExamineAndApplySparsity converts the block to the representation (dense or
// sparse) that matches its current sparsity relative to SparseThreshold.
func (m *MatrixBlock) ExamineAndApplySparsity() *MatrixBlock {
	if m.rows == 0 || m.cols == 0 {
		return m
	}
	if m.Sparsity() < SparseThreshold {
		return m.ToSparse()
	}
	return m.ToDense()
}

// Copy returns a deep copy of the block.
func (m *MatrixBlock) Copy() *MatrixBlock {
	cp := &MatrixBlock{rows: m.rows, cols: m.cols, nnz: m.nnz}
	if m.sparse != nil {
		cp.sparse = m.sparse.Copy()
	} else {
		cp.dense = make([]float64, len(m.dense))
		copy(cp.dense, m.dense)
	}
	cp.claim = claimFresh
	return cp
}

// Reshape returns a new matrix with the same cells laid out as rows x cols
// (row-major order). The cell count must match.
func (m *MatrixBlock) Reshape(rows, cols int, byRow bool) (*MatrixBlock, error) {
	if rows*cols != m.rows*m.cols {
		return nil, fmt.Errorf("matrix: reshape %dx%d -> %dx%d changes cell count", m.rows, m.cols, rows, cols)
	}
	src := m.Copy().ToDense()
	if byRow {
		out := NewDenseFromSlice(rows, cols, src.dense)
		return out, nil
	}
	// column-major reinterpretation
	out := NewDense(rows, cols)
	idx := 0
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			srcR := idx / m.cols
			srcC := idx % m.cols
			_ = srcR
			_ = srcC
			out.dense[r*cols+c] = src.dense[idx]
			idx++
		}
	}
	out.RecomputeNNZ()
	return out, nil
}

// Equals reports whether two matrices have identical dimensions and cells
// within the given tolerance.
func (m *MatrixBlock) Equals(o *MatrixBlock, tol float64) bool {
	if m.rows != o.rows || m.cols != o.cols {
		return false
	}
	for r := 0; r < m.rows; r++ {
		for c := 0; c < m.cols; c++ {
			a, b := m.Get(r, c), o.Get(r, c)
			if math.IsNaN(a) && math.IsNaN(b) {
				continue
			}
			if math.Abs(a-b) > tol {
				return false
			}
		}
	}
	return true
}

// String renders small matrices for debugging; large matrices render only
// their metadata.
func (m *MatrixBlock) String() string {
	if m.rows*m.cols > 200 {
		return fmt.Sprintf("MatrixBlock[%dx%d, nnz=%d, sparse=%v]", m.rows, m.cols, m.nnz, m.IsSparse())
	}
	s := fmt.Sprintf("MatrixBlock[%dx%d]\n", m.rows, m.cols)
	for r := 0; r < m.rows; r++ {
		for c := 0; c < m.cols; c++ {
			s += fmt.Sprintf("%8.4f ", m.Get(r, c))
		}
		s += "\n"
	}
	return s
}

// InMemorySize estimates the in-memory footprint of the block in bytes.
func (m *MatrixBlock) InMemorySize() int64 {
	if m.sparse != nil {
		return m.sparse.NNZ()*16 + int64(len(m.sparse.RowPtr))*8 + 64
	}
	return int64(len(m.dense))*8 + 64
}

// csr returns the sparse structure with the flat-CSR invariant restored
// (pending incremental edits compacted), or nil for dense blocks. Kernels
// that read RowPtr/ColIdx/Values directly must obtain the structure through
// this accessor.
func (m *MatrixBlock) csr() *CSR {
	if m.sparse != nil {
		m.sparse.Compact()
	}
	return m.sparse
}
