package matrix

import (
	"sort"
	"sync"
	"sync/atomic"
)

// CSR is a compressed sparse row representation: for each row r, the column
// indexes and values of its non-zero cells are stored in
// ColIdx[RowPtr[r]:RowPtr[r+1]] and Values[RowPtr[r]:RowPtr[r+1]], with
// column indexes sorted ascending within each row.
//
// Incremental mutation through Set is amortized: instead of rewriting the
// RowPtr suffix and shifting ColIdx/Values on every insert or delete
// (O(rows·nnz) for row-wise construction), structural edits are buffered in a
// per-row overlay and merged into the flat arrays in a single O(nnz + edits)
// pass on Compact. Kernels that read the flat arrays directly obtain the
// structure through MatrixBlock.csr()/CSR.Compact(), which restores the flat
// invariant first. Bulk construction should still use a Builder.
type CSR struct {
	RowsN, ColsN int
	RowPtr       []int
	ColIdx       []int
	Values       []float64

	// edits is the pending structural-edit overlay (nil when the flat arrays
	// are authoritative). mu serializes overlay mutation and compaction; the
	// atomic pointer lets fully-compacted structures skip the lock on reads.
	// Like the flat arrays themselves, concurrent use is safe only between
	// readers (Get/NNZ/Compact/kernel access through the compacting
	// accessor); Set requires exclusive access, which the runtime guarantees
	// because matrix blocks are immutable once published to the symbol table.
	edits atomic.Pointer[csrEdits]
	mu    sync.Mutex
}

// csrEdits buffers uncompacted cell edits: rows[r][c] = new value, where 0
// records a deletion. nnzDelta tracks the net change against len(Values).
type csrEdits struct {
	rows     map[int]map[int]float64
	nnzDelta int64
}

// NewCSR creates an empty CSR structure for a rows x cols matrix.
func NewCSR(rows, cols int) *CSR {
	return &CSR{RowsN: rows, ColsN: cols, RowPtr: make([]int, rows+1)}
}

// NNZ returns the number of stored non-zero values.
func (s *CSR) NNZ() int64 {
	if e := s.edits.Load(); e != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		if e := s.edits.Load(); e != nil {
			return int64(len(s.Values)) + e.nnzDelta
		}
	}
	return int64(len(s.Values))
}

// flatGet reads a cell from the flat arrays only.
func (s *CSR) flatGet(r, c int) float64 {
	lo, hi := s.RowPtr[r], s.RowPtr[r+1]
	idx := sort.SearchInts(s.ColIdx[lo:hi], c)
	if lo+idx < hi && s.ColIdx[lo+idx] == c {
		return s.Values[lo+idx]
	}
	return 0
}

// Get returns the value at (r, c), or 0 if not stored.
func (s *CSR) Get(r, c int) float64 {
	if s.edits.Load() != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		if e := s.edits.Load(); e != nil {
			if v, ok := e.rows[r][c]; ok {
				return v
			}
		}
		return s.flatGet(r, c)
	}
	return s.flatGet(r, c)
}

// Set assigns the value at (r, c). Setting a value to zero removes the entry.
// In-place overwrites of stored cells hit the flat arrays directly; inserts
// and deletes are buffered in the overlay and merged on the next Compact, so
// incremental construction is amortized O(log nnz) per cell instead of
// O(rows + nnz).
func (s *CSR) Set(r, c int, v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.edits.Load()
	if prev, ok := e.lookup(r, c); ok {
		// cell already edited: update the overlay in place
		e.rows[r][c] = v
		e.nnzDelta += deltaNNZ(prev, v)
		return
	}
	lo, hi := s.RowPtr[r], s.RowPtr[r+1]
	idx := sort.SearchInts(s.ColIdx[lo:hi], c)
	pos := lo + idx
	exists := pos < hi && s.ColIdx[pos] == c
	switch {
	case exists && v != 0:
		s.Values[pos] = v
	case !exists && v == 0:
		// deleting an absent cell: nothing to record
	default:
		// structural change (insert or delete): buffer it
		if e == nil {
			e = &csrEdits{rows: map[int]map[int]float64{}}
			s.edits.Store(e)
		}
		if e.rows[r] == nil {
			e.rows[r] = map[int]float64{}
		}
		e.rows[r][c] = v
		if v != 0 {
			e.nnzDelta++
		} else {
			e.nnzDelta--
		}
	}
}

// lookup returns the pending edit for a cell, if any.
func (e *csrEdits) lookup(r, c int) (float64, bool) {
	if e == nil {
		return 0, false
	}
	v, ok := e.rows[r][c]
	return v, ok
}

// Compact merges pending edits into the flat arrays, restoring the invariant
// that ColIdx/Values/RowPtr fully describe the matrix. It is a no-op when no
// edits are pending and safe to call from concurrent readers (the array swap
// is published by the atomic store of the nil overlay; racing Compacts
// serialize on mu), but not concurrently with Set.
func (s *CSR) Compact() {
	if s.edits.Load() == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.edits.Load()
	if e == nil {
		return
	}
	newCap := len(s.Values) + int(e.nnzDelta)
	if newCap < 0 {
		newCap = 0
	}
	rowPtr := make([]int, s.RowsN+1)
	colIdx := make([]int, 0, newCap)
	values := make([]float64, 0, newCap)
	for r := 0; r < s.RowsN; r++ {
		rowPtr[r] = len(values)
		lo, hi := s.RowPtr[r], s.RowPtr[r+1]
		edited, ok := e.rows[r]
		if !ok {
			// untouched row: bulk copy
			colIdx = append(colIdx, s.ColIdx[lo:hi]...)
			values = append(values, s.Values[lo:hi]...)
			continue
		}
		cols := make([]int, 0, len(edited))
		for c := range edited {
			cols = append(cols, c)
		}
		sort.Ints(cols)
		// merge the sorted flat row with the sorted edit columns
		i, j := lo, 0
		for i < hi || j < len(cols) {
			switch {
			case j >= len(cols) || (i < hi && s.ColIdx[i] < cols[j]):
				colIdx = append(colIdx, s.ColIdx[i])
				values = append(values, s.Values[i])
				i++
			case i >= hi || cols[j] < s.ColIdx[i]:
				if v := edited[cols[j]]; v != 0 {
					colIdx = append(colIdx, cols[j])
					values = append(values, v)
				}
				j++
			default: // same column: the edit wins
				if v := edited[cols[j]]; v != 0 {
					colIdx = append(colIdx, cols[j])
					values = append(values, v)
				}
				i++
				j++
			}
		}
	}
	rowPtr[s.RowsN] = len(values)
	s.RowPtr, s.ColIdx, s.Values = rowPtr, colIdx, values
	s.edits.Store(nil)
}

// Copy returns a deep (compacted) copy of the CSR structure.
func (s *CSR) Copy() *CSR {
	s.Compact()
	cp := &CSR{RowsN: s.RowsN, ColsN: s.ColsN}
	cp.RowPtr = append([]int(nil), s.RowPtr...)
	cp.ColIdx = append([]int(nil), s.ColIdx...)
	cp.Values = append([]float64(nil), s.Values...)
	return cp
}

// withValues returns a copy of the (compacted) structure holding vals in place
// of Values, less the entries whose new value is zero; nnz is the number of
// non-zeros in vals.
func (s *CSR) withValues(vals []float64, nnz int) *CSR {
	cp := &CSR{RowsN: s.RowsN, ColsN: s.ColsN, RowPtr: make([]int, len(s.RowPtr))}
	if nnz == len(vals) {
		copy(cp.RowPtr, s.RowPtr)
		cp.ColIdx = append([]int(nil), s.ColIdx...)
		cp.Values = vals
		return cp
	}
	cp.ColIdx = make([]int, 0, nnz)
	cp.Values = make([]float64, 0, nnz)
	for r := 0; r+1 < len(s.RowPtr); r++ {
		for p := s.RowPtr[r]; p < s.RowPtr[r+1]; p++ {
			if vals[p] != 0 {
				cp.ColIdx = append(cp.ColIdx, s.ColIdx[p])
				cp.Values = append(cp.Values, vals[p])
			}
		}
		cp.RowPtr[r+1] = len(cp.Values)
	}
	return cp
}

// RowNNZ returns the number of non-zero values in row r.
func (s *CSR) RowNNZ(r int) int {
	s.Compact()
	return s.RowPtr[r+1] - s.RowPtr[r]
}

// Builder incrementally constructs a sparse MatrixBlock row by row. Cells
// must be added with non-decreasing row index and, within a row, ascending
// column index. This is the fast path used by readers and sparse kernels.
type Builder struct {
	rows, cols int
	rowPtr     []int
	colIdx     []int
	values     []float64
	curRow     int
}

// NewBuilder creates a Builder for a rows x cols sparse matrix.
func NewBuilder(rows, cols int) *Builder {
	return &Builder{rows: rows, cols: cols, rowPtr: make([]int, 1, rows+1)}
}

// Add appends a cell. Zero values are skipped.
func (b *Builder) Add(r, c int, v float64) {
	if v == 0 {
		return
	}
	for b.curRow < r {
		b.rowPtr = append(b.rowPtr, len(b.values))
		b.curRow++
	}
	b.colIdx = append(b.colIdx, c)
	b.values = append(b.values, v)
}

// Build finalizes the sparse matrix block.
func (b *Builder) Build() *MatrixBlock {
	for b.curRow < b.rows {
		b.rowPtr = append(b.rowPtr, len(b.values))
		b.curRow++
	}
	csr := &CSR{RowsN: b.rows, ColsN: b.cols, RowPtr: b.rowPtr, ColIdx: b.colIdx, Values: b.values}
	return &MatrixBlock{rows: b.rows, cols: b.cols, sparse: csr, nnz: csr.NNZ()}
}
