package matrix

import (
	"fmt"
	"sort"
)

// Transpose returns t(m). Dense inputs use a cache-blocked transpose; sparse
// inputs build the transposed CSR via a counting pass.
func Transpose(m *MatrixBlock) *MatrixBlock {
	if m.IsSparse() {
		return transposeSparse(m)
	}
	out := NewDense(m.cols, m.rows)
	const blk = 64
	for rr := 0; rr < m.rows; rr += blk {
		rmax := min(rr+blk, m.rows)
		for cc := 0; cc < m.cols; cc += blk {
			cmax := min(cc+blk, m.cols)
			for r := rr; r < rmax; r++ {
				base := r * m.cols
				for c := cc; c < cmax; c++ {
					out.dense[c*m.rows+r] = m.dense[base+c]
				}
			}
		}
	}
	out.nnz = m.nnz
	return out
}

func transposeSparse(m *MatrixBlock) *MatrixBlock {
	s := m.csr()
	rows, cols := m.cols, m.rows // transposed dims
	counts := make([]int, rows+1)
	for _, c := range s.ColIdx {
		counts[c+1]++
	}
	for i := 1; i <= rows; i++ {
		counts[i] += counts[i-1]
	}
	rowPtr := counts
	colIdx := make([]int, len(s.ColIdx))
	values := make([]float64, len(s.Values))
	next := make([]int, rows)
	copy(next, rowPtr[:rows])
	for r := 0; r < s.RowsN; r++ {
		for p := s.RowPtr[r]; p < s.RowPtr[r+1]; p++ {
			c := s.ColIdx[p]
			pos := next[c]
			colIdx[pos] = r
			values[pos] = s.Values[p]
			next[c]++
		}
	}
	csr := &CSR{RowsN: rows, ColsN: cols, RowPtr: rowPtr, ColIdx: colIdx, Values: values}
	return &MatrixBlock{rows: rows, cols: cols, sparse: csr, nnz: csr.NNZ()}
}

// Diag implements DML diag semantics: for a column vector it returns a square
// diagonal matrix; for a square matrix it extracts the diagonal as a column
// vector. A diagonal matrix is built in the representation its non-zeros ask
// for (ExamineAndApplySparsity's rule): CSR from the vector's cells when
// under SparseThreshold, else dense, so no n x n array is zeroed and scanned
// to emit n cells.
func Diag(m *MatrixBlock) (*MatrixBlock, error) {
	if m.cols == 1 {
		n, k := m.rows, m.RangeNNZ(0, m.rows, 0, 1)
		if n > 0 && float64(k)/float64(int64(n)*int64(n)) < SparseThreshold {
			b := NewBuilder(n, n)
			for i := 0; i < n; i++ {
				b.Add(i, i, m.Get(i, 0))
			}
			return b.Build(), nil
		}
		out := NewDense(n, n)
		for i := 0; i < n; i++ {
			out.dense[i*n+i] = m.Get(i, 0)
		}
		out.nnz = k
		return out, nil
	}
	if m.rows == m.cols {
		out := NewDense(m.rows, 1)
		for i := 0; i < m.rows; i++ {
			out.dense[i] = m.Get(i, i)
		}
		out.RecomputeNNZ()
		return out, nil
	}
	return nil, fmt.Errorf("matrix: diag requires a vector or square matrix, got %dx%d", m.rows, m.cols)
}

// Reverse returns the matrix with its row order reversed (DML rev), dense; a
// sparse input's rows are read in place.
func Reverse(m *MatrixBlock) *MatrixBlock {
	out := NewDense(m.rows, m.cols)
	for r := 0; r < m.rows; r++ {
		m.CopyRow(out.dense[(m.rows-1-r)*m.cols:(m.rows-r)*m.cols], r, 0)
	}
	out.nnz = m.nnz
	return out
}

// CBind concatenates matrices horizontally (column binding). All inputs must
// have the same number of rows.
func CBind(ms ...*MatrixBlock) (*MatrixBlock, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("matrix: cbind requires at least one input")
	}
	rows := ms[0].rows
	totalCols := 0
	for _, m := range ms {
		if m.rows != rows {
			return nil, fmt.Errorf("matrix: cbind row mismatch %d vs %d", rows, m.rows)
		}
		totalCols += m.cols
	}
	out := NewDense(rows, totalCols)
	colOff := 0
	for _, m := range ms {
		switch {
		case m.sparse != nil:
			s := m.csr()
			for r := 0; r < rows; r++ {
				row := out.dense[r*totalCols+colOff:]
				for p := s.RowPtr[r]; p < s.RowPtr[r+1]; p++ {
					row[s.ColIdx[p]] = s.Values[p]
				}
			}
		case m.cols == 1:
			for r, v := range m.dense[:rows] {
				out.dense[r*totalCols+colOff] = v
			}
		default:
			for r := 0; r < rows; r++ {
				copy(out.dense[r*totalCols+colOff:r*totalCols+colOff+m.cols], m.dense[r*m.cols:(r+1)*m.cols])
			}
		}
		colOff += m.cols
	}
	out.RecomputeNNZ()
	out.ExamineAndApplySparsity()
	return out, nil
}

// RBind concatenates matrices vertically (row binding). All inputs must have
// the same number of columns.
func RBind(ms ...*MatrixBlock) (*MatrixBlock, error) {
	if len(ms) == 0 {
		return nil, fmt.Errorf("matrix: rbind requires at least one input")
	}
	cols := ms[0].cols
	totalRows := 0
	for _, m := range ms {
		if m.cols != cols {
			return nil, fmt.Errorf("matrix: rbind column mismatch %d vs %d", cols, m.cols)
		}
		totalRows += m.rows
	}
	out := NewDense(totalRows, cols)
	rowOff := 0
	for _, m := range ms {
		if m.sparse != nil {
			s := m.csr()
			for r := 0; r < m.rows; r++ {
				row := out.dense[(rowOff+r)*cols:]
				for p := s.RowPtr[r]; p < s.RowPtr[r+1]; p++ {
					row[s.ColIdx[p]] = s.Values[p]
				}
			}
		} else {
			copy(out.dense[rowOff*cols:(rowOff+m.rows)*cols], m.dense)
		}
		rowOff += m.rows
	}
	out.RecomputeNNZ()
	out.ExamineAndApplySparsity()
	return out, nil
}

// Slice returns the sub-matrix m[rl:ru, cl:cu] with 0-based inclusive lower
// and exclusive upper bounds. The non-zeros are counted in the pass that
// copies, each row while it is cache-hot, and the result is sparse exactly
// when its sparsity falls below SparseThreshold.
func Slice(m *MatrixBlock, rl, ru, cl, cu int) (*MatrixBlock, error) {
	if rl < 0 || ru > m.rows || cl < 0 || cu > m.cols || rl > ru || cl > cu {
		return nil, fmt.Errorf("matrix: slice [%d:%d,%d:%d] out of bounds for %dx%d", rl, ru, cl, cu, m.rows, m.cols)
	}
	rows, cols := ru-rl, cu-cl
	out := NewDense(rows, cols)
	var nnz int64
	if m.IsSparse() {
		s := m.csr()
		for r := rl; r < ru; r++ {
			lo, hi := s.RowPtr[r], s.RowPtr[r+1]
			start := lo + sort.SearchInts(s.ColIdx[lo:hi], cl)
			for p := start; p < hi && s.ColIdx[p] < cu; p++ {
				v := s.Values[p]
				out.dense[(r-rl)*cols+(s.ColIdx[p]-cl)] = v
				if v != 0 {
					nnz++
				}
			}
		}
	} else {
		for r := rl; r < ru; r++ {
			row := out.dense[(r-rl)*cols : (r-rl+1)*cols]
			copy(row, m.dense[r*m.cols+cl:r*m.cols+cu])
			for _, v := range row {
				if v != 0 {
					nnz++
				}
			}
		}
	}
	out.nnz = nnz
	out.ExamineAndApplySparsity()
	return out, nil
}

// LeftIndex returns a copy of target with the cells in [rl:ru, cl:cu)
// replaced by src. src must have shape (ru-rl) x (cu-cl).
func LeftIndex(target, src *MatrixBlock, rl, ru, cl, cu int) (*MatrixBlock, error) {
	if src.rows != ru-rl || src.cols != cu-cl {
		return nil, fmt.Errorf("matrix: left-index source %dx%d does not match range %dx%d", src.rows, src.cols, ru-rl, cu-cl)
	}
	return Update(target, []RegionWrite{{R0: rl, R1: ru, C0: cl, C1: cu, Src: src}}, false)
}

// RegionWrite is one write of a left-indexing update: the cells
// [R0:R1, C0:C1) of the target take the cells of Src that start at row SR,
// column SC.
type RegionWrite struct {
	R0, R1, C0, C1 int
	Src            *MatrixBlock
	SR, SC         int
}

// Update applies the writes in order to target. With inPlace set and a dense
// target it writes target's own array and returns target; otherwise it
// writes a dense copy, leaving target as it was. Either way the result is the
// same: its non-zero count follows from the written regions alone (a copy
// recounts in the pass that copies), and it is sparse exactly when its
// sparsity falls below SparseThreshold, like any kernel output.
func Update(target *MatrixBlock, writes []RegionWrite, inPlace bool) (*MatrixBlock, error) {
	for _, w := range writes {
		if w.R0 < 0 || w.R1 > target.rows || w.C0 < 0 || w.C1 > target.cols || w.R0 > w.R1 || w.C0 > w.C1 {
			return nil, fmt.Errorf("matrix: left-index [%d:%d,%d:%d] out of bounds for %dx%d", w.R0, w.R1, w.C0, w.C1, target.rows, target.cols)
		}
		if w.SR < 0 || w.SC < 0 || w.SR+w.R1-w.R0 > w.Src.rows || w.SC+w.C1-w.C0 > w.Src.cols {
			return nil, fmt.Errorf("matrix: left-index source %dx%d does not match range %dx%d", w.Src.rows, w.Src.cols, w.R1-w.R0, w.C1-w.C0)
		}
	}
	out := target
	if !inPlace || target.sparse != nil {
		out = target.Copy().ToDense()
		out.RecomputeNNZ()
	}
	for _, w := range writes {
		out.nnz -= out.RangeNNZ(w.R0, w.R1, w.C0, w.C1)
		out.writeRegion(w)
		out.nnz += out.RangeNNZ(w.R0, w.R1, w.C0, w.C1)
	}
	return out.ExamineAndApplySparsity(), nil
}

// writeRegion copies w's source cells into the dense block m.
func (m *MatrixBlock) writeRegion(w RegionWrite) {
	width := w.C1 - w.C0
	src := w.Src
	switch {
	case src.sparse != nil:
		for r := w.R0; r < w.R1; r++ {
			src.CopyRow(m.dense[r*m.cols+w.C0:r*m.cols+w.C1], w.SR+r-w.R0, w.SC)
		}
	case width == 1:
		for r := w.R0; r < w.R1; r++ {
			m.dense[r*m.cols+w.C0] = src.dense[(w.SR+r-w.R0)*src.cols+w.SC]
		}
	default:
		for r := w.R0; r < w.R1; r++ {
			s := (w.SR+r-w.R0)*src.cols + w.SC
			copy(m.dense[r*m.cols+w.C0:r*m.cols+w.C1], src.dense[s:s+width])
		}
	}
}

// RemoveEmpty removes empty (all-zero) rows or columns. margin must be
// "rows" or "cols".
func RemoveEmpty(m *MatrixBlock, margin string) (*MatrixBlock, error) {
	switch margin {
	case "rows":
		keep := make([]int, 0, m.rows)
		for r := 0; r < m.rows; r++ {
			empty := true
			for c := 0; c < m.cols && empty; c++ {
				if m.Get(r, c) != 0 {
					empty = false
				}
			}
			if !empty {
				keep = append(keep, r)
			}
		}
		out := NewDense(len(keep), m.cols)
		for i, r := range keep {
			for c := 0; c < m.cols; c++ {
				out.dense[i*m.cols+c] = m.Get(r, c)
			}
		}
		out.RecomputeNNZ()
		return out, nil
	case "cols":
		keep := make([]int, 0, m.cols)
		for c := 0; c < m.cols; c++ {
			empty := true
			for r := 0; r < m.rows && empty; r++ {
				if m.Get(r, c) != 0 {
					empty = false
				}
			}
			if !empty {
				keep = append(keep, c)
			}
		}
		out := NewDense(m.rows, len(keep))
		for r := 0; r < m.rows; r++ {
			for i, c := range keep {
				out.dense[r*len(keep)+i] = m.Get(r, c)
			}
		}
		out.RecomputeNNZ()
		return out, nil
	default:
		return nil, fmt.Errorf("matrix: removeEmpty margin must be rows or cols, got %q", margin)
	}
}

// Order sorts the rows of m by the values in column by (0-based), ascending
// or descending, and returns either the permuted matrix or the 1-based index
// permutation vector when indexReturn is true (DML order semantics).
func Order(m *MatrixBlock, by int, decreasing, indexReturn bool) (*MatrixBlock, error) {
	if by < 0 || by >= m.cols {
		return nil, fmt.Errorf("matrix: order by column %d out of bounds for %d columns", by, m.cols)
	}
	idx := make([]int, m.rows)
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(i, j int) bool {
		vi, vj := m.Get(idx[i], by), m.Get(idx[j], by)
		if decreasing {
			return vi > vj
		}
		return vi < vj
	})
	if indexReturn {
		out := NewDense(m.rows, 1)
		for i, r := range idx {
			out.dense[i] = float64(r + 1)
		}
		out.RecomputeNNZ()
		return out, nil
	}
	out := NewDense(m.rows, m.cols)
	for i, r := range idx {
		for c := 0; c < m.cols; c++ {
			out.dense[i*m.cols+c] = m.Get(r, c)
		}
	}
	out.RecomputeNNZ()
	return out, nil
}

// SelectRows returns the rows of m whose index appears in the 1-based index
// vector idx, in the given order.
func SelectRows(m *MatrixBlock, idx *MatrixBlock) (*MatrixBlock, error) {
	n := idx.rows * idx.cols
	out := NewDense(n, m.cols)
	pos := 0
	for r := 0; r < idx.rows; r++ {
		for c := 0; c < idx.cols; c++ {
			ri := int(idx.Get(r, c)) - 1
			if ri < 0 || ri >= m.rows {
				return nil, fmt.Errorf("matrix: row index %d out of bounds for %d rows", ri+1, m.rows)
			}
			for cc := 0; cc < m.cols; cc++ {
				out.dense[pos*m.cols+cc] = m.Get(ri, cc)
			}
			pos++
		}
	}
	out.RecomputeNNZ()
	return out, nil
}
