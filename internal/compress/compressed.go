package compress

import (
	"fmt"

	"github.com/systemds/systemds-go/internal/matrix"
)

// CompressedMatrix is a matrix stored as a set of compressed column groups.
// Every column of the matrix belongs to exactly one group and every group
// covers all rows, so kernels iterate groups independently and combine by
// global row/column index. The representation is immutable, like
// matrix.MatrixBlock results: kernels always build new objects.
type CompressedMatrix struct {
	NumRows, NumCols int
	Groups           []ColGroup
}

// Rows returns the number of rows.
func (c *CompressedMatrix) Rows() int { return c.NumRows }

// Cols returns the number of columns.
func (c *CompressedMatrix) Cols() int { return c.NumCols }

// NNZ returns the exact number of non-zero cells.
func (c *CompressedMatrix) NNZ() int64 {
	var nnz int64
	for _, g := range c.Groups {
		nnz += g.NNZ()
	}
	return nnz
}

// InMemorySize estimates the in-memory footprint in bytes.
func (c *CompressedMatrix) InMemorySize() int64 {
	s := int64(64)
	for _, g := range c.Groups {
		s += g.InMemorySize()
	}
	return s
}

// String renders the compressed matrix for debugging.
func (c *CompressedMatrix) String() string {
	return fmt.Sprintf("CompressedMatrix[%dx%d, %d groups, %dB]",
		c.NumRows, c.NumCols, len(c.Groups), c.InMemorySize())
}

// EncodingSummary renders the per-encoding group counts
// ("ddc=3,rle=1,sdc=0,cc=0,unc=1") — the group-type histogram used in plan
// records and tests.
func (c *CompressedMatrix) EncodingSummary() string {
	var ddc, rle, sdc, cc, unc int
	for _, g := range c.Groups {
		switch g.Encoding() {
		case EncDDC:
			ddc++
		case EncRLE:
			rle++
		case EncSDC:
			sdc++
		case EncCoCoded:
			cc++
		default:
			unc++
		}
	}
	return fmt.Sprintf("ddc=%d,rle=%d,sdc=%d,cc=%d,unc=%d", ddc, rle, sdc, cc, unc)
}

// Decompress materializes the compressed matrix into a plain matrix block
// (the transparent fallback for operators without a compressed kernel).
func (c *CompressedMatrix) Decompress() *matrix.MatrixBlock {
	out := matrix.NewDense(c.NumRows, c.NumCols)
	dst := out.DenseValues()
	for _, g := range c.Groups {
		g.DecompressInto(dst, c.NumCols, 0, c.NumRows)
	}
	out.RecomputeNNZ()
	return out.ExamineAndApplySparsity()
}

// --- deterministic fixed-chunk row partitioning ------------------------------

const (
	// compressedChunkRows is the target rows per parallel chunk. Boundaries
	// depend only on the row count, and every output row is written by exactly
	// one chunk, so results are bitwise identical across thread counts.
	compressedChunkRows = 1024
)

// rowChunks derives the fixed chunking of the row range: chunk size and count
// are functions of the row count alone, never of the thread count.
func rowChunks(rows int) (nChunks, chunkSize int) {
	if rows <= compressedChunkRows {
		return 1, rows
	}
	nChunks = (rows + compressedChunkRows - 1) / compressedChunkRows
	return nChunks, compressedChunkRows
}

// forEachRowChunk runs fn over the fixed row chunks on up to `threads`
// workers. Chunks own disjoint row ranges, so no synchronization of the
// output is needed.
func forEachRowChunk(rows, threads int, fn func(r0, r1 int)) {
	nChunks, chunkSize := rowChunks(rows)
	_ = matrix.ParallelFor(nChunks, threads, func(_, ci int) error {
		fn(ci*chunkSize, min(ci*chunkSize+chunkSize, rows))
		return nil
	})
}

// forEachIndex runs fn over indexes [0, n) on up to `threads` workers. Work
// items must write disjoint outputs; the index set (and therefore the work
// decomposition) depends only on n, never on the thread count.
func forEachIndex(n, threads int, fn func(i int)) {
	_ = matrix.ParallelFor(n, threads, func(_, i int) error {
		fn(i)
		return nil
	})
}

// forEachGroup runs fn over the column groups on up to `threads` workers.
// Groups cover disjoint columns, so group-indexed outputs need no locking.
func forEachGroup(groups []ColGroup, threads int, fn func(i int, g ColGroup)) {
	forEachIndex(len(groups), threads, func(i int) { fn(i, groups[i]) })
}

// MatVec computes the matrix-vector product c %*% v directly on the
// compressed representation: per group, the dictionary (or run values) is
// pre-scaled by the vector entry once, then rows gather by code — the CLA
// pre-aggregation that touches the small encoded data instead of the dense
// cells. The result is an m x 1 dense block.
func (c *CompressedMatrix) MatVec(v *matrix.MatrixBlock, threads int) (*matrix.MatrixBlock, error) {
	if v.Rows() != c.NumCols || v.Cols() != 1 {
		return nil, fmt.Errorf("compress: matvec vector is %dx%d, want %dx1", v.Rows(), v.Cols(), c.NumCols)
	}
	vd := denseVector(v)
	out := matrix.NewDense(c.NumRows, 1)
	dst := out.DenseValues()
	// the largest dictionary bounds the pre-scaling scratch one chunk needs,
	// so each chunk allocates one buffer for all of its groups
	maxDict := c.maxPreScaleSlots()
	// rows are partitioned into fixed chunks; within a chunk, groups are
	// accumulated in group order, so the summation order per output row is
	// independent of the thread count
	forEachRowChunk(c.NumRows, threads, func(r0, r1 int) {
		seg := dst[r0:r1]
		scratch := make([]float64, maxDict)
		for _, g := range c.Groups {
			g.MatVecAccum(seg, vd, r0, r1, scratch)
		}
	})
	out.RecomputeNNZ()
	return out, nil
}

// VecMat computes the vector-matrix product v %*% c directly on the
// compressed representation: per group, the vector entries are aggregated by
// dictionary code (or run) first, then combined with the values once. The
// result is a 1 x n dense block. Groups cover disjoint output columns, so the
// group-parallel execution is deterministic.
func (c *CompressedMatrix) VecMat(v *matrix.MatrixBlock, threads int) (*matrix.MatrixBlock, error) {
	if v.Rows() != 1 || v.Cols() != c.NumRows {
		return nil, fmt.Errorf("compress: vecmat vector is %dx%d, want 1x%d", v.Rows(), v.Cols(), c.NumRows)
	}
	vd := denseVector(v)
	out := matrix.NewDense(1, c.NumCols)
	dst := out.DenseValues()
	forEachGroup(c.Groups, threads, func(_ int, g ColGroup) {
		g.VecMatAccum(dst, vd)
	})
	out.RecomputeNNZ()
	return out, nil
}

// MapValues applies fn to every cell and returns a new compressed matrix: fn
// maps a row of values src into dst and must be safe for concurrent calls.
// Encoding structure (codes, run positions) is shared with the receiver; only
// the value dictionaries are rewritten — scalar operations, cellwise unaries
// and fused cellwise chains over compressed data and scalars are
// dictionary-only updates (matrix.CellMap builds fn from a cell program).
func (c *CompressedMatrix) MapValues(fn func(dst, src []float64), threads int) *CompressedMatrix {
	out := &CompressedMatrix{NumRows: c.NumRows, NumCols: c.NumCols, Groups: make([]ColGroup, len(c.Groups))}
	forEachGroup(c.Groups, threads, func(i int, g ColGroup) {
		out.Groups[i] = g.MapValues(fn)
	})
	return out
}

// Sum returns the sum of all cells (dictionary-weighted counts; no cell scan).
func (c *CompressedMatrix) Sum() float64 {
	var s float64
	for _, g := range c.Groups {
		s += g.Sum()
	}
	return s
}

// Aggregate runs a row of the aggregate table on the column groups, without
// decompressing, where the row's reduction and axis have a kernel here: sums
// over the matrix, its rows or its columns (dictionary-weighted counts, so
// within rounding of the local rung, not bitwise), the full min and max (each
// group's values folded by the row's rule, so a NaN is never kept) and nnz.
// A mean is finished like any rung's. ok is false for every other row, which
// runs on the decompressed matrix.
func (c *CompressedMatrix) Aggregate(agg *matrix.Aggregate, threads int) (v float64, vec *matrix.MatrixBlock, ok bool) {
	switch red := agg.Red; {
	case agg.Axis == matrix.AggFull && red == matrix.ReduceSum:
		v = c.Sum()
	case agg.Axis == matrix.AggRow && red == matrix.ReduceSum:
		vec = c.RowSums(threads)
	case agg.Axis == matrix.AggCol && red == matrix.ReduceSum:
		vec = c.ColSums()
	case agg.Axis == matrix.AggFull && (red == matrix.ReduceMin || red == matrix.ReduceMax):
		v = red.Initial()
		for _, g := range c.Groups {
			v = g.Fold(red, v)
		}
	case agg.Axis == matrix.AggFull && red == matrix.ReduceNNZ:
		v = float64(c.NNZ())
	default:
		return 0, nil, false
	}
	return agg.Finish(v, vec, c.NumRows, c.NumCols), vec, true
}

// ColSums returns the per-column sums as a 1 x n block.
func (c *CompressedMatrix) ColSums() *matrix.MatrixBlock {
	out := matrix.NewDense(1, c.NumCols)
	dst := out.DenseValues()
	for _, g := range c.Groups {
		g.ColSumsInto(dst)
	}
	out.RecomputeNNZ()
	return out
}

// RowSums returns the per-row sums as an m x 1 block.
func (c *CompressedMatrix) RowSums(threads int) *matrix.MatrixBlock {
	out := matrix.NewDense(c.NumRows, 1)
	dst := out.DenseValues()
	forEachRowChunk(c.NumRows, threads, func(r0, r1 int) {
		seg := dst[r0:r1]
		for _, g := range c.Groups {
			g.RowSumsAccum(seg, r0, r1)
		}
	})
	out.RecomputeNNZ()
	return out
}

// preScaleSlots returns the number of pre-scaled-dictionary scratch slots a
// group's MatVecAccum needs (0 for groups that take no scratch).
func preScaleSlots(g ColGroup) int {
	switch t := g.(type) {
	case *DDCGroup:
		return t.numVals()
	case *SDCGroup:
		return len(t.Dict)
	}
	return 0
}

// maxPreScaleSlots returns the largest pre-scaling scratch any group needs,
// so per-chunk workers can size one buffer for all groups.
func (c *CompressedMatrix) maxPreScaleSlots() int {
	m := 0
	for _, g := range c.Groups {
		if s := preScaleSlots(g); s > m {
			m = s
		}
	}
	return m
}

// denseVector returns the dense values of a vector block without mutating the
// caller's representation.
func denseVector(v *matrix.MatrixBlock) []float64 {
	if !v.IsSparse() {
		return v.DenseValues()
	}
	return v.Copy().DenseValues()
}
