// Package dist implements the blocked "distributed" matrix backend of
// SystemDS-Go (Section 2.3): large matrices are partitioned into a grid of
// squared blocks and operations are executed block-wise over a local worker
// pool, mirroring the data-parallel Spark backend of SystemDS at the level of
// one machine. The compiler selects this backend for operators whose memory
// estimate exceeds the per-operator budget.
package dist

import (
	"fmt"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/obs"
)

// BlockedMatrix is a matrix partitioned into a grid of blocks of size
// Blocksize x Blocksize (boundary blocks are smaller). Blocks are stored
// row-major by grid coordinate.
type BlockedMatrix struct {
	Rows, Cols int
	Blocksize  int
	// Blocks[bi*GridCols()+bj] holds the block covering rows
	// [bi*Blocksize, min((bi+1)*Blocksize, Rows)) and the analogous columns.
	Blocks []*matrix.MatrixBlock
	// View is the local block whose array the Blocks are row-strip views of
	// (FromMatrixBlock on a dense block with one column block), or nil when
	// the blocks own their memory. Views hold no bytes of their own: they
	// live exactly as long as View's array, which nothing writes in place or
	// recycles once partitioned (View was claimed).
	View *matrix.MatrixBlock
	// Shared lists, once each, the arrays the Blocks live in when they are
	// the inputs' own, taken by reference by a block-aligned RBind or CBind;
	// nil when each block is its own array or a view of View's.
	Shared []*matrix.MatrixBlock
}

// GridRows returns the number of block rows.
func (b *BlockedMatrix) GridRows() int { return ceilDiv(b.Rows, b.Blocksize) }

// GridCols returns the number of block columns.
func (b *BlockedMatrix) GridCols() int { return ceilDiv(b.Cols, b.Blocksize) }

// Block returns the block at grid coordinate (bi, bj).
func (b *BlockedMatrix) Block(bi, bj int) *matrix.MatrixBlock {
	return b.Blocks[bi*b.GridCols()+bj]
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// FromMatrixBlock partitions a local matrix into a blocked matrix. A dense
// matrix whose grid has one column block is cut into row strips that are
// views of its own array (see rowStripViews); any other matrix is copied
// block by block. The "partition" span carries the bytes copied, 0 for views.
func FromMatrixBlock(m *matrix.MatrixBlock, blocksize int) (*BlockedMatrix, error) {
	sp := obs.Begin(obs.CatDist, "partition")
	bm, err := fromMatrixBlock(m, blocksize)
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.EndBytes(bm.OwnedSize())
	return bm, nil
}

func fromMatrixBlock(m *matrix.MatrixBlock, blocksize int) (*BlockedMatrix, error) {
	if blocksize <= 0 {
		return nil, fmt.Errorf("dist: invalid blocksize %d", blocksize)
	}
	bm := &BlockedMatrix{Rows: m.Rows(), Cols: m.Cols(), Blocksize: blocksize}
	if strips := rowStripViews(m, blocksize); strips != nil {
		m.Claim() // the views are handles: nothing may write or recycle m's array
		bm.Blocks, bm.View = strips, m
		return bm, nil
	}
	gr, gc := bm.GridRows(), bm.GridCols()
	bm.Blocks = make([]*matrix.MatrixBlock, gr*gc)
	for bi := 0; bi < gr; bi++ {
		for bj := 0; bj < gc; bj++ {
			rl, ru := bi*blocksize, min(bi*blocksize+blocksize, m.Rows())
			cl, cu := bj*blocksize, min(bj*blocksize+blocksize, m.Cols())
			blk, err := matrix.Slice(m, rl, ru, cl, cu)
			if err != nil {
				return nil, fmt.Errorf("dist: partition block (%d,%d): %w", bi, bj, err)
			}
			bm.Blocks[bi*gc+bj] = blk
		}
	}
	return bm, nil
}

// rowStripViews returns the blocks of a dense m whose grid has one column
// block as views of m's row-major array, one strip per block row — no copy,
// no zeroing, and no recount when m is full (a strip's non-zeros are then
// its cells; else each strip is counted once, read-only). It returns nil,
// and the partition copies, when m is sparse, has no cells, spans more than
// one column block, or a strip would fall under matrix.SparseThreshold:
// Slice would make that strip sparse, and the representations must be the
// copying path's. Each view's capacity ends at its last cell, so an append
// to one can never write the next.
func rowStripViews(m *matrix.MatrixBlock, blocksize int) []*matrix.MatrixBlock {
	rows, cols := m.Rows(), m.Cols()
	if m.IsSparse() || rows == 0 || cols == 0 || cols > blocksize {
		return nil
	}
	vals := m.DenseValues()
	full := m.NNZ() == int64(rows)*int64(cols)
	strips := make([]*matrix.MatrixBlock, ceilDiv(rows, blocksize))
	for bi := range strips {
		rl, ru := bi*blocksize, min(bi*blocksize+blocksize, rows)
		nnz := int64(ru-rl) * int64(cols)
		if !full {
			nnz = m.RangeNNZ(rl, ru, 0, cols)
		}
		s := matrix.NewDenseCounted(ru-rl, cols, vals[rl*cols:ru*cols:ru*cols], nnz)
		if s.Sparsity() < matrix.SparseThreshold {
			return nil
		}
		strips[bi] = s
	}
	return strips
}

// ToMatrixBlock collects the blocked matrix into one local matrix: every
// block is written into the one output in place, which then takes the
// representation its non-zero count asks for, like any kernel output.
func (b *BlockedMatrix) ToMatrixBlock() (*matrix.MatrixBlock, error) {
	gc := b.GridCols()
	writes := make([]matrix.RegionWrite, len(b.Blocks))
	for i, blk := range b.Blocks {
		bi, bj := i/gc, i%gc
		if blk == nil {
			return nil, fmt.Errorf("dist: missing block (%d,%d)", bi, bj)
		}
		rl, cl := bi*b.Blocksize, bj*b.Blocksize
		writes[i] = matrix.RegionWrite{R0: rl, R1: rl + blk.Rows(), C0: cl, C1: cl + blk.Cols(), Src: blk}
	}
	return matrix.Update(matrix.NewDense(b.Rows, b.Cols), writes, true)
}

// Region assembles the sub-matrix covering rows [rl, ru) and columns
// [cl, cu) by stitching together the slices of the covering blocks, without
// collecting the whole matrix.
func (b *BlockedMatrix) Region(rl, ru, cl, cu int) (*matrix.MatrixBlock, error) {
	if rl < 0 || ru > b.Rows || cl < 0 || cu > b.Cols || rl >= ru || cl >= cu {
		return nil, fmt.Errorf("dist: region [%d:%d,%d:%d] out of bounds for %dx%d", rl, ru, cl, cu, b.Rows, b.Cols)
	}
	out := matrix.NewDense(ru-rl, cu-cl)
	gc := b.GridCols()
	for bi := rl / b.Blocksize; bi <= (ru-1)/b.Blocksize; bi++ {
		for bj := cl / b.Blocksize; bj <= (cu-1)/b.Blocksize; bj++ {
			blk := b.Blocks[bi*gc+bj]
			if blk == nil {
				return nil, fmt.Errorf("dist: missing block (%d,%d)", bi, bj)
			}
			// overlap of the block with the requested region, in global
			// coords; cells are written straight into the dense output
			r0, r1 := max(rl, bi*b.Blocksize), min(ru, bi*b.Blocksize+blk.Rows())
			c0, c1 := max(cl, bj*b.Blocksize), min(cu, bj*b.Blocksize+blk.Cols())
			for r := r0; r < r1; r++ {
				for c := c0; c < c1; c++ {
					out.Set(r-rl, c-cl, blk.Get(r-bi*b.Blocksize, c-bj*b.Blocksize))
				}
			}
		}
	}
	return out, nil
}

// forEachBlock runs fn for every grid coordinate, row-major, through
// matrix.ParallelFor, recording each block task as a "dist" span named by op:
// no block is started after one has failed, and the error is that of the
// first failed block in row-major order. workers is the pool width —
// deliberately not a kernel thread count: the blocked backend parallelizes
// across blocks (workers <= 0 means one worker per CPU) while the kernels it
// invokes run single-threaded under the inner-pool contract.
func forEachBlock(op string, gridRows, gridCols, workers int, fn func(bi, bj int) error) error {
	if workers <= 0 {
		workers = matrix.DefaultParallelism()
	}
	return matrix.ParallelFor(gridRows*gridCols, workers, func(_, t int) error {
		sp := obs.Begin(obs.CatDist, op)
		defer sp.End()
		return fn(t/gridCols, t%gridCols)
	})
}

// Cellwise applies an element-wise binary operation over two aligned blocked
// matrices block by block on `threads` workers.
func Cellwise(a, b *BlockedMatrix, op matrix.BinaryOp, threads int) (*BlockedMatrix, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.Blocksize != b.Blocksize {
		return nil, fmt.Errorf("dist: cellwise dimension mismatch %dx%d/%d vs %dx%d/%d",
			a.Rows, a.Cols, a.Blocksize, b.Rows, b.Cols, b.Blocksize)
	}
	out := &BlockedMatrix{Rows: a.Rows, Cols: a.Cols, Blocksize: a.Blocksize,
		Blocks: make([]*matrix.MatrixBlock, len(a.Blocks))}
	gc := a.GridCols()
	err := forEachBlock("cellwise", a.GridRows(), gc, threads, func(bi, bj int) error {
		res, err := matrix.CellwiseOp(a.Blocks[bi*gc+bj], b.Blocks[bi*gc+bj], op, 1)
		if err != nil {
			return err
		}
		out.Blocks[bi*gc+bj] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// CellwiseVector applies an element-wise binary operation between a blocked
// matrix and a broadcast row or column vector: each block combines with the
// matching slice of the vector, so cellwise pipelines with vector leaves stay
// blocked instead of collecting the blocked operand. swap places the vector
// on the left-hand side of the operator.
func CellwiseVector(a *BlockedMatrix, v *matrix.MatrixBlock, op matrix.BinaryOp, swap bool, threads int) (*BlockedMatrix, error) {
	colVec := v.Cols() == 1 && v.Rows() == a.Rows
	rowVec := v.Rows() == 1 && v.Cols() == a.Cols
	if !colVec && !rowVec {
		return nil, fmt.Errorf("dist: cellwise vector %dx%d does not broadcast against %dx%d",
			v.Rows(), v.Cols(), a.Rows, a.Cols)
	}
	out := &BlockedMatrix{Rows: a.Rows, Cols: a.Cols, Blocksize: a.Blocksize,
		Blocks: make([]*matrix.MatrixBlock, len(a.Blocks))}
	gr, gc := a.GridRows(), a.GridCols()
	// the vector segment is shared by every block of a strip; slice once per
	// block row (column vector) or block column (row vector), not per block
	nseg := gr
	if rowVec {
		nseg = gc
	}
	segs := make([]*matrix.MatrixBlock, nseg)
	for i := range segs {
		lo := i * a.Blocksize
		var err error
		if colVec {
			segs[i], err = matrix.Slice(v, lo, min(lo+a.Blocksize, a.Rows), 0, 1)
		} else {
			segs[i], err = matrix.Slice(v, 0, 1, lo, min(lo+a.Blocksize, a.Cols))
		}
		if err != nil {
			return nil, err
		}
	}
	err := forEachBlock("cellwise-vector", gr, gc, threads, func(bi, bj int) error {
		blk := a.Blocks[bi*gc+bj]
		var seg *matrix.MatrixBlock
		if rowVec {
			seg = segs[bj]
		} else {
			seg = segs[bi]
		}
		var res *matrix.MatrixBlock
		var err error
		if swap {
			res, err = matrix.CellwiseOp(seg, blk, op, 1)
		} else {
			res, err = matrix.CellwiseOp(blk, seg, op, 1)
		}
		if err != nil {
			return err
		}
		out.Blocks[bi*gc+bj] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MatMult multiplies a blocked left operand with a local (broadcast) right
// operand: every block-row strip of the left input is multiplied with the
// matching row slices of the right operand independently — the map-side
// broadcast join of the paper's data-parallel backend. A grid with one
// column block multiplies each strip by b itself; a wider one accumulates
// the column blocks into one strip with matrix.MultiplyAcc in ascending k,
// as MatMultShuffle does. Either way every output cell adds its products in
// the order of the local multiply, so the result has matrix.Multiply's bits
// for finite inputs.
func MatMult(a *BlockedMatrix, b *matrix.MatrixBlock, threads int) (*BlockedMatrix, error) {
	if a.Cols != b.Rows() {
		return nil, fmt.Errorf("dist: matmult dimension mismatch %dx%d %%*%% %dx%d",
			a.Rows, a.Cols, b.Rows(), b.Cols())
	}
	out := &BlockedMatrix{Rows: a.Rows, Cols: b.Cols(), Blocksize: a.Blocksize}
	gr, agc, ogc := a.GridRows(), a.GridCols(), out.GridCols()
	out.Blocks = make([]*matrix.MatrixBlock, gr*ogc)
	// the k-stripes of the broadcast operand are shared by every block row;
	// slice them once, and not at all when one stripe is all of b
	var bSlices []*matrix.MatrixBlock
	if agc > 1 {
		bSlices = make([]*matrix.MatrixBlock, agc)
		for bk := range bSlices {
			s, err := matrix.Slice(b, bk*a.Blocksize, min(bk*a.Blocksize+a.Blocksize, b.Rows()), 0, b.Cols())
			if err != nil {
				return nil, err
			}
			bSlices[bk] = s
		}
	}
	err := forEachBlock("mm-broadcast", gr, 1, threads, func(bi, _ int) error {
		var strip *matrix.MatrixBlock
		var err error
		if agc == 1 {
			if strip, err = matrix.Multiply(a.Blocks[bi], b, 1); err != nil {
				return err
			}
		} else {
			strip = matrix.NewDense(a.Blocks[bi*agc].Rows(), b.Cols())
			for bk := 0; bk < agc; bk++ {
				if err := matrix.MultiplyAcc(strip, a.Blocks[bi*agc+bk], bSlices[bk], 1); err != nil {
					return err
				}
			}
		}
		// split the strip into output blocks
		for bj := 0; bj < ogc; bj++ {
			cl, cu := bj*out.Blocksize, min(bj*out.Blocksize+out.Blocksize, out.Cols)
			blk, err := matrix.Slice(strip, 0, strip.Rows(), cl, cu)
			if err != nil {
				return err
			}
			out.Blocks[bi*ogc+bj] = blk
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// TSMM computes t(X) %*% X over a blocked input: per-strip partial Gram
// matrices t(X_i) %*% X_i are computed in parallel and summed (the
// aggregation tree of the distributed backend), returning a local result
// because the output is only cols x cols.
func TSMM(x *BlockedMatrix, threads int) (*matrix.MatrixBlock, error) {
	gr, gc := x.GridRows(), x.GridCols()
	partials := make([]*matrix.MatrixBlock, gr)
	err := forEachBlock("tsmm", gr, 1, threads, func(bi, _ int) error {
		// reassemble the block-row strip (cheap: gc is small for tall-skinny
		// inputs, the common TSMM shape)
		strip := x.Blocks[bi*gc]
		var err error
		if gc > 1 {
			row := make([]*matrix.MatrixBlock, gc)
			copy(row, x.Blocks[bi*gc:(bi+1)*gc])
			strip, err = matrix.CBind(row...)
			if err != nil {
				return err
			}
		}
		partials[bi] = matrix.TSMM(strip, 1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := partials[0]
	for i := 1; i < gr; i++ {
		out, err = matrix.CellwiseOp(out, partials[i], matrix.OpAdd, 1)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
