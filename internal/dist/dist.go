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

// FromMatrixBlock partitions a local matrix into a blocked matrix.
func FromMatrixBlock(m *matrix.MatrixBlock, blocksize int) (*BlockedMatrix, error) {
	sp := obs.Begin(obs.CatDist, "partition")
	bm, err := fromMatrixBlock(m, blocksize)
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.EndBytes(bm.InMemorySize())
	return bm, nil
}

func fromMatrixBlock(m *matrix.MatrixBlock, blocksize int) (*BlockedMatrix, error) {
	if blocksize <= 0 {
		return nil, fmt.Errorf("dist: invalid blocksize %d", blocksize)
	}
	bm := &BlockedMatrix{Rows: m.Rows(), Cols: m.Cols(), Blocksize: blocksize}
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
// matching row slice of the right operand independently — the map-side
// broadcast join of the paper's data-parallel backend.
func MatMult(a *BlockedMatrix, b *matrix.MatrixBlock, threads int) (*BlockedMatrix, error) {
	if a.Cols != b.Rows() {
		return nil, fmt.Errorf("dist: matmult dimension mismatch %dx%d %%*%% %dx%d",
			a.Rows, a.Cols, b.Rows(), b.Cols())
	}
	out := &BlockedMatrix{Rows: a.Rows, Cols: b.Cols(), Blocksize: a.Blocksize}
	gr, agc, ogc := a.GridRows(), a.GridCols(), out.GridCols()
	out.Blocks = make([]*matrix.MatrixBlock, gr*ogc)
	err := forEachBlock("mm-broadcast", gr, 1, threads, func(bi, _ int) error {
		// accumulate the full output strip for block-row bi
		var strip *matrix.MatrixBlock
		for bk := 0; bk < agc; bk++ {
			left := a.Blocks[bi*agc+bk]
			bSlice, err := matrix.Slice(b, bk*a.Blocksize, bk*a.Blocksize+left.Cols(), 0, b.Cols())
			if err != nil {
				return err
			}
			part, err := matrix.Multiply(left, bSlice, 1)
			if err != nil {
				return err
			}
			if strip == nil {
				strip = part
			} else if strip, err = matrix.CellwiseOp(strip, part, matrix.OpAdd, 1); err != nil {
				return err
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
