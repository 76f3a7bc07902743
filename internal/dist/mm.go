package dist

import (
	"fmt"

	"github.com/systemds/systemds-go/internal/matrix"
)

// MatMultBL multiplies a local (broadcast) left operand with a blocked right
// operand: every block-column strip of the right input is multiplied with the
// matching column slice of the left operand independently — the mirror image
// of the broadcast-right join in MatMult, chosen by the planner when only the
// left operand fits the broadcast budget.
func MatMultBL(a *matrix.MatrixBlock, b *BlockedMatrix, threads int) (*BlockedMatrix, error) {
	if a.Cols() != b.Rows {
		return nil, fmt.Errorf("dist: matmult dimension mismatch %dx%d %%*%% %dx%d",
			a.Rows(), a.Cols(), b.Rows, b.Cols)
	}
	out := &BlockedMatrix{Rows: a.Rows(), Cols: b.Cols, Blocksize: b.Blocksize}
	grOut, gcOut := out.GridRows(), out.GridCols()
	bgr, bgc := b.GridRows(), b.GridCols()
	out.Blocks = make([]*matrix.MatrixBlock, grOut*gcOut)
	// the k-stripe slices of the broadcast operand are shared by every output
	// block column; slice them once instead of once per (bj, bk) pair
	aSlices := make([]*matrix.MatrixBlock, bgr)
	for bk := 0; bk < bgr; bk++ {
		cl := bk * b.Blocksize
		cu := min(cl+b.Blocksize, b.Rows)
		s, err := matrix.Slice(a, 0, a.Rows(), cl, cu)
		if err != nil {
			return nil, err
		}
		aSlices[bk] = s
	}
	// one dense strip per output block-column, accumulated in place across
	// the k-stripes; narrow outputs (few block columns) hand the spare
	// parallelism to the accumulate kernel instead
	inner := max(1, threads/gcOut)
	err := forEachBlock("mm-broadcast-left", 1, gcOut, threads, func(_, bj int) error {
		width := min(out.Blocksize, out.Cols-bj*out.Blocksize)
		strip := matrix.NewDense(a.Rows(), width)
		for bk := 0; bk < bgr; bk++ {
			if err := matrix.MultiplyAcc(strip, aSlices[bk], b.Blocks[bk*bgc+bj], inner); err != nil {
				return err
			}
		}
		// split the strip into output blocks
		for bi := 0; bi < grOut; bi++ {
			rl, ru := bi*out.Blocksize, min(bi*out.Blocksize+out.Blocksize, out.Rows)
			blk, err := matrix.Slice(strip, rl, ru, 0, strip.Cols())
			if err != nil {
				return err
			}
			out.Blocks[bi*gcOut+bj] = blk
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MatMultShuffle multiplies two blocked operands with a shuffle-style split
// over the common dimension: the k-stripes are processed one stage at a time,
// each stage joining the co-partitioned block column k of the left input with
// block row k of the right input and accumulating the partial products into
// the output blocks — the cross-product (cpmm-style) join the planner picks
// when both operands exceed the broadcast budget and the output is small
// relative to the replicated grid-join reads. Stages run in ascending stripe
// order and accumulate with matrix.MultiplyAcc, so the result is bitwise
// identical to the local dense multiplication.
func MatMultShuffle(a, b *BlockedMatrix, threads int) (*BlockedMatrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("dist: matmult dimension mismatch %dx%d %%*%% %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if a.Blocksize != b.Blocksize {
		return nil, fmt.Errorf("dist: matmult blocksize mismatch %d vs %d", a.Blocksize, b.Blocksize)
	}
	out := &BlockedMatrix{Rows: a.Rows, Cols: b.Cols, Blocksize: a.Blocksize}
	gr, gc := out.GridRows(), out.GridCols()
	agc, bgc := a.GridCols(), b.GridCols()
	out.Blocks = make([]*matrix.MatrixBlock, gr*gc)
	err := forEachBlock("mm-shuffle", gr, gc, threads, func(bi, bj int) error {
		rows := min(out.Blocksize, out.Rows-bi*out.Blocksize)
		cols := min(out.Blocksize, out.Cols-bj*out.Blocksize)
		out.Blocks[bi*gc+bj] = matrix.NewDense(rows, cols)
		return nil
	})
	if err != nil {
		return nil, err
	}
	for bk := 0; bk < agc; bk++ {
		err := forEachBlock("mm-shuffle", gr, gc, threads, func(bi, bj int) error {
			return matrix.MultiplyAcc(out.Blocks[bi*gc+bj], a.Blocks[bi*agc+bk], b.Blocks[bk*bgc+bj], 1)
		})
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// InMemorySize returns the total in-memory bytes of all blocks (the "actual
// bytes" side of the planner's estimated-vs-actual plan statistics).
func (b *BlockedMatrix) InMemorySize() int64 {
	var total int64
	for _, blk := range b.Blocks {
		if blk != nil {
			total += blk.InMemorySize()
		}
	}
	return total
}

// OwnedSize returns the bytes the blocks hold of their own: InMemorySize,
// or 0 for row-strip views, whose bytes are their View's.
func (b *BlockedMatrix) OwnedSize() int64 {
	if b.View != nil {
		return 0
	}
	return b.InMemorySize()
}

// EachArray calls fn once for every array the blocks live in: View for
// row-strip views, the inputs' arrays for a concatenation that shares them
// (Shared), otherwise each block.
func (b *BlockedMatrix) EachArray(fn func(*matrix.MatrixBlock)) {
	switch {
	case b.View != nil:
		fn(b.View)
	case b.Shared != nil:
		for _, a := range b.Shared {
			fn(a)
		}
	default:
		for _, blk := range b.Blocks {
			if blk != nil {
				fn(blk)
			}
		}
	}
}

// ArraysSize returns the bytes of the arrays the blocks live in, each
// counted once (EachArray): what holding the blocks keeps in memory.
func (b *BlockedMatrix) ArraysSize() int64 {
	var total int64
	b.EachArray(func(a *matrix.MatrixBlock) { total += a.InMemorySize() })
	return total
}

// XtY computes t(X) %*% Y over a blocked X without transposing it, for a
// local Y (y) or a blocked one (by); the other is nil. It walks the fixed row
// chunks of matrix.TransposeMultiply's row-scatter leg (matrix.XtYChunks) over
// global rows, one task per chunk: a chunk may cross block boundaries, and it
// scatters from every block that covers it, in row order, into one n x k
// partial. The partials are summed in chunk order (matrix.XtYSum), so the
// result has the bits of the row-scatter leg over the collected X. Y is read
// by row range — a local Y sliced, a blocked Y block by block — and never
// collected; the small n x k result is local, as TSMM's is.
func XtY(x *BlockedMatrix, y *matrix.MatrixBlock, by *BlockedMatrix, threads int) (*matrix.MatrixBlock, error) {
	m, n := x.Rows, x.Cols
	var yRows, k int
	if by != nil {
		yRows, k = by.Rows, by.Cols
	} else {
		yRows, k = y.Rows(), y.Cols()
	}
	if yRows != m {
		return nil, fmt.Errorf("dist: xty dimension mismatch t(%dx%d) %%*%% %dx%d", m, n, yRows, k)
	}
	if m == 0 || n == 0 || k == 0 {
		return matrix.NewDense(n, k), nil
	}
	// the rows of Y beside each block row of X, k values per row
	bs, gr, gc := x.Blocksize, x.GridRows(), x.GridCols()
	strips := make([][]float64, gr)
	var yd []float64
	if by == nil {
		if y.IsSparse() {
			y = y.Copy()
		}
		yd = y.DenseValues()
	}
	for bi := range strips {
		rl, ru := bi*bs, min(bi*bs+bs, m)
		if by == nil {
			strips[bi] = yd[rl*k : ru*k]
			continue
		}
		s, err := by.rowStrip(rl, ru)
		if err != nil {
			return nil, err
		}
		strips[bi] = s
	}
	num, size := matrix.XtYChunks(m, n, k)
	parts := make([][]float64, num)
	err := forEachBlock("xty", num, 1, threads, func(ci, _ int) error {
		r0, r1 := ci*size, min(ci*size+size, m)
		part := make([]float64, n*k)
		for bi := r0 / bs; bi*bs < r1; bi++ {
			rl := bi * bs
			lo, hi := max(r0, rl)-rl, min(r1, rl+bs)-rl
			ys := strips[bi][lo*k : hi*k]
			for bj := 0; bj < gc; bj++ {
				matrix.XtYScatter(part, k, bj*bs, x.Blocks[bi*gc+bj], lo, hi, ys)
			}
		}
		parts[ci] = part
		return nil
	})
	if err != nil {
		return nil, err
	}
	return matrix.XtYSum(parts, n, k), nil
}

// rowStrip returns the cells of rows [rl, ru), all columns, as one dense
// row-major slice: a dense block's own array when the rows lie in one block
// row of a one-column grid, else a copy assembled by Region.
func (b *BlockedMatrix) rowStrip(rl, ru int) ([]float64, error) {
	bi := rl / b.Blocksize
	if b.GridCols() == 1 && (ru-1)/b.Blocksize == bi {
		if blk := b.Blocks[bi]; blk != nil && !blk.IsSparse() {
			off := rl - bi*b.Blocksize
			return blk.DenseValues()[off*b.Cols : (off+ru-rl)*b.Cols], nil
		}
	}
	s, err := b.Region(rl, ru, 0, b.Cols)
	if err != nil {
		return nil, err
	}
	return s.DenseValues(), nil
}
