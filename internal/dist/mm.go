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
// local Y (y) or a blocked one (by); the other is nil. It runs
// matrix.TransposeMultiply's row-scatter leg (matrix.XtYWalk) on X's walk:
// every block that covers part of a chunk scatters its rows, in row order,
// into the chunk's one partial, so the result has the bits of the
// row-scatter leg over the collected X. Y is read by row range —
// a local Y sliced, a blocked Y block by block — and never collected; the
// small n x k result is local, as TSMM's is.
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
	// Y's rows beside a piece of X, k values per row: a local Y's own, a
	// blocked Y's strip beside each block row of X
	bs := x.Blocksize
	var rows func(p matrix.RowPiece) []float64
	if by == nil {
		if y.IsSparse() {
			y = y.Copy()
		}
		yd := y.DenseValues()
		rows = func(p matrix.RowPiece) []float64 { return yd[(p.Row+p.Lo)*k:] }
	} else {
		strips := make([][]float64, x.GridRows())
		for bi := range strips {
			s, err := by.rowStrip(bi*bs, min(bi*bs+bs, m))
			if err != nil {
				return nil, err
			}
			strips[bi] = s
		}
		rows = func(p matrix.RowPiece) []float64 { return strips[p.Row/bs][p.Lo*k:] }
	}
	return matrix.XtYWalk(x.walk("xty", threads), m, n, k, rows)
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
