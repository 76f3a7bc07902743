package dist

import (
	"fmt"
	"math"

	"github.com/systemds/systemds-go/internal/matrix"
)

// Unary applies an element-wise unary operation block by block.
func Unary(a *BlockedMatrix, op matrix.UnaryOp, threads int) (*BlockedMatrix, error) {
	out := &BlockedMatrix{Rows: a.Rows, Cols: a.Cols, Blocksize: a.Blocksize,
		Blocks: make([]*matrix.MatrixBlock, len(a.Blocks))}
	gc := a.GridCols()
	err := forEachBlock("unary", a.GridRows(), gc, threads, func(bi, bj int) error {
		out.Blocks[bi*gc+bj] = matrix.UnaryApply(a.Blocks[bi*gc+bj], op, 1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Scalar applies a matrix-scalar binary operation block by block; swap places
// the scalar on the left-hand side.
func Scalar(a *BlockedMatrix, s float64, op matrix.BinaryOp, swap bool, threads int) (*BlockedMatrix, error) {
	out := &BlockedMatrix{Rows: a.Rows, Cols: a.Cols, Blocksize: a.Blocksize,
		Blocks: make([]*matrix.MatrixBlock, len(a.Blocks))}
	gc := a.GridCols()
	err := forEachBlock("scalar", a.GridRows(), gc, threads, func(bi, bj int) error {
		out.Blocks[bi*gc+bj] = matrix.ScalarOp(a.Blocks[bi*gc+bj], s, op, swap, 1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// MatMultBB multiplies two blocked operands with a grid join: every output
// cell (i,j) joins the block row i of the left input with the block column j
// of the right input and accumulates the per-cell partial products — the
// replication-based join of the paper's data-parallel backend, used when both
// operands exceed the broadcast budget.
func MatMultBB(a, b *BlockedMatrix, threads int) (*BlockedMatrix, error) {
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
	err := forEachBlock("mm-grid", gr, gc, threads, func(bi, bj int) error {
		var acc *matrix.MatrixBlock
		for bk := 0; bk < agc; bk++ {
			part, err := matrix.Multiply(a.Blocks[bi*agc+bk], b.Blocks[bk*bgc+bj], 1)
			if err != nil {
				return err
			}
			if acc == nil {
				acc = part
			} else if acc, err = matrix.CellwiseOp(acc, part, matrix.OpAdd, 1); err != nil {
				return err
			}
		}
		out.Blocks[bi*gc+bj] = acc
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Transpose transposes a blocked matrix: each block is transposed locally and
// moved to the mirrored grid coordinate.
func Transpose(a *BlockedMatrix, threads int) (*BlockedMatrix, error) {
	out := &BlockedMatrix{Rows: a.Cols, Cols: a.Rows, Blocksize: a.Blocksize}
	gr, gc := a.GridRows(), a.GridCols()
	out.Blocks = make([]*matrix.MatrixBlock, gr*gc)
	err := forEachBlock("transpose", gr, gc, threads, func(bi, bj int) error {
		out.Blocks[bj*gr+bi] = matrix.Transpose(a.Blocks[bi*gc+bj])
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// RBind stacks two blocked matrices vertically. When the first operand's rows
// are block-aligned the grids are concatenated by reference (a Shared
// output); otherwise the output blocks are re-assembled from the covering
// regions of both inputs.
func RBind(a, b *BlockedMatrix, threads int) (*BlockedMatrix, error) {
	if a.Cols != b.Cols || a.Blocksize != b.Blocksize {
		return nil, fmt.Errorf("dist: rbind mismatch %dx%d/%d vs %dx%d/%d",
			a.Rows, a.Cols, a.Blocksize, b.Rows, b.Cols, b.Blocksize)
	}
	out := &BlockedMatrix{Rows: a.Rows + b.Rows, Cols: a.Cols, Blocksize: a.Blocksize}
	if a.Rows%a.Blocksize == 0 {
		// blocks are immutable, so sharing them between inputs and output is safe
		out.Blocks = make([]*matrix.MatrixBlock, 0, len(a.Blocks)+len(b.Blocks))
		out.Blocks = append(append(out.Blocks, a.Blocks...), b.Blocks...)
		out.Shared = sharedArrays(a, b)
		return out, nil
	}
	gr, gc := out.GridRows(), out.GridCols()
	out.Blocks = make([]*matrix.MatrixBlock, gr*gc)
	err := forEachBlock("rbind", gr, gc, threads, func(bi, bj int) error {
		rl, ru := bi*out.Blocksize, min(bi*out.Blocksize+out.Blocksize, out.Rows)
		cl, cu := bj*out.Blocksize, min(bj*out.Blocksize+out.Blocksize, out.Cols)
		var parts []*matrix.MatrixBlock
		if rl < a.Rows {
			top, err := a.Region(rl, min(ru, a.Rows), cl, cu)
			if err != nil {
				return err
			}
			parts = append(parts, top)
		}
		if ru > a.Rows {
			bot, err := b.Region(max(rl-a.Rows, 0), ru-a.Rows, cl, cu)
			if err != nil {
				return err
			}
			parts = append(parts, bot)
		}
		blk, err := matrix.RBind(parts...)
		if err != nil {
			return err
		}
		out.Blocks[bi*gc+bj] = blk
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sharedArrays lists, once each, the arrays of a and b: those a
// concatenation that takes their blocks by reference lives in.
func sharedArrays(a, b *BlockedMatrix) []*matrix.MatrixBlock {
	var arrays []*matrix.MatrixBlock
	seen := map[*matrix.MatrixBlock]bool{}
	add := func(m *matrix.MatrixBlock) {
		if !seen[m] {
			seen[m] = true
			arrays = append(arrays, m)
		}
	}
	a.EachArray(add)
	b.EachArray(add)
	return arrays
}

// CBind concatenates two blocked matrices horizontally. When the first
// operand's columns are block-aligned the grids are interleaved by reference
// (a Shared output); otherwise boundary-spanning output blocks are
// re-assembled from the covering regions of both inputs.
func CBind(a, b *BlockedMatrix, threads int) (*BlockedMatrix, error) {
	if a.Rows != b.Rows || a.Blocksize != b.Blocksize {
		return nil, fmt.Errorf("dist: cbind mismatch %dx%d/%d vs %dx%d/%d",
			a.Rows, a.Cols, a.Blocksize, b.Rows, b.Cols, b.Blocksize)
	}
	out := &BlockedMatrix{Rows: a.Rows, Cols: a.Cols + b.Cols, Blocksize: a.Blocksize}
	gr, gc := out.GridRows(), out.GridCols()
	out.Blocks = make([]*matrix.MatrixBlock, gr*gc)
	if a.Cols%a.Blocksize == 0 {
		agc, bgc := a.GridCols(), b.GridCols()
		for bi := 0; bi < gr; bi++ {
			copy(out.Blocks[bi*gc:], a.Blocks[bi*agc:(bi+1)*agc])
			copy(out.Blocks[bi*gc+agc:], b.Blocks[bi*bgc:(bi+1)*bgc])
		}
		out.Shared = sharedArrays(a, b)
		return out, nil
	}
	err := forEachBlock("cbind", gr, gc, threads, func(bi, bj int) error {
		rl, ru := bi*out.Blocksize, min(bi*out.Blocksize+out.Blocksize, out.Rows)
		cl, cu := bj*out.Blocksize, min(bj*out.Blocksize+out.Blocksize, out.Cols)
		var parts []*matrix.MatrixBlock
		if cl < a.Cols {
			left, err := a.Region(rl, ru, cl, min(cu, a.Cols))
			if err != nil {
				return err
			}
			parts = append(parts, left)
		}
		if cu > a.Cols {
			right, err := b.Region(rl, ru, max(cl-a.Cols, 0), cu-a.Cols)
			if err != nil {
				return err
			}
			parts = append(parts, right)
		}
		blk, err := matrix.CBind(parts...)
		if err != nil {
			return err
		}
		out.Blocks[bi*gc+bj] = blk
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// FullAgg computes a full aggregate (sum, sumsq, mean, min, max) over a
// blocked matrix: per-block partials computed in parallel, combined locally
// (the aggregation tree of the distributed backend).
func FullAgg(a *BlockedMatrix, op string, threads int) (float64, error) {
	partials := make([]float64, len(a.Blocks))
	gc := a.GridCols()
	var perBlock func(b *matrix.MatrixBlock) float64
	combine := func(x, y float64) float64 { return x + y }
	switch op {
	case "sum", "mean":
		perBlock = func(b *matrix.MatrixBlock) float64 { return matrix.Sum(b, 1) }
	case "sumsq":
		perBlock = func(b *matrix.MatrixBlock) float64 { return matrix.SumSq(b, 1) }
	case "min":
		perBlock = func(b *matrix.MatrixBlock) float64 { return matrix.Min(b, 1) }
		combine = math.Min
	case "max":
		perBlock = func(b *matrix.MatrixBlock) float64 { return matrix.Max(b, 1) }
		combine = math.Max
	default:
		return 0, fmt.Errorf("dist: unsupported full aggregate %q", op)
	}
	err := forEachBlock("full-agg", a.GridRows(), gc, threads, func(bi, bj int) error {
		partials[bi*gc+bj] = perBlock(a.Blocks[bi*gc+bj])
		return nil
	})
	if err != nil {
		return 0, err
	}
	res := partials[0]
	for _, p := range partials[1:] {
		res = combine(res, p)
	}
	if op == "mean" {
		res /= float64(a.Rows) * float64(a.Cols)
	}
	return res, nil
}

// RowAgg computes a row-wise aggregate (rowSums, rowMeans, rowMaxs, rowMins)
// returning a blocked Rows x 1 column vector: each block-row strip combines
// its per-block row aggregates without leaving the blocked representation.
func RowAgg(a *BlockedMatrix, op string, threads int) (*BlockedMatrix, error) {
	var perBlock func(b *matrix.MatrixBlock) *matrix.MatrixBlock
	combine := matrix.OpAdd
	switch op {
	case "rowSums", "rowMeans":
		perBlock = func(b *matrix.MatrixBlock) *matrix.MatrixBlock { return matrix.RowSums(b, 1) }
	case "rowMaxs":
		perBlock = matrix.RowMaxs
		combine = matrix.OpMax
	case "rowMins":
		perBlock = matrix.RowMins
		combine = matrix.OpMin
	default:
		return nil, fmt.Errorf("dist: unsupported row aggregate %q", op)
	}
	out := &BlockedMatrix{Rows: a.Rows, Cols: 1, Blocksize: a.Blocksize}
	gr, gc := a.GridRows(), a.GridCols()
	out.Blocks = make([]*matrix.MatrixBlock, gr)
	err := forEachBlock("row-agg", gr, 1, threads, func(bi, _ int) error {
		acc := perBlock(a.Blocks[bi*gc])
		var err error
		for bj := 1; bj < gc; bj++ {
			if acc, err = matrix.CellwiseOp(acc, perBlock(a.Blocks[bi*gc+bj]), combine, 1); err != nil {
				return err
			}
		}
		if op == "rowMeans" {
			acc = matrix.ScalarOp(acc, float64(a.Cols), matrix.OpDiv, false, 1)
		}
		out.Blocks[bi] = acc
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ColAgg computes a column-wise aggregate (colSums, colMeans, colMaxs,
// colMins) returning a blocked 1 x Cols row vector.
func ColAgg(a *BlockedMatrix, op string, threads int) (*BlockedMatrix, error) {
	var perBlock func(b *matrix.MatrixBlock) *matrix.MatrixBlock
	combine := matrix.OpAdd
	switch op {
	case "colSums", "colMeans":
		perBlock = func(b *matrix.MatrixBlock) *matrix.MatrixBlock { return matrix.ColSums(b, 1) }
	case "colMaxs":
		perBlock = matrix.ColMaxs
		combine = matrix.OpMax
	case "colMins":
		perBlock = matrix.ColMins
		combine = matrix.OpMin
	default:
		return nil, fmt.Errorf("dist: unsupported column aggregate %q", op)
	}
	out := &BlockedMatrix{Rows: 1, Cols: a.Cols, Blocksize: a.Blocksize}
	gr, gc := a.GridRows(), a.GridCols()
	out.Blocks = make([]*matrix.MatrixBlock, gc)
	err := forEachBlock("col-agg", 1, gc, threads, func(_, bj int) error {
		acc := perBlock(a.Blocks[bj])
		var err error
		for bi := 1; bi < gr; bi++ {
			if acc, err = matrix.CellwiseOp(acc, perBlock(a.Blocks[bi*gc+bj]), combine, 1); err != nil {
				return err
			}
		}
		if op == "colMeans" {
			acc = matrix.ScalarOp(acc, float64(a.Rows), matrix.OpDiv, false, 1)
		}
		out.Blocks[bj] = acc
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
