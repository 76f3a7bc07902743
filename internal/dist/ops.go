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

// MatMultBB multiplies two blocked operands with a grid join, the plan for
// two operands over the broadcast budget: every output block (i,j) is one
// accumulator onto which matrix.MultiplyAcc adds block (i,k) of the left
// input times block (k,j) of the right, k ascending, so every cell adds its
// products in the order of the local multiply and the result has
// matrix.Multiply's bits for finite inputs. The output blocks are
// independent: one pass over the output grid, one task per block.
func MatMultBB(a, b *BlockedMatrix, threads int) (*BlockedMatrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("dist: matmult dimension mismatch %dx%d %%*%% %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	if a.Blocksize != b.Blocksize {
		return nil, fmt.Errorf("dist: matmult blocksize mismatch %d vs %d", a.Blocksize, b.Blocksize)
	}
	out := &BlockedMatrix{Rows: a.Rows, Cols: b.Cols, Blocksize: a.Blocksize}
	bs, gr, gc := out.Blocksize, out.GridRows(), out.GridCols()
	agc, bgc := a.GridCols(), b.GridCols()
	out.Blocks = make([]*matrix.MatrixBlock, gr*gc)
	err := forEachBlock("mm-grid", gr, gc, threads, func(bi, bj int) error {
		acc := matrix.NewDense(min(bs, out.Rows-bi*bs), min(bs, out.Cols-bj*bs))
		for bk := 0; bk < agc; bk++ {
			if err := matrix.MultiplyAcc(acc, a.Blocks[bi*agc+bk], b.Blocks[bk*bgc+bj], 1); err != nil {
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

// The aggregates run the CP aggregates' drivers (matrix.FullReduce,
// RowReduce, ColReduce) on x's walk, so each has the bits of its CP kernel
// over the collected matrix, min and max with CP's comparison rule. The
// means divide the sums afterwards, as the CP kernels do.
var (
	fullAggs = map[string]matrix.Reduction{"sum": matrix.ReduceSum, "mean": matrix.ReduceSum,
		"sumsq": matrix.ReduceSumSq, "min": matrix.ReduceMin, "max": matrix.ReduceMax}
	rowAggs = map[string]matrix.Reduction{"rowSums": matrix.ReduceSum, "rowMeans": matrix.ReduceSum,
		"rowMins": matrix.ReduceMin, "rowMaxs": matrix.ReduceMax}
	colAggs = map[string]matrix.Reduction{"colSums": matrix.ReduceSum, "colMeans": matrix.ReduceSum,
		"colMins": matrix.ReduceMin, "colMaxs": matrix.ReduceMax}
)

// FullAgg computes a full aggregate (sum, sumsq, mean, min, max) over a
// blocked matrix, with the bits of matrix.Sum, SumSq, Mean, Min and Max.
func FullAgg(a *BlockedMatrix, op string, threads int) (float64, error) {
	red, ok := fullAggs[op]
	if !ok {
		return 0, fmt.Errorf("dist: unsupported full aggregate %q", op)
	}
	res, err := matrix.FullReduce(red, a.Rows, a.walk("full-agg", threads))
	if err != nil {
		return 0, err
	}
	if op == "mean" {
		if a.Rows*a.Cols == 0 {
			return math.NaN(), nil
		}
		res /= float64(a.Rows * a.Cols)
	}
	return res, nil
}

// RowAgg computes a row-wise aggregate (rowSums, rowMeans, rowMaxs, rowMins)
// with the bits of its CP kernel, returning a blocked Rows x 1 column vector.
func RowAgg(a *BlockedMatrix, op string, threads int) (*BlockedMatrix, error) {
	red, ok := rowAggs[op]
	if !ok {
		return nil, fmt.Errorf("dist: unsupported row aggregate %q", op)
	}
	out := matrix.NewDense(a.Rows, 1)
	vals := out.DenseValues()
	if err := matrix.RowReduce(red, vals, a.walk("row-agg", threads)); err != nil {
		return nil, err
	}
	if op == "rowMeans" && a.Cols > 0 {
		for r := range vals {
			vals[r] /= float64(a.Cols)
		}
	}
	out.RecomputeNNZ()
	return fromMatrixBlock(out, a.Blocksize)
}

// ColAgg computes a column-wise aggregate (colSums, colMeans, colMaxs,
// colMins) with the bits of its CP kernel, returning a blocked 1 x Cols row
// vector.
func ColAgg(a *BlockedMatrix, op string, threads int) (*BlockedMatrix, error) {
	red, ok := colAggs[op]
	if !ok {
		return nil, fmt.Errorf("dist: unsupported column aggregate %q", op)
	}
	out := matrix.NewDense(1, a.Cols)
	vals := out.DenseValues()
	if err := matrix.ColReduce(red, vals, a.Rows, a.walk("col-agg", threads)); err != nil {
		return nil, err
	}
	if op == "colMeans" && a.Rows > 0 {
		for c := range vals {
			vals[c] /= float64(a.Rows)
		}
	}
	out.RecomputeNNZ()
	return fromMatrixBlock(out, a.Blocksize)
}
