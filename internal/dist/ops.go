package dist

import (
	"fmt"

	"github.com/systemds/systemds-go/internal/matrix"
)

// CellArg is one operand of a blocked cell program: a blocked matrix of the
// output's shape, or (Blocked nil) a local row or column vector broadcast
// along it or a scalar, as in matrix.CellArg.
type CellArg struct {
	Blocked *BlockedMatrix
	matrix.CellArg
}

// Cell evaluates a cell program block by block: each output block is
// matrix.FusedCell, on one thread, over the matching blocks of the blocked
// operands, the slices of the vectors that cover it and the scalars. Cells
// are independent, so every cell has the bits of FusedCell over the
// collected operands. The blocked operands must agree in shape and
// blocksize; a vector is sliced once per block row (a column vector) or
// block column (a row vector), not per block.
func Cell(prog *matrix.CellProgram, args []CellArg, threads int) (*BlockedMatrix, error) {
	var x *BlockedMatrix
	first := -1 // the first blocked operand: FusedCell's driver in every block
	for k, a := range args {
		switch b := a.Blocked; {
		case b == nil:
		case x == nil:
			x, first = b, k
		case b.Rows != x.Rows || b.Cols != x.Cols || b.Blocksize != x.Blocksize:
			return nil, fmt.Errorf("dist: cellwise dimension mismatch %dx%d/%d vs %dx%d/%d",
				x.Rows, x.Cols, x.Blocksize, b.Rows, b.Cols, b.Blocksize)
		}
	}
	if x == nil {
		return nil, fmt.Errorf("dist: cell program without a blocked operand")
	}
	bs, gr, gc := x.Blocksize, x.GridRows(), x.GridCols()
	// segs[k][i] is vector k's slice along block row i (a column vector) or
	// block column i (a row vector)
	segs := make([][]*matrix.MatrixBlock, len(args))
	rowVec := make([]bool, len(args))
	blockProg := prog
	for k, a := range args {
		v := a.Mat
		if a.Blocked != nil || v == nil {
			continue
		}
		switch {
		case v.Cols() == 1 && v.Rows() == x.Rows:
			segs[k] = make([]*matrix.MatrixBlock, gr)
		case v.Rows() == 1 && v.Cols() == x.Cols:
			segs[k], rowVec[k] = make([]*matrix.MatrixBlock, gc), true
		default:
			return nil, fmt.Errorf("dist: cellwise vector %dx%d does not broadcast against %dx%d",
				v.Rows(), v.Cols(), x.Rows, x.Cols)
		}
		for i := range segs[k] {
			lo := i * bs
			var err error
			if rowVec[k] {
				segs[k][i], err = matrix.Slice(v, 0, 1, lo, min(lo+bs, x.Cols))
			} else {
				segs[k][i], err = matrix.Slice(v, lo, min(lo+bs, x.Rows), 0, 1)
			}
			if err != nil {
				return nil, err
			}
		}
		if k < first && prog.Annihilating {
			// a block one column (row) wide makes a column (row) vector's
			// slice the shape of the block: ahead of the blocked operands it
			// would become that block's driver, which the program does not
			// annihilate on. Without the stored-cells shortcut every cell is
			// evaluated, and the values are the same.
			plain := *prog
			plain.Annihilating = false
			blockProg = &plain
		}
	}
	out := &BlockedMatrix{Rows: x.Rows, Cols: x.Cols, Blocksize: bs, Blocks: make([]*matrix.MatrixBlock, gr*gc)}
	err := forEachBlock("cell", gr, gc, threads, func(bi, bj int) error {
		bargs := make([]matrix.CellArg, len(args))
		for k, a := range args {
			switch {
			case a.Blocked != nil:
				bargs[k].Mat = a.Blocked.Blocks[bi*gc+bj]
			case segs[k] == nil:
				bargs[k].Scalar = a.Scalar
			case rowVec[k]:
				bargs[k].Mat = segs[k][bj]
			default:
				bargs[k].Mat = segs[k][bi]
			}
		}
		blk, err := matrix.FusedCell(blockProg, bargs, 1, nil)
		out.Blocks[bi*gc+bj] = blk
		return err
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

// Aggregate runs a row of the aggregate table that has a reduction on x's
// walk: the row folds its reduction with the drivers the local rung runs on
// a local matrix's walk, so the result has the local rung's bits over the
// collected matrix — min and max with its comparison rule, a mean divided by
// the same Finish. It returns a full aggregate's value, or a row or column
// aggregate's vector, blocked.
func Aggregate(x *BlockedMatrix, agg *matrix.Aggregate, threads int) (float64, *BlockedMatrix, error) {
	if agg.Red == 0 {
		return 0, nil, fmt.Errorf("dist: aggregate %s has no reduction", agg.Name)
	}
	v, vec, err := agg.Reduce(x.Rows, x.Cols, x.walk(agg.Name, threads))
	if err != nil || vec == nil {
		return v, nil, err
	}
	out, err := fromMatrixBlock(vec, x.Blocksize)
	return v, out, err
}
