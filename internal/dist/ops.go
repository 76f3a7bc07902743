package dist

import (
	"fmt"
	"slices"

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

// Bind runs a bind row of the reorg table (rbind, cbind) over blocked
// matrices: row counts add up along matrix.BindRows, column counts along
// matrix.BindCols, and the parts agree in the other dimension and in
// blocksize. A part every block of which lands whole in the output — its
// offset is block-aligned and its last block is whole or the output's last —
// is taken by reference (blocks are immutable); every other output block is
// assembled once, by the row's local kernel, from the Regions of the parts
// that cover it. So every aligned part is taken whole, however many parts
// there are. Shared then lists, once each, the arrays of the parts taken and
// the blocks assembled, which are exactly the arrays the output holds; it is
// nil when no part was taken.
func Bind(row *matrix.Reorg, parts []*BlockedMatrix, threads int) (*BlockedMatrix, error) {
	axis := row.Axis
	if axis == matrix.NoBind || len(parts) == 0 {
		return nil, fmt.Errorf("dist: bind %s of %d parts", row.Opcode, len(parts))
	}
	first := parts[0]
	bs := first.Blocksize
	out := &BlockedMatrix{Rows: first.Rows, Cols: first.Cols, Blocksize: bs}
	offs := make([]int, len(parts)+1) // part k's first row (column) in the output
	for k, p := range parts {
		along, across, want := p.Rows, p.Cols, first.Cols
		if axis == matrix.BindCols {
			along, across, want = p.Cols, p.Rows, first.Rows
		}
		if across != want || p.Blocksize != bs {
			return nil, fmt.Errorf("dist: %s mismatch %dx%d/%d vs %dx%d/%d",
				row.Opcode, first.Rows, first.Cols, bs, p.Rows, p.Cols, p.Blocksize)
		}
		offs[k+1] = offs[k] + along
	}
	total := offs[len(parts)]
	if axis == matrix.BindCols {
		out.Cols = total
	} else {
		out.Rows = total
	}
	taken := make([]bool, len(parts))
	for k := range parts {
		taken[k] = offs[k] < offs[k+1] && offs[k]%bs == 0 && ((offs[k+1]-offs[k])%bs == 0 || offs[k+1] == total)
	}
	gr, gc := out.GridRows(), out.GridCols()
	out.Blocks = make([]*matrix.MatrixBlock, gr*gc)
	assembled := make([]bool, gr*gc)
	err := forEachBlock(row.Opcode, gr, gc, threads, func(bi, bj int) error {
		r0, r1 := bi*bs, min(bi*bs+bs, out.Rows)
		c0, c1 := bj*bs, min(bj*bs+bs, out.Cols)
		var regions []*matrix.MatrixBlock
		for k, p := range parts {
			// the block's cells in part k, in the part's coordinates
			rl, ru, cl, cu := r0, r1, c0, c1
			if axis == matrix.BindCols {
				cl, cu = max(c0, offs[k])-offs[k], min(c1, offs[k+1])-offs[k]
			} else {
				rl, ru = max(r0, offs[k])-offs[k], min(r1, offs[k+1])-offs[k]
			}
			switch {
			case rl >= ru || cl >= cu:
				continue
			case taken[k]:
				out.Blocks[bi*gc+bj] = p.Block(rl/bs, cl/bs)
				return nil
			}
			r, err := p.Region(rl, ru, cl, cu)
			if err != nil {
				return err
			}
			regions = append(regions, r)
		}
		blk, err := row.Kernel(regions...)
		out.Blocks[bi*gc+bj], assembled[bi*gc+bj] = blk, true
		return err
	})
	if err != nil {
		return nil, err
	}
	if !slices.Contains(taken, true) {
		return out, nil
	}
	seen := map[*matrix.MatrixBlock]bool{}
	add := func(m *matrix.MatrixBlock) {
		if !seen[m] {
			seen[m] = true
			out.Shared = append(out.Shared, m)
		}
	}
	for k, p := range parts {
		if taken[k] {
			p.EachArray(add)
		}
	}
	for t, blk := range out.Blocks {
		if assembled[t] {
			add(blk)
		}
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
