package compress

import (
	"fmt"

	"github.com/systemds/systemds-go/internal/matrix"
)

// Matrix right-hand sides for compressed matmult: X %*% B and t(X) %*% B with
// a dense n x k (or m x k) B. The CLA pre-scaling generalizes from one vector
// to k columns at once: each dictionary tuple is multiplied against a block of
// B's columns, then rows gather (or aggregate) by code. Columns of B are
// processed in fixed-size blocks so the pre-scaled dictionaries stay cache
// resident, and the pre-scaling buffers come from the pooled GEMM scratch.

// rhsColBlock is the column-block width for matrix right-hand sides: wide
// enough to amortize the per-block dictionary pass, small enough that the
// pre-scaled dictionary (nvals x rhsColBlock) stays in cache.
const rhsColBlock = 64

// rhsBatchSlots bounds the pre-scaled dictionaries of X %*% B held at once:
// consecutive groups are pre-scaled together while their tables fit, a larger
// table alone.
const rhsBatchSlots = 1 << 20

// MatMultDense computes c %*% b for a dense right-hand side b (NumCols x k),
// returning an m x k dense block. Per column block, each batch of groups is
// pre-scaled once, then rows run through the batch in the fixed chunks; every
// output cell gets its groups' additions in group order, so results are
// bitwise identical across thread counts.
func (c *CompressedMatrix) MatMultDense(b *matrix.MatrixBlock, threads int) (*matrix.MatrixBlock, error) {
	if b.Rows() != c.NumCols {
		return nil, fmt.Errorf("compress: matmult rhs is %dx%d, want %dx*", b.Rows(), b.Cols(), c.NumCols)
	}
	k := b.Cols()
	bd := denseBlockValues(b)
	out := matrix.NewDense(c.NumRows, k)
	dst := out.DenseValues()
	pre := make([][]float64, len(c.Groups))
	for j0 := 0; j0 < k; j0 += rhsColBlock {
		j1 := min(j0+rhsColBlock, k)
		for g0 := 0; g0 < len(c.Groups); {
			g1, slots := g0, 0
			for g1 < len(c.Groups) && (g1 == g0 || slots+rhsTableRows(c.Groups[g1])*(j1-j0) <= rhsBatchSlots) {
				slots += rhsTableRows(c.Groups[g1]) * (j1 - j0)
				g1++
			}
			scratch := matrix.GetScratch(slots)
			buf := scratch.Values()
			for i := g0; i < g1; i++ {
				pre[i] = buf[:rhsTableRows(c.Groups[i])*(j1-j0)]
				buf = buf[len(pre[i]):]
			}
			forEachIndex(g1-g0, threads, func(i int) {
				preScaleRHS(c.Groups[g0+i], pre[g0+i], bd, k, j0, j1)
			})
			forEachRowChunk(c.NumRows, threads, func(r0, r1 int) {
				for i := g0; i < g1; i++ {
					accumRHS(c.Groups[i], pre[i], dst, bd, k, r0, r1, j0, j1)
				}
			})
			matrix.PutScratch(scratch)
			g0 = g1
		}
	}
	out.RecomputeNNZ()
	return out, nil
}

// rhsTableRows is the number of blk-wide rows of g's pre-scaled table in
// X %*% B: one per DDC tuple; the SDC default and one per exception value.
func rhsTableRows(g ColGroup) int {
	switch t := g.(type) {
	case *DDCGroup:
		return t.numVals()
	case *SDCGroup:
		return 1 + len(t.Dict)
	}
	return 0
}

// preScaleRHS fills g's table for columns [j0, j1) of B: DDC tuple kk's row
// is its dot product with the member columns' rows of B, accumulated column
// by column from 0 with zero dictionary values skipped; an SDC group's first
// row is default · B's row, then each exception value's difference from it.
func preScaleRHS(g ColGroup, pre, bd []float64, k, j0, j1 int) {
	blk := j1 - j0
	switch t := g.(type) {
	case *DDCGroup:
		w := len(t.Cols)
		for kk := 0; kk < t.numVals(); kk++ {
			prow := pre[kk*blk : kk*blk+blk]
			for a, gc := range t.Cols {
				d := t.Dict[kk*w+a]
				if d == 0 {
					continue
				}
				brow := bd[gc*k+j0:]
				for jj := 0; jj < blk; jj++ {
					prow[jj] += float64(d * brow[jj])
				}
			}
		}
	case *SDCGroup:
		brow := bd[t.Col*k+j0:]
		dv := pre[:blk]
		for jj := 0; jj < blk; jj++ {
			dv[jj] = float64(t.Default * brow[jj])
		}
		for kk, d := range t.Dict {
			prow := pre[(kk+1)*blk:]
			for jj := 0; jj < blk; jj++ {
				prow[jj] = float64(d*brow[jj]) - dv[jj]
			}
		}
	}
}

// accumRHS accumulates one group's contribution to dst[r0:r1, j0:j1) of
// X %*% B from its pre-scaled table pre. bd is B's dense row-major values of
// width k, dst the output's of width k.
func accumRHS(g ColGroup, pre, dst, bd []float64, k, r0, r1, j0, j1 int) {
	blk := j1 - j0
	switch t := g.(type) {
	case *DDCGroup:
		gatherRHS(dst, pre, t.Codes8, t.Codes16, k, r0, r1, j0, blk)
	case *RLEGroup:
		var p [rhsColBlock]float64
		brow := bd[t.Col*k+j0:]
		for i, val := range t.Values {
			if val == 0 {
				continue
			}
			lo, hi := t.runRange(i, r0, r1)
			if lo >= hi {
				continue
			}
			for jj := 0; jj < blk; jj++ {
				p[jj] = float64(val * brow[jj])
			}
			for r := lo; r < hi; r++ {
				orow := dst[r*k+j0:]
				for jj := 0; jj < blk; jj++ {
					orow[jj] += p[jj]
				}
			}
		}
	case *SDCGroup:
		if t.Default != 0 {
			for r := r0; r < r1; r++ {
				orow := dst[r*k+j0:]
				for jj := 0; jj < blk; jj++ {
					orow[jj] += pre[jj]
				}
			}
		}
		lo, hi := t.posRange(r0, r1)
		for i := lo; i < hi; i++ {
			orow := dst[int(t.Pos[i])*k+j0:]
			prow := pre[(int(t.Codes[i])+1)*blk:]
			for jj := 0; jj < blk; jj++ {
				orow[jj] += prow[jj]
			}
		}
	case *UncompressedGroup:
		for r := r0; r < r1; r++ {
			orow := dst[r*k+j0:]
			for a, gc := range t.ColIdx {
				va := t.Data.Get(r, a)
				if va == 0 {
					continue
				}
				brow := bd[gc*k+j0:]
				for jj := 0; jj < blk; jj++ {
					orow[jj] += float64(va * brow[jj])
				}
			}
		}
	}
}

// gatherRHS adds the pre-scaled dictionary rows selected by each row's code to
// the output rows.
func gatherRHS(dst, pre []float64, codes8 []uint8, codes16 []uint16, k, r0, r1, j0, blk int) {
	if codes8 != nil {
		for r := r0; r < r1; r++ {
			prow := pre[int(codes8[r])*blk:]
			orow := dst[r*k+j0:]
			for jj := 0; jj < blk; jj++ {
				orow[jj] += prow[jj]
			}
		}
		return
	}
	for r := r0; r < r1; r++ {
		prow := pre[int(codes16[r])*blk:]
		orow := dst[r*k+j0:]
		for jj := 0; jj < blk; jj++ {
			orow[jj] += prow[jj]
		}
	}
}

// TransMatMultDense computes t(c) %*% b for a dense right-hand side b
// (NumRows x k), returning an n x k dense block — the multi-column
// generalization of VecMat: B's rows are aggregated per dictionary code first
// (one pass over the codes per column block), then combined with each member
// column's dictionary values. Groups own disjoint output rows, so the
// group-parallel execution is deterministic.
func (c *CompressedMatrix) TransMatMultDense(b *matrix.MatrixBlock, threads int) (*matrix.MatrixBlock, error) {
	if b.Rows() != c.NumRows {
		return nil, fmt.Errorf("compress: trans-matmult rhs is %dx%d, want %dx*", b.Rows(), b.Cols(), c.NumRows)
	}
	k := b.Cols()
	bd := denseBlockValues(b)
	out := matrix.NewDense(c.NumCols, k)
	dst := out.DenseValues()
	rows := c.NumRows
	forEachGroup(c.Groups, threads, func(_ int, g ColGroup) {
		if u, ok := g.(*UncompressedGroup); ok {
			for a, gc := range u.ColIdx {
				orow := dst[gc*k:]
				for r := 0; r < rows; r++ {
					va := u.Data.Get(r, a)
					if va == 0 {
						continue
					}
					brow := bd[r*k:]
					for jj := 0; jj < k; jj++ {
						orow[jj] += float64(va * brow[jj])
					}
				}
			}
			return
		}
		d := asDDC(g, rows)
		w := len(d.Cols)
		nv := d.numVals()
		for j0 := 0; j0 < k; j0 += rhsColBlock {
			j1 := min(j0+rhsColBlock, k)
			blk := j1 - j0
			agg := make([]float64, nv*blk)
			if d.Codes8 != nil {
				for r := 0; r < rows; r++ {
					arow := agg[int(d.Codes8[r])*blk:]
					brow := bd[r*k+j0:]
					for jj := 0; jj < blk; jj++ {
						arow[jj] += brow[jj]
					}
				}
			} else {
				for r := 0; r < rows; r++ {
					arow := agg[int(d.Codes16[r])*blk:]
					brow := bd[r*k+j0:]
					for jj := 0; jj < blk; jj++ {
						arow[jj] += brow[jj]
					}
				}
			}
			for a, gc := range d.Cols {
				orow := dst[gc*k+j0:]
				for kk := 0; kk < nv; kk++ {
					dv := d.Dict[kk*w+a]
					if dv == 0 {
						continue
					}
					arow := agg[kk*blk:]
					for jj := 0; jj < blk; jj++ {
						orow[jj] += float64(dv * arow[jj])
					}
				}
			}
		}
	})
	out.RecomputeNNZ()
	return out, nil
}
