package compress

import (
	"github.com/systemds/systemds-go/internal/matrix"
)

// SliceRows returns a compressed view of rows [r0, r1): dictionaries are
// shared with the receiver, codes/runs/positions are re-based to the slice,
// and per-dictionary counts are recomputed for the slice so count-weighted
// kernels (MatVec pre-scaling, TSMM cross products, sums) stay exact. This is
// the row-range partitioning used by the dist backend: a compressed matrix
// splits into per-partition compressed slices instead of decompressing at the
// boundary.
//
// Sliced groups may carry dictionary entries whose slice count is zero;
// MinMax over a slice can therefore over-approximate (it scans the shared
// dictionary). The dist executors only use count-weighted and code-gathering
// kernels, which are exact.
func (c *CompressedMatrix) SliceRows(r0, r1 int) *CompressedMatrix {
	out := &CompressedMatrix{NumRows: r1 - r0, NumCols: c.NumCols, Groups: make([]ColGroup, len(c.Groups))}
	for i, g := range c.Groups {
		out.Groups[i] = sliceRowsGroup(g, r0, r1)
	}
	return out
}

func sliceRowsGroup(g ColGroup, r0, r1 int) ColGroup {
	switch t := g.(type) {
	case *DDCGroup:
		s := &DDCGroup{Cols: t.Cols, Dict: t.Dict, Counts: make([]int32, len(t.Counts))}
		if t.Codes8 != nil {
			s.Codes8 = t.Codes8[r0:r1]
			for _, k := range s.Codes8 {
				s.Counts[k]++
			}
		} else {
			s.Codes16 = t.Codes16[r0:r1]
			for _, k := range s.Codes16 {
				s.Counts[k]++
			}
		}
		return s
	case *RLEGroup:
		s := &RLEGroup{Col: t.Col}
		for i, v := range t.Values {
			lo, hi := t.runRange(i, r0, r1)
			if lo >= hi {
				continue
			}
			s.Values = append(s.Values, v)
			s.Starts = append(s.Starts, int32(lo-r0))
			s.Lens = append(s.Lens, int32(hi-lo))
		}
		return s
	case *SDCGroup:
		lo, hi := t.posRange(r0, r1)
		s := &SDCGroup{Col: t.Col, N: r1 - r0, Default: t.Default,
			Dict: t.Dict, Counts: make([]int32, len(t.Dict)),
			Pos: make([]int32, hi-lo), Codes: t.Codes[lo:hi]}
		for i := lo; i < hi; i++ {
			s.Pos[i-lo] = t.Pos[i] - int32(r0)
			s.Counts[t.Codes[i]]++
		}
		return s
	case *UncompressedGroup:
		blk, err := matrix.Slice(t.Data, r0, r1, 0, t.Data.Cols())
		if err != nil {
			// bounds derive from the receiver's own shape; stay total anyway
			blk = matrix.NewDense(r1-r0, t.Data.Cols())
			for r := r0; r < r1; r++ {
				for j := 0; j < t.Data.Cols(); j++ {
					blk.Set(r-r0, j, t.Data.Get(r, j))
				}
			}
			blk = blk.ExamineAndApplySparsity()
		}
		return &UncompressedGroup{ColIdx: t.ColIdx, Data: blk}
	}
	return g
}
