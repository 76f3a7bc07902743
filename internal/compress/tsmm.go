package compress

import (
	"github.com/systemds/systemds-go/internal/matrix"
)

// Compressed TSMM t(X) %*% X: the n x n Gram matrix decomposes over column
// group pairs, R[Ci, Cj] = sum_r X[r, Ci] * X[r, Cj]. For dictionary-coded
// groups the row sum collapses onto the small dictionaries: self blocks are
// counts-weighted dictionary cross products t(D_i) %*% diag(counts_i) %*% D_i,
// and cross blocks are co-occurrence-weighted products t(D_i) %*% C_ij %*% D_j
// where C_ij counts how often code pair (k_i, k_j) occurs across the rows —
// one O(rows) scan per pair instead of an O(rows * w_i * w_j) cell product
// (Elgohary et al., PVLDB 2016, §5). Uncompressed groups (and pairs whose
// co-occurrence table would not pay off) fall back to multiplying against
// decompressed row stripes staged through the pooled GEMM scratch buffers.
//
// Determinism: group pairs write disjoint output blocks (groups cover disjoint
// columns), so pair-parallel execution needs no synchronization; within a pair
// every accumulation runs in a fixed ascending order (codes, then row chunks),
// so results are bitwise identical across thread counts.

// maxCoocEntries caps the co-occurrence table built for one group pair; pairs
// whose joint code space is larger fall back to the stripe path (the table
// would cost more to fill and scan than the dense product it replaces).
const maxCoocEntries = 1 << 22

// asDDC returns a group in dictionary-coded form for the TSMM and t(X) %*% B
// kernels: a DDC group as it is, an SDC or RLE group expanded into a
// temporary DDC group with one code per row, and nil for uncompressed groups.
func asDDC(g ColGroup, rows int) *DDCGroup {
	switch t := g.(type) {
	case *DDCGroup:
		return t
	case *SDCGroup:
		// code 0 is the default value, exception codes shift up by one
		nv := len(t.Dict) + 1
		d := &DDCGroup{Cols: []int{t.Col}, Dict: make([]float64, nv), Counts: make([]int32, nv)}
		d.Dict[0] = t.Default
		copy(d.Dict[1:], t.Dict)
		d.Counts[0] = int32(t.N - len(t.Pos))
		copy(d.Counts[1:], t.Counts)
		codes := make([]uint16, rows)
		for i, p := range t.Pos {
			codes[p] = t.Codes[i] + 1
		}
		d.Codes8, d.Codes16 = narrowCodes(codes, nv)
		return d
	case *RLEGroup:
		// first-occurrence value dictionary, runs expanded to per-row codes
		d := &DDCGroup{Cols: []int{t.Col}}
		codes := make([]uint16, rows)
		idx := map[float64]int{}
		for i, v := range t.Values {
			k, ok := idx[v]
			if !ok {
				k = len(d.Dict)
				idx[v] = k
				d.Dict = append(d.Dict, v)
				d.Counts = append(d.Counts, 0)
			}
			d.Counts[k] += t.Lens[i]
			for r := int(t.Starts[i]); r < int(t.Starts[i]+t.Lens[i]); r++ {
				codes[r] = uint16(k)
			}
		}
		d.Codes8, d.Codes16 = narrowCodes(codes, len(d.Dict))
		return d
	}
	return nil
}

// stripeInto expands rows [r0, r1) into a dense row-major stripe of width
// len(g.Cols).
func (g *DDCGroup) stripeInto(s []float64, r0, r1 int) {
	w := len(g.Cols)
	for r := r0; r < r1; r++ {
		copy(s[(r-r0)*w:(r-r0)*w+w], g.Dict[g.code(r)*w:])
	}
}

// coocCounts fills the a.numVals() x b.numVals() co-occurrence table of code
// pairs by one joint scan over the rows.
func coocCounts(a, b *DDCGroup, rows int) []int32 {
	bn := b.numVals()
	t := make([]int32, a.numVals()*bn)
	switch {
	case a.Codes8 != nil && b.Codes8 != nil:
		countPairs(t, a.Codes8[:rows], b.Codes8[:rows], bn)
	case a.Codes8 != nil:
		countPairs(t, a.Codes8[:rows], b.Codes16[:rows], bn)
	case b.Codes8 != nil:
		countPairs(t, a.Codes16[:rows], b.Codes8[:rows], bn)
	default:
		countPairs(t, a.Codes16[:rows], b.Codes16[:rows], bn)
	}
	return t
}

// countPairs counts the code pair (a[r], b[r]) of every row into t, whose
// rows are bn wide.
func countPairs[A, B uint8 | uint16](t []int32, a []A, b []B, bn int) {
	b = b[:len(a)]
	for r, ka := range a {
		t[int(ka)*bn+int(b[r])]++
	}
}

// tsmmSide is one side of a group pair: either a dictionary-coded group or
// the dense values of an uncompressed group (row-major rows x len(cols)).
type tsmmSide struct {
	cols  []int
	ddc   *DDCGroup
	dense []float64
}

// chunkValues returns the dense row-major values of rows [r0, r1), expanding
// coded groups into the caller's pooled stripe buffer.
func (s *tsmmSide) chunkValues(buf []float64, r0, r1 int) []float64 {
	w := len(s.cols)
	if s.dense != nil {
		return s.dense[r0*w : r1*w]
	}
	s.ddc.stripeInto(buf, r0, r1)
	return buf[:(r1-r0)*w]
}

// tsmmSides normalizes every group once (dictionary-coded form for DDC, SDC
// and RLE groups, densified values for uncompressed groups).
func (c *CompressedMatrix) tsmmSides(threads int) []*tsmmSide {
	sides := make([]*tsmmSide, len(c.Groups))
	forEachGroup(c.Groups, threads, func(i int, g ColGroup) {
		s := &tsmmSide{cols: g.Columns()}
		if d := asDDC(g, c.NumRows); d != nil {
			s.ddc = d
		} else {
			u := g.(*UncompressedGroup)
			s.dense = denseBlockValues(u.Data)
		}
		sides[i] = s
	})
	return sides
}

// TSMM computes t(X) %*% X directly on the compressed representation,
// returning the n x n Gram matrix.
func (c *CompressedMatrix) TSMM(threads int) *matrix.MatrixBlock {
	n := c.NumCols
	rows := c.NumRows
	out := matrix.NewDense(n, n)
	dst := out.DenseValues()
	sides := c.tsmmSides(threads)
	// enumerate group pairs (i <= j) in a fixed order; each pair owns the
	// disjoint output blocks R[Ci, Cj] and R[Cj, Ci]
	type pair struct{ i, j int }
	pairs := make([]pair, 0, len(c.Groups)*(len(c.Groups)+1)/2)
	for i := range c.Groups {
		for j := i; j < len(c.Groups); j++ {
			pairs = append(pairs, pair{i, j})
		}
	}
	forEachIndex(len(pairs), threads, func(pi int) {
		p := pairs[pi]
		if p.i == p.j {
			tsmmSelf(dst, n, c.Groups[p.i], sides[p.i], rows)
			return
		}
		tsmmCross(dst, n, sides[p.i], sides[p.j], rows)
	})
	out.RecomputeNNZ()
	return out
}

// tsmmSelf fills the diagonal block R[Ci, Ci] of one group.
func tsmmSelf(dst []float64, n int, g ColGroup, s *tsmmSide, rows int) {
	if d := s.ddc; d != nil {
		// counts-weighted dictionary self product: every (a, b) column pair
		// accumulates over the tuple dictionary in ascending code order
		w := len(d.Cols)
		for a := 0; a < w; a++ {
			for b := a; b < w; b++ {
				var sum float64
				for k, cnt := range d.Counts {
					if cnt == 0 {
						continue
					}
					sum += float64(float64(cnt) * d.Dict[k*w+a] * d.Dict[k*w+b])
				}
				ca, cb := d.Cols[a], d.Cols[b]
				dst[ca*n+cb] = sum
				dst[cb*n+ca] = sum
			}
		}
		return
	}
	// uncompressed fallback: tiled TSMM over the group's own block, scattered
	// to the global column positions
	u := g.(*UncompressedGroup)
	//sysds:ok(threadplumb): pair-level parallelism already saturates the workers; the per-pair kernel stays sequential by design
	gram := matrix.TSMM(u.Data, 1)
	for a, ca := range s.cols {
		for b, cb := range s.cols {
			dst[ca*n+cb] = gram.Get(a, b)
		}
	}
}

// tsmmCross fills the off-diagonal blocks R[Ci, Cj] and R[Cj, Ci] of a group
// pair.
func tsmmCross(dst []float64, n int, si, sj *tsmmSide, rows int) {
	wi, wj := len(si.cols), len(sj.cols)
	if di, dj := si.ddc, sj.ddc; di != nil && dj != nil &&
		di.numVals()*dj.numVals() <= maxCoocEntries {
		// co-occurrence-weighted dictionary cross product
		ni, nj := di.numVals(), dj.numVals()
		cooc := coocCounts(di, dj, rows)
		for a := 0; a < wi; a++ {
			for b := 0; b < wj; b++ {
				var sum float64
				for ki := 0; ki < ni; ki++ {
					da := di.Dict[ki*wi+a]
					if da == 0 {
						continue
					}
					row := cooc[ki*nj:]
					for kj := 0; kj < nj; kj++ {
						cnt := row[kj]
						if cnt == 0 {
							continue
						}
						sum += float64(float64(cnt) * da * dj.Dict[kj*wj+b])
					}
				}
				ca, cb := si.cols[a], sj.cols[b]
				dst[ca*n+cb] = sum
				dst[cb*n+ca] = sum
			}
		}
		return
	}
	// stripe fallback: decompress both sides chunk by chunk (pooled scratch)
	// and accumulate the dense cross product in ascending chunk order
	acc := make([]float64, wi*wj)
	bufI := matrix.GetScratch(compressedChunkRows * wi)
	bufJ := matrix.GetScratch(compressedChunkRows * wj)
	nChunks, chunkSize := rowChunks(rows)
	for ci := 0; ci < nChunks; ci++ {
		r0 := ci * chunkSize
		r1 := min(r0+chunkSize, rows)
		vi := si.chunkValues(bufI.Values(), r0, r1)
		vj := sj.chunkValues(bufJ.Values(), r0, r1)
		for r := 0; r < r1-r0; r++ {
			ri, rj := vi[r*wi:r*wi+wi], vj[r*wj:r*wj+wj]
			for a, va := range ri {
				if va == 0 {
					continue
				}
				arow := acc[a*wj:]
				for b, vb := range rj {
					arow[b] += float64(va * vb)
				}
			}
		}
	}
	matrix.PutScratch(bufI)
	matrix.PutScratch(bufJ)
	for a, ca := range si.cols {
		for b, cb := range sj.cols {
			dst[ca*n+cb] = acc[a*wj+b]
			dst[cb*n+ca] = acc[a*wj+b]
		}
	}
}

// denseBlockValues returns the row-major dense values of a block without
// mutating the caller's representation.
func denseBlockValues(m *matrix.MatrixBlock) []float64 {
	if !m.IsSparse() {
		return m.DenseValues()
	}
	return m.Copy().DenseValues()
}
