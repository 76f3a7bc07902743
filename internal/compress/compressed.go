package compress

import (
	"fmt"

	"github.com/systemds/systemds-go/internal/matrix"
)

// CompressedMatrix is a matrix stored as a set of compressed column groups.
// Every column of the matrix belongs to exactly one group and every group
// covers all rows, so kernels iterate groups independently and combine by
// global row/column index. The representation is immutable, like
// matrix.MatrixBlock results: kernels always build new objects.
type CompressedMatrix struct {
	NumRows, NumCols int
	Groups           []ColGroup
}

// Rows returns the number of rows.
func (c *CompressedMatrix) Rows() int { return c.NumRows }

// Cols returns the number of columns.
func (c *CompressedMatrix) Cols() int { return c.NumCols }

// NNZ returns the exact number of non-zero cells.
func (c *CompressedMatrix) NNZ() int64 {
	var nnz int64
	for _, g := range c.Groups {
		nnz += g.NNZ()
	}
	return nnz
}

// InMemorySize estimates the in-memory footprint in bytes.
func (c *CompressedMatrix) InMemorySize() int64 {
	s := int64(64)
	for _, g := range c.Groups {
		s += g.InMemorySize()
	}
	return s
}

// String renders the compressed matrix for debugging.
func (c *CompressedMatrix) String() string {
	return fmt.Sprintf("CompressedMatrix[%dx%d, %d groups, %dB]",
		c.NumRows, c.NumCols, len(c.Groups), c.InMemorySize())
}

// EncodingSummary renders the per-encoding group counts
// ("ddc=3,rle=1,sdc=0,cc=0,unc=1") — the group-type histogram used in plan
// records and tests.
func (c *CompressedMatrix) EncodingSummary() string {
	var ddc, rle, sdc, cc, unc int
	for _, g := range c.Groups {
		switch g.Encoding() {
		case EncDDC:
			ddc++
		case EncRLE:
			rle++
		case EncSDC:
			sdc++
		case EncCoCoded:
			cc++
		default:
			unc++
		}
	}
	return fmt.Sprintf("ddc=%d,rle=%d,sdc=%d,cc=%d,unc=%d", ddc, rle, sdc, cc, unc)
}

// Decompress materializes the compressed matrix into a plain matrix block
// (the transparent fallback for operators without a compressed kernel).
func (c *CompressedMatrix) Decompress() *matrix.MatrixBlock {
	out := matrix.NewDense(c.NumRows, c.NumCols)
	dst := out.DenseValues()
	for _, g := range c.Groups {
		g.DecompressInto(dst, c.NumCols, 0, c.NumRows)
	}
	out.RecomputeNNZ()
	return out.ExamineAndApplySparsity()
}

// --- deterministic fixed-chunk row partitioning ------------------------------

const (
	// compressedChunkRows is the target rows per parallel chunk. Boundaries
	// depend only on the row count, and every output row is written by exactly
	// one chunk, so results are bitwise identical across thread counts.
	compressedChunkRows = 1024
)

// rowChunks derives the fixed chunking of the row range: chunk size and count
// are functions of the row count alone, never of the thread count.
func rowChunks(rows int) (nChunks, chunkSize int) {
	if rows <= compressedChunkRows {
		return 1, rows
	}
	nChunks = (rows + compressedChunkRows - 1) / compressedChunkRows
	return nChunks, compressedChunkRows
}

// forEachRowChunk runs fn over the fixed row chunks on up to `threads`
// workers. Chunks own disjoint row ranges, so no synchronization of the
// output is needed.
func forEachRowChunk(rows, threads int, fn func(r0, r1 int)) {
	nChunks, chunkSize := rowChunks(rows)
	_ = matrix.ParallelFor(nChunks, threads, func(_, ci int) error {
		fn(ci*chunkSize, min(ci*chunkSize+chunkSize, rows))
		return nil
	})
}

// forEachIndex runs fn over indexes [0, n) on up to `threads` workers. Work
// items must write disjoint outputs; the index set (and therefore the work
// decomposition) depends only on n, never on the thread count.
func forEachIndex(n, threads int, fn func(i int)) {
	_ = matrix.ParallelFor(n, threads, func(_, i int) error {
		fn(i)
		return nil
	})
}

// forEachGroup runs fn over the column groups on up to `threads` workers.
// Groups cover disjoint columns, so group-indexed outputs need no locking.
func forEachGroup(groups []ColGroup, threads int, fn func(i int, g ColGroup)) {
	forEachIndex(len(groups), threads, func(i int) { fn(i, groups[i]) })
}

// ddcFuse is the most one-byte-code DDC groups that one MatVec pass gathers
// and one VecMat task buckets together (BenchmarkCompressedMVGD and
// BenchmarkCompressedVecMatGD chose it).
const ddcFuse = 4

// fusable reports whether g takes part in the fused DDC passes: a DDC group
// with one-byte codes, so a 256-slot table serves any code without a bounds
// check (Read and the encoder give one-byte codes only to dictionaries of at
// most 256 tuples).
func fusable(g ColGroup) bool {
	d, ok := g.(*DDCGroup)
	return ok && d.Codes8 != nil
}

// ddcRuns cuts groups, in order, into runs of up to ddcFuse consecutive
// fusable groups and single other groups: a function of the group list
// alone, never of the thread count.
func ddcRuns(groups []ColGroup) [][]ColGroup {
	var runs [][]ColGroup
	for i := 0; i < len(groups); {
		j := i + 1
		if fusable(groups[i]) {
			for j < len(groups) && j-i < ddcFuse && fusable(groups[j]) {
				j++
			}
		}
		runs = append(runs, groups[i:j])
		i = j
	}
	return runs
}

// MatVec computes the matrix-vector product c %*% v directly on the
// compressed representation: each live DDC group's dictionary is pre-scaled
// by the vector once per product, then rows gather by code — the CLA
// pre-aggregation that touches the small encoded data instead of the dense
// cells. Rows are cut into the fixed chunks; within a chunk, runs of
// one-byte-code DDC groups are gathered in one pass that loads and stores
// each output row once, and every other group runs its own loop at its place
// in group order. Each output row therefore gets its groups' additions in
// group order at every thread count. The result is an m x 1 dense block.
func (c *CompressedMatrix) MatVec(v *matrix.MatrixBlock, threads int) (*matrix.MatrixBlock, error) {
	if v.Rows() != c.NumCols || v.Cols() != 1 {
		return nil, fmt.Errorf("compress: matvec vector is %dx%d, want %dx1", v.Rows(), v.Cols(), c.NumCols)
	}
	vd := denseVector(v)
	out := matrix.NewDense(c.NumRows, 1)
	dst := out.DenseValues()
	steps, scratch := c.mvSteps(vd)
	forEachRowChunk(c.NumRows, threads, func(r0, r1 int) {
		seg := dst[r0:r1]
		for i := range steps {
			steps[i].accum(seg, vd, r0, r1)
		}
	})
	matrix.PutScratch(scratch)
	out.RecomputeNNZ()
	return out, nil
}

// mvStep is one pass of MatVec over a row chunk: a run of fusable groups or
// one two-byte-code DDC group, with their dictionaries pre-scaled for the
// product, or one other group, which runs its own MatVecAccum.
type mvStep struct {
	groups []ColGroup
	pre    [][]float64 // per DDC group: 256 slots for one-byte codes, else one per tuple
}

// mvSteps pre-scales every live DDC group's dictionary once into one pooled
// buffer (released by the caller) and returns the passes of the product in
// group order. A group that adds nothing is left out, so the runs around it
// join.
func (c *CompressedMatrix) mvSteps(v []float64) ([]mvStep, matrix.Scratch) {
	live := make([]ColGroup, 0, len(c.Groups))
	slots := 0
	for _, g := range c.Groups {
		if mvDead(g, v) {
			continue
		}
		live = append(live, g)
		if d, ok := g.(*DDCGroup); ok {
			slots += mvSlots(d)
		}
	}
	scratch := matrix.GetScratch(slots)
	buf := scratch.Values()
	runs := ddcRuns(live)
	steps := make([]mvStep, len(runs))
	for i, run := range runs {
		steps[i].groups = run
		for _, g := range run {
			d, ok := g.(*DDCGroup)
			if !ok {
				break
			}
			pre := buf[:mvSlots(d)]
			buf = buf[len(pre):]
			d.preScale(pre, v)
			steps[i].pre = append(steps[i].pre, pre)
		}
	}
	return steps, scratch
}

// mvSlots is the pre-scaled dictionary length of d in MatVec.
func mvSlots(d *DDCGroup) int {
	if d.Codes8 != nil {
		return 256
	}
	return d.numVals()
}

// mvDead reports whether g adds nothing to c %*% v because every v entry of
// its columns is 0. An uncompressed group is never dead: it multiplies its
// cells, 0 · Inf included.
func mvDead(g ColGroup, v []float64) bool {
	switch t := g.(type) {
	case *DDCGroup:
		for _, c := range t.Cols {
			if v[c] != 0 {
				return false
			}
		}
		return true
	case *RLEGroup:
		return v[t.Col] == 0
	case *SDCGroup:
		return v[t.Col] == 0
	}
	return false
}

// accum adds the step's groups to out, rows [r0, r1) of the product.
func (s *mvStep) accum(out, v []float64, r0, r1 int) {
	if len(s.pre) == 0 {
		s.groups[0].MatVecAccum(out, v, r0, r1)
		return
	}
	if d := s.groups[0].(*DDCGroup); d.Codes16 != nil {
		gatherCodes(out, s.pre[0], d.Codes16[r0:r1])
		return
	}
	pre, groups := s.pre, s.groups
	for len(groups) > 0 {
		codes := func(i int) []uint8 { return groups[i].(*DDCGroup).Codes8[r0:r1] }
		tab := func(i int) *[256]float64 { return (*[256]float64)(pre[i]) }
		n := 1
		switch {
		case len(groups) >= 4:
			gather4(out, tab(0), tab(1), tab(2), tab(3), codes(0), codes(1), codes(2), codes(3))
			n = 4
		case len(groups) >= 2:
			gather2(out, tab(0), tab(1), codes(0), codes(1))
			n = 2
		default:
			gather1(out, tab(0), codes(0))
		}
		pre, groups = pre[n:], groups[n:]
	}
}

// gather4, gather2 and gather1 add the pre-scaled values of four, two or one
// groups' codes to each row, in group order, loading and storing the row
// once.
func gather4(out []float64, p0, p1, p2, p3 *[256]float64, c0, c1, c2, c3 []uint8) {
	c0, c1, c2, c3 = c0[:len(out)], c1[:len(out)], c2[:len(out)], c3[:len(out)]
	for r := range out {
		s := out[r]
		s += p0[c0[r]]
		s += p1[c1[r]]
		s += p2[c2[r]]
		s += p3[c3[r]]
		out[r] = s
	}
}

func gather2(out []float64, p0, p1 *[256]float64, c0, c1 []uint8) {
	c0, c1 = c0[:len(out)], c1[:len(out)]
	for r := range out {
		s := out[r]
		s += p0[c0[r]]
		s += p1[c1[r]]
		out[r] = s
	}
}

func gather1(out []float64, p0 *[256]float64, c0 []uint8) {
	c0 = c0[:len(out)]
	for r := range out {
		out[r] += p0[c0[r]]
	}
}

// VecMat computes the vector-matrix product v %*% c directly on the
// compressed representation: per group, the vector entries are aggregated by
// dictionary code (or run) first, then combined with the values once. A task
// is a run of up to ddcFuse one-byte-code DDC groups, whose buckets fill in
// one pass over v, or one other group. Each bucket sums its rows in
// ascending order, and tasks own disjoint output columns, so the result, a
// 1 x n dense block, is the same at every thread count.
func (c *CompressedMatrix) VecMat(v *matrix.MatrixBlock, threads int) (*matrix.MatrixBlock, error) {
	if v.Rows() != 1 || v.Cols() != c.NumRows {
		return nil, fmt.Errorf("compress: vecmat vector is %dx%d, want 1x%d", v.Rows(), v.Cols(), c.NumRows)
	}
	vd := denseVector(v)
	out := matrix.NewDense(1, c.NumCols)
	dst := out.DenseValues()
	runs := ddcRuns(c.Groups)
	forEachIndex(len(runs), threads, func(i int) {
		if run := runs[i]; fusable(run[0]) {
			vecMatRun(dst, vd, run)
		} else {
			run[0].VecMatAccum(dst, vd)
		}
	})
	out.RecomputeNNZ()
	return out, nil
}

// vecMatRun adds a run of fusable groups to v %*% c: one pass over v fills a
// 256-slot bucket per group, rows ascending, then each group combines its
// buckets with its dictionary.
func vecMatRun(out, v []float64, run []ColGroup) {
	var bk [ddcFuse][256]float64
	codes := func(i int) []uint8 { return run[i].(*DDCGroup).Codes8 }
	for i := 0; i < len(run); {
		switch {
		case len(run)-i >= 4:
			bucket4(v, &bk[i], &bk[i+1], &bk[i+2], &bk[i+3], codes(i), codes(i+1), codes(i+2), codes(i+3))
			i += 4
		case len(run)-i >= 2:
			bucket2(v, &bk[i], &bk[i+1], codes(i), codes(i+1))
			i += 2
		default:
			bucket1(v, &bk[i], codes(i))
			i++
		}
	}
	for i, g := range run {
		d := g.(*DDCGroup)
		d.vecMatCombine(out, bk[i][:d.numVals()])
	}
}

// bucket4, bucket2 and bucket1 add each v[r] to the bucket of row r's code
// in four, two or one groups.
func bucket4(v []float64, b0, b1, b2, b3 *[256]float64, c0, c1, c2, c3 []uint8) {
	c0, c1, c2, c3 = c0[:len(v)], c1[:len(v)], c2[:len(v)], c3[:len(v)]
	for r, x := range v {
		b0[c0[r]] += x
		b1[c1[r]] += x
		b2[c2[r]] += x
		b3[c3[r]] += x
	}
}

func bucket2(v []float64, b0, b1 *[256]float64, c0, c1 []uint8) {
	c0, c1 = c0[:len(v)], c1[:len(v)]
	for r, x := range v {
		b0[c0[r]] += x
		b1[c1[r]] += x
	}
}

func bucket1(v []float64, b0 *[256]float64, c0 []uint8) {
	c0 = c0[:len(v)]
	for r, x := range v {
		b0[c0[r]] += x
	}
}

// MapValues applies fn to every cell and returns a new compressed matrix: fn
// maps a row of values src into dst and must be safe for concurrent calls.
// Encoding structure (codes, run positions) is shared with the receiver; only
// the value dictionaries are rewritten — scalar operations, cellwise unaries
// and fused cellwise chains over compressed data and scalars are
// dictionary-only updates (matrix.CellMap builds fn from a cell program).
func (c *CompressedMatrix) MapValues(fn func(dst, src []float64), threads int) *CompressedMatrix {
	out := &CompressedMatrix{NumRows: c.NumRows, NumCols: c.NumCols, Groups: make([]ColGroup, len(c.Groups))}
	forEachGroup(c.Groups, threads, func(i int, g ColGroup) {
		out.Groups[i] = g.MapValues(fn)
	})
	return out
}

// Sum returns the sum of all cells (dictionary-weighted counts; no cell scan).
func (c *CompressedMatrix) Sum() float64 {
	var s float64
	for _, g := range c.Groups {
		s += g.Sum()
	}
	return s
}

// Aggregate runs a row of the aggregate table on the column groups, without
// decompressing, where the row's reduction and axis have a kernel here: sums
// over the matrix, its rows or its columns (dictionary-weighted counts, so
// within rounding of the local rung, not bitwise), the full min and max (each
// group's values folded by the row's rule, so a NaN is never kept) and nnz.
// A mean is finished like any rung's. ok is false for every other row, which
// runs on the decompressed matrix.
func (c *CompressedMatrix) Aggregate(agg *matrix.Aggregate, threads int) (v float64, vec *matrix.MatrixBlock, ok bool) {
	switch red := agg.Red; {
	case agg.Axis == matrix.AggFull && red == matrix.ReduceSum:
		v = c.Sum()
	case agg.Axis == matrix.AggRow && red == matrix.ReduceSum:
		vec = c.RowSums(threads)
	case agg.Axis == matrix.AggCol && red == matrix.ReduceSum:
		vec = c.ColSums()
	case agg.Axis == matrix.AggFull && (red == matrix.ReduceMin || red == matrix.ReduceMax):
		v = red.Initial()
		for _, g := range c.Groups {
			v = g.Fold(red, v)
		}
	case agg.Axis == matrix.AggFull && red == matrix.ReduceNNZ:
		v = float64(c.NNZ())
	default:
		return 0, nil, false
	}
	return agg.Finish(v, vec, c.NumRows, c.NumCols), vec, true
}

// ColSums returns the per-column sums as a 1 x n block.
func (c *CompressedMatrix) ColSums() *matrix.MatrixBlock {
	out := matrix.NewDense(1, c.NumCols)
	dst := out.DenseValues()
	for _, g := range c.Groups {
		g.ColSumsInto(dst)
	}
	out.RecomputeNNZ()
	return out
}

// RowSums returns the per-row sums as an m x 1 block.
func (c *CompressedMatrix) RowSums(threads int) *matrix.MatrixBlock {
	out := matrix.NewDense(c.NumRows, 1)
	dst := out.DenseValues()
	forEachRowChunk(c.NumRows, threads, func(r0, r1 int) {
		seg := dst[r0:r1]
		for _, g := range c.Groups {
			g.RowSumsAccum(seg, r0, r1)
		}
	})
	out.RecomputeNNZ()
	return out
}

// denseVector returns the dense values of a vector block without mutating the
// caller's representation.
func denseVector(v *matrix.MatrixBlock) []float64 {
	if !v.IsSparse() {
		return v.DenseValues()
	}
	return v.Copy().DenseValues()
}
