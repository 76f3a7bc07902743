// Package compress implements compressed linear algebra (CLA) for
// SystemDS-Go: matrices are compressed column-wise into encoded column
// groups — DDC (dense dictionary coding) for low-cardinality columns and
// co-coded sets of correlated columns, SDC (sparse dictionary coding) for
// mostly-constant columns, RLE (run-length encoding) for run-heavy columns,
// and an uncompressed-column fallback — and linear-algebra kernels execute
// directly on the compressed representation without decompressing (Elgohary
// et al., "Compressed Linear Algebra for Large-Scale Machine Learning", PVLDB
// 2016). A sample-based planner estimates per-column cardinality and run
// structure, picks the cheapest encoding per column, merges adjacent
// correlated columns into shared DDC groups, and rejects compression outright
// when the estimated ratio is too small to pay for itself.
package compress

import (
	"github.com/systemds/systemds-go/internal/matrix"
)

// Encoding names a column-group encoding scheme.
type Encoding int

// Column-group encodings.
const (
	// EncDDC is dense dictionary coding of one column: every row stores a
	// small code indexing a dictionary of the column's distinct values.
	EncDDC Encoding = iota
	// EncRLE is run-length encoding: the column is a sequence of
	// (value, start, length) runs covering every row, zeros included.
	EncRLE
	// EncUncompressed keeps the columns as a plain matrix block.
	EncUncompressed
	// EncCoCoded is dense dictionary coding of several correlated columns
	// (co-coding): one code per row indexes a dictionary of value tuples.
	// Both are DDCGroup; the tag tells the widths apart in plans.
	EncCoCoded
	// EncSDC is sparse dictionary coding: a default value covers most rows
	// and only the exception positions store dictionary codes.
	EncSDC
)

// String returns the short encoding name used in plan strings.
func (e Encoding) String() string {
	switch e {
	case EncDDC:
		return "ddc"
	case EncRLE:
		return "rle"
	case EncCoCoded:
		return "cc"
	case EncSDC:
		return "sdc"
	default:
		return "unc"
	}
}

// ColGroup is one compressed column group. All groups cover every row of the
// matrix (zeros are represented explicitly in the dictionary or runs), so
// value-map operations (scalar ops, cellwise unaries) are dictionary-only
// updates. Kernels index vectors by global row/column positions.
type ColGroup interface {
	// Columns returns the global column indexes the group covers, ascending.
	Columns() []int
	// Encoding returns the group's encoding scheme.
	Encoding() Encoding
	// InMemorySize estimates the group's in-memory footprint in bytes.
	InMemorySize() int64
	// NNZ returns the exact number of non-zero cells in the group.
	NNZ() int64
	// DecompressInto scatters rows [r0, r1) of the group into the dense
	// row-major output of width nCols.
	DecompressInto(out []float64, nCols, r0, r1 int)
	// MatVecAccum accumulates out[r-r0] += sum_c group(r,c)*v[c] for rows
	// [r0, r1); v is indexed by global column, out holds rows [r0, r1).
	// CompressedMatrix.MatVec runs it for RLE, SDC and uncompressed groups;
	// it pre-scales DDC dictionaries once per product itself.
	MatVecAccum(out, v []float64, r0, r1 int)
	// VecMatAccum accumulates out[c] += sum_r v[r]*group(r,c) over all rows;
	// out is indexed by global column.
	VecMatAccum(out, v []float64)
	// MapValues returns a new group with fn applied to every cell value: fn
	// maps a row of values src into dst (equal lengths; it is called with
	// dst == src when the values are rewritten in place). The encoding
	// structure (codes, run positions) is shared, only the value dictionary
	// is rewritten — the dictionary-only update of CLA.
	MapValues(fn func(dst, src []float64)) ColGroup
	// Sum returns the sum of all cells.
	Sum() float64
	// Fold folds the group's cell values into acc by op, a min or max
	// reduction: every value that occurs is folded at least once, which is
	// exact for them, and by op's rule a NaN is never kept.
	Fold(op matrix.Reduction, acc float64) float64
	// ColAggInto writes per-column sums into out (global column indexing).
	ColSumsInto(out []float64)
	// RowSumsAccum accumulates per-row sums for rows [r0, r1).
	RowSumsAccum(out []float64, r0, r1 int)
}

// --- DDC: dense dictionary coding -----------------------------------------

// DDCGroup encodes an ascending set of columns as one code per row indexing a
// dictionary of value tuples (one value per member column). Codes are stored
// in one byte when the dictionary has at most 256 tuples (DDC1) and two bytes
// otherwise (DDC2, up to 65536 tuples). A single column is the width-one
// case; which adjacent correlated columns share one group is the planner's
// co-coding decision (Elgohary et al., PVLDB 2016, §4.2; see cocodePlan):
// when columns are correlated, the joint cardinality is far below the product
// of the per-column cardinalities, so one code per row replaces len(Cols).
type DDCGroup struct {
	Cols   []int     // ascending global column indexes
	Dict   []float64 // tuple-major: tuple k occupies Dict[k*len(Cols) : (k+1)*len(Cols)]
	Counts []int32   // occurrences per tuple (len == len(Dict)/len(Cols))
	// exactly one of Codes8/Codes16 is non-nil, with one code per row
	Codes8  []uint8
	Codes16 []uint16
}

// Columns implements ColGroup.
func (g *DDCGroup) Columns() []int { return g.Cols }

// Encoding implements ColGroup: EncDDC for one column, EncCoCoded for a
// co-coded column set.
func (g *DDCGroup) Encoding() Encoding {
	if len(g.Cols) == 1 {
		return EncDDC
	}
	return EncCoCoded
}

// numVals returns the number of dictionary tuples.
func (g *DDCGroup) numVals() int { return len(g.Counts) }

// code returns the dictionary code of row r.
func (g *DDCGroup) code(r int) int {
	if g.Codes8 != nil {
		return int(g.Codes8[r])
	}
	return int(g.Codes16[r])
}

// gather adds pre[code(r)] to out[r-r0] for rows [r0, r1).
func (g *DDCGroup) gather(out, pre []float64, r0, r1 int) {
	if g.Codes8 != nil {
		gatherCodes(out, pre, g.Codes8[r0:r1])
	} else {
		gatherCodes(out, pre, g.Codes16[r0:r1])
	}
}

// gatherCodes adds pre[codes[r]] to out[r]; the codes sit in a local slice
// so the loop does not reload them from the group after every store.
func gatherCodes[T uint8 | uint16](out, pre []float64, codes []T) {
	out = out[:len(codes)]
	for r, k := range codes {
		out[r] += pre[k]
	}
}

// InMemorySize implements ColGroup.
func (g *DDCGroup) InMemorySize() int64 {
	s := int64(len(g.Dict))*8 + int64(len(g.Counts))*4 + int64(len(g.Cols))*8 + 64
	if g.Codes8 != nil {
		s += int64(len(g.Codes8))
	} else {
		s += int64(len(g.Codes16)) * 2
	}
	return s
}

// NNZ implements ColGroup.
func (g *DDCGroup) NNZ() int64 {
	w := len(g.Cols)
	var nnz int64
	for k, cnt := range g.Counts {
		for j := 0; j < w; j++ {
			if g.Dict[k*w+j] != 0 {
				nnz += int64(cnt)
			}
		}
	}
	return nnz
}

// DecompressInto implements ColGroup.
func (g *DDCGroup) DecompressInto(out []float64, nCols, r0, r1 int) {
	w := len(g.Cols)
	for r := r0; r < r1; r++ {
		k := g.code(r)
		for j, c := range g.Cols {
			out[(r-r0)*nCols+c] = g.Dict[k*w+j]
		}
	}
}

// MatVecAccum implements ColGroup: each dictionary tuple is reduced against
// the vector entries of the member columns (the CLA pre-scaling), then rows
// gather by code. A group whose entries are all zero contributes nothing.
func (g *DDCGroup) MatVecAccum(out, v []float64, r0, r1 int) {
	if mvDead(g, v) {
		return
	}
	pre := make([]float64, g.numVals())
	g.preScale(pre, v)
	g.gather(out, pre, r0, r1)
}

// preScale sets pre[k], for every tuple k, to the tuple's dot product with
// the member columns' vector entries, accumulated column by column from 0;
// zero entries are skipped.
func (g *DDCGroup) preScale(pre, v []float64) {
	w := len(g.Cols)
	nv := g.numVals()
	clear(pre)
	for j, c := range g.Cols {
		x := v[c]
		if x == 0 {
			continue
		}
		for k, d := 0, g.Dict[j:]; k < nv; k++ {
			pre[k] += float64(d[k*w] * x)
		}
	}
}

// VecMatAccum implements ColGroup: vector entries are aggregated per tuple
// code first, then combined with each member column's dictionary values once.
func (g *DDCGroup) VecMatAccum(out, v []float64) {
	if g.Codes8 != nil {
		vecMatRun(out, v, []ColGroup{g})
		return
	}
	agg := make([]float64, g.numVals())
	for r, c := range g.Codes16 {
		agg[c] += v[r]
	}
	g.vecMatCombine(out, agg)
}

// vecMatCombine adds to out[col], for every member column, the dot product
// of agg (the sums of v per code) with the column's dictionary values.
func (g *DDCGroup) vecMatCombine(out, agg []float64) {
	w := len(g.Cols)
	for j, col := range g.Cols {
		var s float64
		for k := range agg {
			s += float64(agg[k] * g.Dict[k*w+j])
		}
		out[col] += s
	}
}

// MapValues implements ColGroup: codes and counts are shared, only the tuple
// dictionary is rewritten.
func (g *DDCGroup) MapValues(fn func(dst, src []float64)) ColGroup {
	dict := make([]float64, len(g.Dict))
	fn(dict, g.Dict)
	return &DDCGroup{Cols: g.Cols, Dict: dict, Counts: g.Counts, Codes8: g.Codes8, Codes16: g.Codes16}
}

// Sum implements ColGroup.
func (g *DDCGroup) Sum() float64 {
	w := len(g.Cols)
	var s float64
	for k, cnt := range g.Counts {
		var ts float64
		for j := 0; j < w; j++ {
			ts += g.Dict[k*w+j]
		}
		s += float64(float64(cnt) * ts)
	}
	return s
}

// Fold implements ColGroup. Every dictionary tuple occurs at least once.
func (g *DDCGroup) Fold(op matrix.Reduction, acc float64) float64 { return op.Fold(acc, g.Dict) }

// ColSumsInto implements ColGroup.
func (g *DDCGroup) ColSumsInto(out []float64) {
	w := len(g.Cols)
	for j, col := range g.Cols {
		var s float64
		for k, cnt := range g.Counts {
			s += float64(float64(cnt) * g.Dict[k*w+j])
		}
		out[col] += s
	}
}

// RowSumsAccum implements ColGroup: tuple row-sums are precomputed once, then
// rows gather by code.
func (g *DDCGroup) RowSumsAccum(out []float64, r0, r1 int) {
	w := len(g.Cols)
	nv := g.numVals()
	pre := make([]float64, nv)
	for k := 0; k < nv; k++ {
		var s float64
		for j := 0; j < w; j++ {
			s += g.Dict[k*w+j]
		}
		pre[k] = s
	}
	g.gather(out, pre, r0, r1)
}

// --- RLE: run-length encoding ----------------------------------------------

// RLEGroup encodes one column as consecutive runs of equal values. Runs cover
// every row (zero cells form explicit zero runs), so the encoding is closed
// under value-map operations.
type RLEGroup struct {
	Col    int
	Values []float64
	Starts []int32
	Lens   []int32
}

// tooManyRunValues reports whether runs carry more than MaxDictSize distinct
// values. The dictionary kernels code an RLE group's rows by run value in two
// bytes (asDDC), so the encoder and Read refuse such a group.
func tooManyRunValues(values []float64) bool {
	if len(values) <= MaxDictSize {
		return false
	}
	seen := make(map[float64]struct{}, MaxDictSize+1)
	for _, v := range values {
		seen[v] = struct{}{}
		if len(seen) > MaxDictSize {
			return true
		}
	}
	return false
}

// Columns implements ColGroup.
func (g *RLEGroup) Columns() []int { return []int{g.Col} }

// Encoding implements ColGroup.
func (g *RLEGroup) Encoding() Encoding { return EncRLE }

// InMemorySize implements ColGroup.
func (g *RLEGroup) InMemorySize() int64 {
	return int64(len(g.Values))*16 + 64
}

// NNZ implements ColGroup.
func (g *RLEGroup) NNZ() int64 {
	var nnz int64
	for i, v := range g.Values {
		if v != 0 {
			nnz += int64(g.Lens[i])
		}
	}
	return nnz
}

// runRange clips run i to [r0, r1), returning the overlapping half-open row
// range (empty when lo >= hi).
func (g *RLEGroup) runRange(i, r0, r1 int) (int, int) {
	lo, hi := int(g.Starts[i]), int(g.Starts[i]+g.Lens[i])
	if lo < r0 {
		lo = r0
	}
	if hi > r1 {
		hi = r1
	}
	return lo, hi
}

// DecompressInto implements ColGroup.
func (g *RLEGroup) DecompressInto(out []float64, nCols, r0, r1 int) {
	for i, v := range g.Values {
		lo, hi := g.runRange(i, r0, r1)
		for r := lo; r < hi; r++ {
			out[(r-r0)*nCols+g.Col] = v
		}
	}
}

// MatVecAccum implements ColGroup: one multiply per run, spread over the run's
// rows.
func (g *RLEGroup) MatVecAccum(out, v []float64, r0, r1 int) {
	x := v[g.Col]
	if x == 0 {
		return
	}
	for i, val := range g.Values {
		if val == 0 {
			continue
		}
		lo, hi := g.runRange(i, r0, r1)
		p := val * x
		for r := lo; r < hi; r++ {
			out[r-r0] += p
		}
	}
}

// VecMatAccum implements ColGroup: the vector is summed once per run.
func (g *RLEGroup) VecMatAccum(out, v []float64) {
	var s float64
	for i, val := range g.Values {
		if val == 0 {
			continue
		}
		var rs float64
		for r := int(g.Starts[i]); r < int(g.Starts[i]+g.Lens[i]); r++ {
			rs += v[r]
		}
		s += float64(val * rs)
	}
	out[g.Col] += s
}

// MapValues implements ColGroup: run positions are shared, values rewritten.
func (g *RLEGroup) MapValues(fn func(dst, src []float64)) ColGroup {
	vals := make([]float64, len(g.Values))
	fn(vals, g.Values)
	return &RLEGroup{Col: g.Col, Values: vals, Starts: g.Starts, Lens: g.Lens}
}

// Sum implements ColGroup.
func (g *RLEGroup) Sum() float64 {
	var s float64
	for i, v := range g.Values {
		s += float64(v * float64(g.Lens[i]))
	}
	return s
}

// Fold implements ColGroup.
func (g *RLEGroup) Fold(op matrix.Reduction, acc float64) float64 { return op.Fold(acc, g.Values) }

// ColSumsInto implements ColGroup.
func (g *RLEGroup) ColSumsInto(out []float64) { out[g.Col] += g.Sum() }

// RowSumsAccum implements ColGroup.
func (g *RLEGroup) RowSumsAccum(out []float64, r0, r1 int) {
	for i, v := range g.Values {
		if v == 0 {
			continue
		}
		lo, hi := g.runRange(i, r0, r1)
		for r := lo; r < hi; r++ {
			out[r-r0] += v
		}
	}
}

// --- Uncompressed fallback ---------------------------------------------------

// UncompressedGroup keeps a contiguous range of columns as a plain matrix
// block (rows x len(Cols)); incompressible columns land here so the rest of
// the matrix still compresses.
type UncompressedGroup struct {
	ColIdx []int // ascending, contiguous
	Data   *matrix.MatrixBlock
}

// Columns implements ColGroup.
func (g *UncompressedGroup) Columns() []int { return g.ColIdx }

// Encoding implements ColGroup.
func (g *UncompressedGroup) Encoding() Encoding { return EncUncompressed }

// InMemorySize implements ColGroup.
func (g *UncompressedGroup) InMemorySize() int64 { return g.Data.InMemorySize() + 64 }

// NNZ implements ColGroup.
func (g *UncompressedGroup) NNZ() int64 { return g.Data.NNZ() }

// DecompressInto implements ColGroup.
func (g *UncompressedGroup) DecompressInto(out []float64, nCols, r0, r1 int) {
	for r := r0; r < r1; r++ {
		for j, c := range g.ColIdx {
			out[(r-r0)*nCols+c] = g.Data.Get(r, j)
		}
	}
}

// MatVecAccum implements ColGroup.
func (g *UncompressedGroup) MatVecAccum(out, v []float64, r0, r1 int) {
	for r := r0; r < r1; r++ {
		var s float64
		for j, c := range g.ColIdx {
			s += float64(g.Data.Get(r, j) * v[c])
		}
		out[r-r0] += s
	}
}

// VecMatAccum implements ColGroup.
func (g *UncompressedGroup) VecMatAccum(out, v []float64) {
	rows := g.Data.Rows()
	for j, c := range g.ColIdx {
		var s float64
		for r := 0; r < rows; r++ {
			s += float64(v[r] * g.Data.Get(r, j))
		}
		out[c] += s
	}
}

// MapValues implements ColGroup.
func (g *UncompressedGroup) MapValues(fn func(dst, src []float64)) ColGroup {
	out := matrix.NewDense(g.Data.Rows(), g.Data.Cols())
	dst := out.DenseValues()
	for r := 0; r < g.Data.Rows(); r++ {
		g.Data.CopyRow(dst[r*g.Data.Cols():(r+1)*g.Data.Cols()], r, 0)
	}
	fn(dst, dst)
	out.RecomputeNNZ()
	return &UncompressedGroup{ColIdx: g.ColIdx, Data: out.ExamineAndApplySparsity()}
}

// Sum implements ColGroup.
//
//sysds:ok(threadplumb): group-level aggregation is sequential by design — CompressedMatrix aggregates visit groups in order, and the uncompressed fallback group covers only the few incompressible columns
func (g *UncompressedGroup) Sum() float64 { return matrix.Sum(g.Data, 1) }

// Fold implements ColGroup.
func (g *UncompressedGroup) Fold(op matrix.Reduction, acc float64) float64 {
	//sysds:ok(threadplumb): group-level aggregation is sequential by design (see Sum)
	return op.Fold(acc, []float64{matrix.ReduceAll(op, g.Data, 1)})
}

// ColSumsInto implements ColGroup.
func (g *UncompressedGroup) ColSumsInto(out []float64) {
	//sysds:ok(threadplumb): group-level aggregation is sequential by design (see Sum)
	cs := matrix.ColSums(g.Data, 1)
	for j, c := range g.ColIdx {
		out[c] += cs.Get(0, j)
	}
}

// RowSumsAccum implements ColGroup.
func (g *UncompressedGroup) RowSumsAccum(out []float64, r0, r1 int) {
	for r := r0; r < r1; r++ {
		var s float64
		for j := 0; j < g.Data.Cols(); j++ {
			s += g.Data.Get(r, j)
		}
		out[r-r0] += s
	}
}
