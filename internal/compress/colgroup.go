// Package compress implements compressed linear algebra (CLA) for
// SystemDS-Go: matrices are compressed column-wise into encoded column
// groups — DDC (dense dictionary coding) for low-cardinality columns, RLE
// (run-length encoding) for run-heavy columns, and an uncompressed-column
// fallback — and linear-algebra kernels execute directly on the compressed
// representation without decompressing (Elgohary et al., "Compressed Linear
// Algebra for Large-Scale Machine Learning", PVLDB 2016). A sample-based
// planner estimates per-column cardinality and run structure, picks the
// cheapest encoding per column, and rejects compression outright when the
// estimated ratio is too small to pay for itself.
package compress

import (
	"math"

	"github.com/systemds/systemds-go/internal/matrix"
)

// Encoding names a column-group encoding scheme.
type Encoding int

// Column-group encodings.
const (
	// EncDDC is dense dictionary coding: every row stores a small code
	// indexing a dictionary of the column's distinct values.
	EncDDC Encoding = iota
	// EncRLE is run-length encoding: the column is a sequence of
	// (value, start, length) runs covering every row, zeros included.
	EncRLE
	// EncUncompressed keeps the columns as a plain matrix block.
	EncUncompressed
	// EncCoCoded is joint dictionary coding of several correlated columns:
	// one code per row indexes a dictionary of value tuples.
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
	// MatVecAccum accumulates out[r] += sum_c group(r,c)*v[c] for rows
	// [r0, r1); v is indexed by global column, out by global row. scratch is
	// a caller-provided buffer of at least dictionary size (may be nil) that
	// lets per-chunk callers amortize the pre-scaled dictionary allocation.
	MatVecAccum(out, v []float64, r0, r1 int, scratch []float64)
	// VecMatAccum accumulates out[c] += sum_r v[r]*group(r,c) over all rows;
	// out is indexed by global column.
	VecMatAccum(out, v []float64)
	// MapValues returns a new group with fn applied to every cell value: fn
	// maps a row of values src into dst (equal lengths; it is called with
	// dst == src when the values are rewritten in place). The encoding
	// structure (codes, run positions) is shared, only the value dictionary
	// is rewritten — the dictionary-only update of CLA.
	MapValues(fn func(dst, src []float64)) ColGroup
	// Sum returns the sum of all cells, SumSq the sum of squares.
	Sum() float64
	SumSq() float64
	// MinMax returns the smallest and largest cell value of the group.
	MinMax() (float64, float64)
	// ColAggInto writes per-column sums into out (global column indexing).
	ColSumsInto(out []float64)
	// RowSumsAccum accumulates per-row sums for rows [r0, r1).
	RowSumsAccum(out []float64, r0, r1 int)
}

// --- DDC: dense dictionary coding -----------------------------------------

// DDCGroup encodes one column as per-row codes into a dictionary of distinct
// values. Codes are stored in one byte when the dictionary has at most 256
// entries (DDC1) and two bytes otherwise (DDC2, up to 65536 entries).
type DDCGroup struct {
	Col    int
	Dict   []float64
	Counts []int32 // occurrences per dictionary entry (len == len(Dict))
	// exactly one of Codes8/Codes16 is non-nil, with one code per row
	Codes8  []uint8
	Codes16 []uint16
}

// Columns implements ColGroup.
func (g *DDCGroup) Columns() []int { return []int{g.Col} }

// Encoding implements ColGroup.
func (g *DDCGroup) Encoding() Encoding { return EncDDC }

// NumRows returns the number of encoded rows.
func (g *DDCGroup) NumRows() int {
	if g.Codes8 != nil {
		return len(g.Codes8)
	}
	return len(g.Codes16)
}

// InMemorySize implements ColGroup.
func (g *DDCGroup) InMemorySize() int64 {
	s := int64(len(g.Dict))*8 + int64(len(g.Counts))*4 + 64
	if g.Codes8 != nil {
		s += int64(len(g.Codes8))
	} else {
		s += int64(len(g.Codes16)) * 2
	}
	return s
}

// NNZ implements ColGroup.
func (g *DDCGroup) NNZ() int64 {
	var nnz int64
	for k, v := range g.Dict {
		if v != 0 {
			nnz += int64(g.Counts[k])
		}
	}
	return nnz
}

// DecompressInto implements ColGroup.
func (g *DDCGroup) DecompressInto(out []float64, nCols, r0, r1 int) {
	if g.Codes8 != nil {
		for r := r0; r < r1; r++ {
			out[(r-r0)*nCols+g.Col] = g.Dict[g.Codes8[r]]
		}
		return
	}
	for r := r0; r < r1; r++ {
		out[(r-r0)*nCols+g.Col] = g.Dict[g.Codes16[r]]
	}
}

// MatVecAccum implements ColGroup: the dictionary is pre-scaled by the vector
// entry once (the CLA pre-aggregation), then rows gather by code.
func (g *DDCGroup) MatVecAccum(out, v []float64, r0, r1 int, scratch []float64) {
	x := v[g.Col]
	if x == 0 {
		return
	}
	pre := scratch
	if len(pre) < len(g.Dict) {
		pre = make([]float64, len(g.Dict))
	} else {
		pre = pre[:len(g.Dict)]
	}
	for k, d := range g.Dict {
		pre[k] = d * x
	}
	if g.Codes8 != nil {
		for r := r0; r < r1; r++ {
			out[r-r0] += pre[g.Codes8[r]]
		}
		return
	}
	for r := r0; r < r1; r++ {
		out[r-r0] += pre[g.Codes16[r]]
	}
}

// VecMatAccum implements ColGroup: vector entries are aggregated per
// dictionary code first, then combined with the dictionary once.
func (g *DDCGroup) VecMatAccum(out, v []float64) {
	w := make([]float64, len(g.Dict))
	if g.Codes8 != nil {
		for r, c := range g.Codes8 {
			w[c] += v[r]
		}
	} else {
		for r, c := range g.Codes16 {
			w[c] += v[r]
		}
	}
	var s float64
	for k, d := range g.Dict {
		s += float64(w[k] * d)
	}
	out[g.Col] += s
}

// MapValues implements ColGroup: codes and counts are shared, only the
// dictionary is rewritten.
func (g *DDCGroup) MapValues(fn func(dst, src []float64)) ColGroup {
	dict := make([]float64, len(g.Dict))
	fn(dict, g.Dict)
	return &DDCGroup{Col: g.Col, Dict: dict, Counts: g.Counts, Codes8: g.Codes8, Codes16: g.Codes16}
}

// Sum implements ColGroup.
func (g *DDCGroup) Sum() float64 {
	var s float64
	for k, d := range g.Dict {
		s += float64(float64(g.Counts[k]) * d)
	}
	return s
}

// SumSq implements ColGroup.
func (g *DDCGroup) SumSq() float64 {
	var s float64
	for k, d := range g.Dict {
		s += float64(float64(g.Counts[k]) * d * d)
	}
	return s
}

// MinMax implements ColGroup. Every dictionary entry occurs at least once, so
// scanning the dictionary is exact.
func (g *DDCGroup) MinMax() (float64, float64) {
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, d := range g.Dict {
		mn = math.Min(mn, d)
		mx = math.Max(mx, d)
	}
	return mn, mx
}

// ColSumsInto implements ColGroup.
func (g *DDCGroup) ColSumsInto(out []float64) { out[g.Col] += g.Sum() }

// RowSumsAccum implements ColGroup.
func (g *DDCGroup) RowSumsAccum(out []float64, r0, r1 int) {
	if g.Codes8 != nil {
		for r := r0; r < r1; r++ {
			out[r-r0] += g.Dict[g.Codes8[r]]
		}
		return
	}
	for r := r0; r < r1; r++ {
		out[r-r0] += g.Dict[g.Codes16[r]]
	}
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

// Columns implements ColGroup.
func (g *RLEGroup) Columns() []int { return []int{g.Col} }

// Encoding implements ColGroup.
func (g *RLEGroup) Encoding() Encoding { return EncRLE }

// NumRows returns the number of encoded rows.
func (g *RLEGroup) NumRows() int {
	n := len(g.Starts)
	if n == 0 {
		return 0
	}
	return int(g.Starts[n-1] + g.Lens[n-1])
}

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
func (g *RLEGroup) MatVecAccum(out, v []float64, r0, r1 int, _ []float64) {
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

// SumSq implements ColGroup.
func (g *RLEGroup) SumSq() float64 {
	var s float64
	for i, v := range g.Values {
		s += float64(v * v * float64(g.Lens[i]))
	}
	return s
}

// MinMax implements ColGroup.
func (g *RLEGroup) MinMax() (float64, float64) {
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, v := range g.Values {
		mn = math.Min(mn, v)
		mx = math.Max(mx, v)
	}
	return mn, mx
}

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
func (g *UncompressedGroup) MatVecAccum(out, v []float64, r0, r1 int, _ []float64) {
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

// SumSq implements ColGroup.
//
//sysds:ok(threadplumb): group-level aggregation is sequential by design (see Sum)
func (g *UncompressedGroup) SumSq() float64 { return matrix.SumSq(g.Data, 1) }

// MinMax implements ColGroup.
func (g *UncompressedGroup) MinMax() (float64, float64) {
	//sysds:ok(threadplumb): group-level aggregation is sequential by design (see Sum)
	return matrix.Min(g.Data, 1), matrix.Max(g.Data, 1)
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
