package compress

import (
	"sort"

	"github.com/systemds/systemds-go/internal/matrix"
)

// --- SDC: sparse dictionary coding with a default value ----------------------

// SDCGroup encodes a mostly-constant column as one default value plus a
// sparse list of exception positions with dictionary-coded exception values
// (SDC in SystemDS' compressed operand model). Rows not listed in Pos hold
// Default; only the exceptions pay per-row storage, so a column that is 95%
// one value costs ~5% of the row count regardless of cardinality in the tail.
type SDCGroup struct {
	Col     int
	N       int     // total encoded rows
	Default float64 // value of every row not listed in Pos
	Dict    []float64
	Counts  []int32  // occurrences per dictionary entry (len == len(Dict))
	Pos     []int32  // ascending exception row positions
	Codes   []uint16 // dictionary code per exception (len == len(Pos))
}

// Columns implements ColGroup.
func (g *SDCGroup) Columns() []int { return []int{g.Col} }

// Encoding implements ColGroup.
func (g *SDCGroup) Encoding() Encoding { return EncSDC }

// InMemorySize implements ColGroup.
func (g *SDCGroup) InMemorySize() int64 {
	return int64(len(g.Dict))*8 + int64(len(g.Counts))*4 +
		int64(len(g.Pos))*4 + int64(len(g.Codes))*2 + 64
}

// NNZ implements ColGroup.
func (g *SDCGroup) NNZ() int64 {
	var nnz int64
	if g.Default != 0 {
		nnz += int64(g.N - len(g.Pos))
	}
	for k, v := range g.Dict {
		if v != 0 {
			nnz += int64(g.Counts[k])
		}
	}
	return nnz
}

// posRange returns the index range [lo, hi) of exceptions whose row positions
// fall inside [r0, r1).
func (g *SDCGroup) posRange(r0, r1 int) (int, int) {
	lo := sort.Search(len(g.Pos), func(i int) bool { return int(g.Pos[i]) >= r0 })
	hi := sort.Search(len(g.Pos), func(i int) bool { return int(g.Pos[i]) >= r1 })
	return lo, hi
}

// DecompressInto implements ColGroup.
func (g *SDCGroup) DecompressInto(out []float64, nCols, r0, r1 int) {
	for r := r0; r < r1; r++ {
		out[(r-r0)*nCols+g.Col] = g.Default
	}
	lo, hi := g.posRange(r0, r1)
	for i := lo; i < hi; i++ {
		out[(int(g.Pos[i])-r0)*nCols+g.Col] = g.Dict[g.Codes[i]]
	}
}

// MatVecAccum implements ColGroup: the default contribution is one multiply
// spread over all rows; exceptions patch the difference at their positions.
func (g *SDCGroup) MatVecAccum(out, v []float64, r0, r1 int) {
	x := v[g.Col]
	if x == 0 {
		return
	}
	pd := float64(g.Default * x)
	if pd != 0 {
		for r := r0; r < r1; r++ {
			out[r-r0] += pd
		}
	}
	lo, hi := g.posRange(r0, r1)
	for i := lo; i < hi; i++ {
		out[int(g.Pos[i])-r0] += float64(g.Dict[g.Codes[i]]*x) - pd
	}
}

// VecMatAccum implements ColGroup: the vector is summed once for the default
// value, exceptions contribute their difference from the default.
func (g *SDCGroup) VecMatAccum(out, v []float64) {
	var sv float64
	for r := 0; r < g.N; r++ {
		sv += v[r]
	}
	s := float64(g.Default * sv)
	for i, p := range g.Pos {
		s += float64((g.Dict[g.Codes[i]] - g.Default) * v[p])
	}
	out[g.Col] += s
}

// MapValues implements ColGroup: positions, codes and counts are shared, only
// the default and the dictionary are rewritten.
func (g *SDCGroup) MapValues(fn func(dst, src []float64)) ColGroup {
	dict := make([]float64, len(g.Dict))
	fn(dict, g.Dict)
	def := []float64{g.Default}
	fn(def, def)
	return &SDCGroup{Col: g.Col, N: g.N, Default: def[0],
		Dict: dict, Counts: g.Counts, Pos: g.Pos, Codes: g.Codes}
}

// Sum implements ColGroup.
func (g *SDCGroup) Sum() float64 {
	s := float64(g.Default * float64(g.N-len(g.Pos)))
	for k, d := range g.Dict {
		s += float64(float64(g.Counts[k]) * d)
	}
	return s
}

// Fold implements ColGroup.
func (g *SDCGroup) Fold(op matrix.Reduction, acc float64) float64 {
	if len(g.Pos) < g.N {
		acc = op.Fold(acc, []float64{g.Default})
	}
	return op.Fold(acc, g.Dict)
}

// ColSumsInto implements ColGroup.
func (g *SDCGroup) ColSumsInto(out []float64) { out[g.Col] += g.Sum() }

// RowSumsAccum implements ColGroup.
func (g *SDCGroup) RowSumsAccum(out []float64, r0, r1 int) {
	if g.Default != 0 {
		for r := r0; r < r1; r++ {
			out[r-r0] += g.Default
		}
	}
	lo, hi := g.posRange(r0, r1)
	for i := lo; i < hi; i++ {
		out[int(g.Pos[i])-r0] += g.Dict[g.Codes[i]] - g.Default
	}
}
