package compress

import "math"

// --- Co-coded: joint dictionary coding of correlated columns -----------------

// CoCodedGroup encodes several correlated columns jointly: each row stores one
// code indexing a dictionary of value *tuples* (one value per member column).
// When columns are correlated, the joint cardinality is far below the product
// of the per-column cardinalities, so one code per row replaces len(Cols)
// codes — the co-coding of CLA (Elgohary et al., PVLDB 2016, §4.2). The greedy
// sample planner decides which adjacent columns to merge (see cocodePlan).
type CoCodedGroup struct {
	Cols   []int     // ascending global column indexes
	Dict   []float64 // tuple-major: tuple k occupies Dict[k*len(Cols) : (k+1)*len(Cols)]
	Counts []int32   // occurrences per tuple (len == len(Dict)/len(Cols))
	// exactly one of Codes8/Codes16 is non-nil, with one code per row
	Codes8  []uint8
	Codes16 []uint16
}

// Columns implements ColGroup.
func (g *CoCodedGroup) Columns() []int { return g.Cols }

// Encoding implements ColGroup.
func (g *CoCodedGroup) Encoding() Encoding { return EncCoCoded }

// NumRows returns the number of encoded rows.
func (g *CoCodedGroup) NumRows() int {
	if g.Codes8 != nil {
		return len(g.Codes8)
	}
	return len(g.Codes16)
}

// numVals returns the number of dictionary tuples.
func (g *CoCodedGroup) numVals() int { return len(g.Counts) }

// code returns the dictionary code of row r.
func (g *CoCodedGroup) code(r int) int {
	if g.Codes8 != nil {
		return int(g.Codes8[r])
	}
	return int(g.Codes16[r])
}

// InMemorySize implements ColGroup.
func (g *CoCodedGroup) InMemorySize() int64 {
	s := int64(len(g.Dict))*8 + int64(len(g.Counts))*4 + int64(len(g.Cols))*8 + 64
	if g.Codes8 != nil {
		s += int64(len(g.Codes8))
	} else {
		s += int64(len(g.Codes16)) * 2
	}
	return s
}

// NNZ implements ColGroup.
func (g *CoCodedGroup) NNZ() int64 {
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
func (g *CoCodedGroup) DecompressInto(out []float64, nCols, r0, r1 int) {
	w := len(g.Cols)
	for r := r0; r < r1; r++ {
		k := g.code(r)
		for j, c := range g.Cols {
			out[(r-r0)*nCols+c] = g.Dict[k*w+j]
		}
	}
}

// MatVecAccum implements ColGroup: each dictionary tuple is reduced against
// the vector entries of the member columns once (the pre-scaling of CLA, here
// a tuple dot product), then rows gather by code.
func (g *CoCodedGroup) MatVecAccum(out, v []float64, r0, r1 int, scratch []float64) {
	w := len(g.Cols)
	nv := g.numVals()
	pre := scratch
	if len(pre) < nv {
		pre = make([]float64, nv)
	} else {
		pre = pre[:nv]
	}
	for k := 0; k < nv; k++ {
		var s float64
		for j, c := range g.Cols {
			s += float64(g.Dict[k*w+j] * v[c])
		}
		pre[k] = s
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

// VecMatAccum implements ColGroup: vector entries are aggregated per tuple
// code first, then combined with each member column's dictionary values once.
func (g *CoCodedGroup) VecMatAccum(out, v []float64) {
	w := len(g.Cols)
	nv := g.numVals()
	agg := make([]float64, nv)
	if g.Codes8 != nil {
		for r, c := range g.Codes8 {
			agg[c] += v[r]
		}
	} else {
		for r, c := range g.Codes16 {
			agg[c] += v[r]
		}
	}
	for j, col := range g.Cols {
		var s float64
		for k := 0; k < nv; k++ {
			s += float64(agg[k] * g.Dict[k*w+j])
		}
		out[col] += s
	}
}

// MapValues implements ColGroup: codes and counts are shared, only the tuple
// dictionary is rewritten.
func (g *CoCodedGroup) MapValues(fn func(dst, src []float64)) ColGroup {
	dict := make([]float64, len(g.Dict))
	fn(dict, g.Dict)
	return &CoCodedGroup{Cols: g.Cols, Dict: dict, Counts: g.Counts, Codes8: g.Codes8, Codes16: g.Codes16}
}

// Sum implements ColGroup.
func (g *CoCodedGroup) Sum() float64 {
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

// SumSq implements ColGroup.
func (g *CoCodedGroup) SumSq() float64 {
	w := len(g.Cols)
	var s float64
	for k, cnt := range g.Counts {
		var ts float64
		for j := 0; j < w; j++ {
			d := g.Dict[k*w+j]
			ts += float64(d * d)
		}
		s += float64(float64(cnt) * ts)
	}
	return s
}

// MinMax implements ColGroup. Every dictionary tuple occurs at least once, so
// scanning the dictionary is exact.
func (g *CoCodedGroup) MinMax() (float64, float64) {
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, d := range g.Dict {
		mn = math.Min(mn, d)
		mx = math.Max(mx, d)
	}
	return mn, mx
}

// ColSumsInto implements ColGroup.
func (g *CoCodedGroup) ColSumsInto(out []float64) {
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
func (g *CoCodedGroup) RowSumsAccum(out []float64, r0, r1 int) {
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
