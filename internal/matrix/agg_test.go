package matrix

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// mustAgg returns the aggregate table's row of an opcode.
func mustAgg(name string) *Aggregate {
	a, ok := AggregateOf(name)
	if !ok {
		panic("no aggregate " + name)
	}
	return a
}

// aggValue and aggBlock run an aggregate's row on one thread.
func aggValue(name string, m *MatrixBlock) float64 {
	v, _ := mustAgg(name).Apply(m, 1)
	return v
}

func aggBlock(name string, m *MatrixBlock) *MatrixBlock {
	_, b := mustAgg(name).Apply(m, 1)
	return b
}

func TestSumMeanMinMax(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if got := Sum(m, 1); got != 21 {
		t.Errorf("Sum = %v, want 21", got)
	}
	if got := aggValue("mean", m); got != 3.5 {
		t.Errorf("Mean = %v, want 3.5", got)
	}
	if got := Min(m, 1); got != 1 {
		t.Errorf("Min = %v, want 1", got)
	}
	if got := Max(m, 1); got != 6 {
		t.Errorf("Max = %v, want 6", got)
	}
	if got := SumSq(m, 1); got != 91 {
		t.Errorf("SumSq = %v, want 91", got)
	}
}

func TestSumSparseMatchesDense(t *testing.T) {
	m := RandUniform(50, 20, -1, 1, 0.2, 42)
	d := m.Copy().ToDense()
	if math.Abs(Sum(m, 1)-Sum(d, 1)) > 1e-9 {
		t.Error("sparse and dense sums disagree")
	}
	if math.Abs(Min(m, 1)-Min(d, 1)) > 1e-12 || math.Abs(Max(m, 1)-Max(d, 1)) > 1e-12 {
		t.Error("sparse and dense min/max disagree")
	}
}

func TestMinMaxSparseWithImplicitZeros(t *testing.T) {
	// all stored values positive, but zeros exist -> min must be 0
	b := NewBuilder(3, 3)
	b.Add(0, 0, 5)
	b.Add(1, 1, 2)
	m := b.Build()
	if got := Min(m, 1); got != 0 {
		t.Errorf("Min = %v, want 0 (implicit zeros)", got)
	}
	if got := Max(m, 1); got != 5 {
		t.Errorf("Max = %v, want 5", got)
	}
}

func TestRowColAggregates(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	cs := ColSums(m, 1)
	if cs.Rows() != 1 || cs.Cols() != 3 {
		t.Fatalf("ColSums dims %dx%d", cs.Rows(), cs.Cols())
	}
	if cs.Get(0, 0) != 5 || cs.Get(0, 1) != 7 || cs.Get(0, 2) != 9 {
		t.Errorf("ColSums = %v", cs)
	}
	rs := RowSums(m, 1)
	if rs.Get(0, 0) != 6 || rs.Get(1, 0) != 15 {
		t.Errorf("RowSums = %v", rs)
	}
	cm := aggBlock("colMeans", m)
	if cm.Get(0, 0) != 2.5 {
		t.Errorf("ColMeans = %v", cm)
	}
	rm := aggBlock("rowMeans", m)
	if rm.Get(1, 0) != 5 {
		t.Errorf("RowMeans = %v", rm)
	}
	if got := aggBlock("colMins", m).Get(0, 2); got != 3 {
		t.Errorf("ColMins = %v", got)
	}
	if got := aggBlock("colMaxs", m).Get(0, 0); got != 4 {
		t.Errorf("ColMaxs = %v", got)
	}
	if got := aggBlock("rowMins", m).Get(1, 0); got != 4 {
		t.Errorf("RowMins = %v", got)
	}
	if got := aggBlock("rowMaxs", m).Get(0, 0); got != 3 {
		t.Errorf("RowMaxs = %v", got)
	}
}

func TestRowColAggregatesSparse(t *testing.T) {
	m := RandUniform(30, 10, 0, 1, 0.2, 17)
	d := m.Copy().ToDense()
	if !ColSums(m, 1).Equals(ColSums(d, 1), 1e-9) {
		t.Error("sparse ColSums disagrees with dense")
	}
	if !RowSums(m, 1).Equals(RowSums(d, 1), 1e-9) {
		t.Error("sparse RowSums disagrees with dense")
	}
}

func TestRowIndexMax(t *testing.T) {
	m := FromRows([][]float64{{1, 5, 2}, {7, 0, 3}})
	got := RowIndexMax(m)
	if got.Get(0, 0) != 2 || got.Get(1, 0) != 1 {
		t.Errorf("RowIndexMax = %v", got)
	}
}

func TestVarianceAndColVars(t *testing.T) {
	m := FromRows([][]float64{{1}, {2}, {3}, {4}})
	if got := Variance(m); math.Abs(got-5.0/3.0) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, 5.0/3.0)
	}
	cv := ColVars(FromRows([][]float64{{1, 10}, {2, 20}, {3, 30}}))
	if math.Abs(cv.Get(0, 0)-1) > 1e-12 || math.Abs(cv.Get(0, 1)-100) > 1e-12 {
		t.Errorf("ColVars = %v", cv)
	}
	sd := ColSds(FromRows([][]float64{{1, 10}, {2, 20}, {3, 30}}))
	if math.Abs(sd.Get(0, 1)-10) > 1e-12 {
		t.Errorf("ColSds = %v", sd)
	}
}

func TestTrace(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if got := Trace(m); got != 5 {
		t.Errorf("Trace = %v, want 5", got)
	}
}

func TestQuantileMedian(t *testing.T) {
	v := FromRows([][]float64{{5}, {1}, {3}, {2}, {4}})
	if got := Median(v); got != 3 {
		t.Errorf("Median = %v, want 3", got)
	}
	if got := Quantile(v, 0); got != 1 {
		t.Errorf("Quantile(0) = %v, want 1", got)
	}
	if got := Quantile(v, 1); got != 5 {
		t.Errorf("Quantile(1) = %v, want 5", got)
	}
	if got := Quantile(v, 0.25); got != 2 {
		t.Errorf("Quantile(0.25) = %v, want 2", got)
	}
}

func TestCumSumCols(t *testing.T) {
	m := FromRows([][]float64{{1, 1}, {2, 1}, {3, 1}})
	got := CumSumCols(m)
	want := FromRows([][]float64{{1, 1}, {3, 2}, {6, 3}})
	if !got.Equals(want, 1e-12) {
		t.Errorf("CumSumCols = %v", got)
	}
}

func TestTable(t *testing.T) {
	a := FromRows([][]float64{{1}, {2}, {2}, {1}})
	b := FromRows([][]float64{{1}, {1}, {2}, {2}})
	got := Table(a, b)
	want := FromRows([][]float64{{1, 1}, {1, 1}})
	if !got.Equals(want, 0) {
		t.Errorf("Table = %v, want %v", got, want)
	}
}

// sortedQuantile is Quantile's reference: sort a copy with sort.Float64s and
// take the nearest rank.
func sortedQuantile(vals []float64, p float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	switch {
	case p <= 0:
		return s[0]
	case p >= 1:
		return s[len(s)-1]
	}
	return s[max(int(math.Ceil(p*float64(len(s))))-1, 0)]
}

// TestQuantileSelectsTheSortedElement: selection returns the bits of
// sort.Float64s + nearest rank for every size and probability, over data with
// duplicates, infinities and NaN (lowest), dense and sparse. Where -0 and +0
// are both present the order between them is unspecified for the sort too,
// so those compare with ==.
func TestQuantileSelectsTheSortedElement(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, 1, -1, 2.5}
	kinds := map[string]func() float64{
		"uniform":    func() float64 { return rng.NormFloat64() },
		"duplicates": func() float64 { return float64(rng.Intn(4)) },
		"special":    func() float64 { return special[rng.Intn(len(special))] },
		"mostly NaN": func() float64 {
			if rng.Intn(4) > 0 {
				return math.NaN()
			}
			return rng.NormFloat64()
		},
		"signed zeros": func() float64 { return []float64{0, math.Copysign(0, -1), 1}[rng.Intn(3)] },
		"sparse":       func() float64 { return []float64{0, 0, 0, 0, 0, rng.NormFloat64()}[rng.Intn(6)] },
	}
	names := make([]string, 0, len(kinds))
	for name := range kinds {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, n := range []int{1, 2, 3, 17, 6000} {
			vals := make([]float64, n)
			for i := range vals {
				vals[i] = kinds[name]()
			}
			m := NewDenseFromSlice(n, 1, append([]float64(nil), vals...))
			if name == "sparse" {
				m.ToSparse()
			}
			for _, p := range []float64{0, 1e-9, 0.02, 0.25, 0.5, 0.98, 1} {
				got, want := Quantile(m, p), sortedQuantile(vals, p)
				same := math.Float64bits(got) == math.Float64bits(want)
				if name == "signed zeros" {
					same = got == want
				}
				if math.IsNaN(want) {
					same = math.IsNaN(got)
				}
				if !same {
					t.Errorf("%s, n=%d, p=%g: Quantile = %v, sorted = %v", name, n, p, got, want)
				}
			}
			if name != "sparse" && !slices.EqualFunc(m.DenseValues(), vals, func(a, b float64) bool {
				return math.Float64bits(a) == math.Float64bits(b)
			}) {
				t.Errorf("%s, n=%d: Quantile changed its input", name, n)
			}
		}
	}
}

// TestNNZCountsCellsThatAreNotZero: the nnz reduction counts the cells that
// are not 0 — a NaN counts, a -0 and a stored 0 do not — on dense and CSR
// blocks.
func TestNNZCountsCellsThatAreNotZero(t *testing.T) {
	negZero := math.Copysign(0, -1)
	m := FromRows([][]float64{{1, -2, 0}, {4, negZero, 6}, {math.NaN(), 0, 0}})
	csr := &MatrixBlock{rows: 3, cols: 3, nnz: 6, sparse: &CSR{RowsN: 3, ColsN: 3,
		RowPtr: []int{0, 2, 5, 6}, ColIdx: []int{0, 1, 0, 1, 2, 0}, Values: []float64{1, -2, 4, negZero, 6, math.NaN()}}}
	stored := &MatrixBlock{rows: 1, cols: 3, nnz: 2, sparse: &CSR{RowsN: 1, ColsN: 3,
		RowPtr: []int{0, 2}, ColIdx: []int{0, 2}, Values: []float64{0, 3}}}
	for _, tc := range []struct {
		name string
		m    *MatrixBlock
		want float64
	}{{"dense", m, 5}, {"csr", csr, 5}, {"stored zero", stored, 1}} {
		for _, th := range []int{1, 2, 3} {
			if got, _ := mustAgg("nnz").Apply(tc.m, th); got != tc.want {
				t.Errorf("%s T=%d: nnz = %v, want %v", tc.name, th, got, tc.want)
			}
		}
	}
}
