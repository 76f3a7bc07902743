package compress

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
)

// Tests for the deep compressed-execution kernels: TSMM, matrix right-hand
// sides, SDC and co-coded groups, row slicing and the Haas–Stokes estimator.

// sdcMatrix builds columns that are mostly one constant with sparse
// low-cardinality exceptions — the SDC-friendly shape.
func sdcMatrix(rows, cols int, seed int64) *matrix.MatrixBlock {
	noise := matrix.RandUniform(rows, cols, 0, 1, 1.0, seed)
	out := matrix.NewDense(rows, cols)
	for c := 0; c < cols; c++ {
		def := float64(c + 1)
		for r := 0; r < rows; r++ {
			v := def
			if noise.Get(r, c) > 0.95 { // ~5% exceptions
				v = def + math.Floor(noise.Get(r, c)*40)
			}
			out.Set(r, c, v)
		}
	}
	out.RecomputeNNZ()
	return out
}

// correlatedMatrix builds columns that share one underlying low-cardinality
// signal — the co-coding-friendly shape (a joint dictionary costs no more
// codes than any single column).
func correlatedMatrix(rows, cols int, seed int64) *matrix.MatrixBlock {
	noise := matrix.RandUniform(rows, 1, 0, 1, 1.0, seed)
	out := matrix.NewDense(rows, cols)
	for r := 0; r < rows; r++ {
		base := math.Floor(noise.Get(r, 0) * 6)
		for c := 0; c < cols; c++ {
			out.Set(r, c, base+float64(c))
		}
	}
	out.RecomputeNNZ()
	return out
}

func deepDrivers(t *testing.T) map[string]*matrix.MatrixBlock {
	t.Helper()
	return map[string]*matrix.MatrixBlock{
		"dense-mixed": lowCardMatrix(500, 9, 1),
		"sparse":      sparseLowCardMatrix(400, 8, 2),
		"constant":    matrix.Fill(300, 4, 2.5),
		"sdc":         sdcMatrix(600, 5, 3),
		"correlated":  correlatedMatrix(500, 6, 4),
	}
}

func denseRHS(rows, cols int, seed int64) *matrix.MatrixBlock {
	return matrix.RandUniform(rows, cols, -1, 1, 1.0, seed)
}

func TestCompressedTSMMMatchesDense(t *testing.T) {
	for name, m := range deepDrivers(t) {
		t.Run(name, func(t *testing.T) {
			cm := compressOrFatal(t, m)
			want := matrix.TSMM(m, 1)
			for _, threads := range []int{1, 4} {
				got := cm.TSMM(threads)
				assertMatClose(t, got, want, "tsmm")
			}
		})
	}
}

func TestCompressedTSMMBitwiseStableAcrossThreads(t *testing.T) {
	m := lowCardMatrix(700, 9, 7)
	cm := compressOrFatal(t, m)
	base := cm.TSMM(1)
	for _, threads := range []int{2, 4, 8} {
		got := cm.TSMM(threads)
		for r := 0; r < base.Rows(); r++ {
			for c := 0; c < base.Cols(); c++ {
				if math.Float64bits(got.Get(r, c)) != math.Float64bits(base.Get(r, c)) {
					t.Fatalf("threads=%d: tsmm cell (%d,%d) not bitwise equal", threads, r, c)
				}
			}
		}
	}
}

// TestCompressedTSMMCrossFallback forces the stripe fallback by pairing a
// dictionary group with an uncompressed group.
func TestCompressedTSMMCrossFallback(t *testing.T) {
	m := lowCardMatrix(500, 9, 5) // every third column is incompressible noise
	cm := compressOrFatal(t, m)
	hasUnc := false
	for _, g := range cm.Groups {
		if g.Encoding() == EncUncompressed {
			hasUnc = true
		}
	}
	if !hasUnc {
		t.Fatal("driver no longer produces an uncompressed group; fallback untested")
	}
	assertMatClose(t, cm.TSMM(4), matrix.TSMM(m, 1), "tsmm with uncompressed groups")
}

func TestCompressedMatMultDenseMatches(t *testing.T) {
	for name, m := range deepDrivers(t) {
		t.Run(name, func(t *testing.T) {
			cm := compressOrFatal(t, m)
			for _, k := range []int{1, 3, 70} { // below, inside and above one column block
				b := denseRHS(m.Cols(), k, int64(100+k))
				want, err := matrix.Multiply(m, b, 1)
				if err != nil {
					t.Fatal(err)
				}
				for _, threads := range []int{1, 4} {
					got, err := cm.MatMultDense(b, threads)
					if err != nil {
						t.Fatal(err)
					}
					assertMatClose(t, got, want, "matmult-dense")
				}
			}
		})
	}
}

func TestCompressedTransMatMultDenseMatches(t *testing.T) {
	for name, m := range deepDrivers(t) {
		t.Run(name, func(t *testing.T) {
			cm := compressOrFatal(t, m)
			b := denseRHS(m.Rows(), 5, 42)
			want, err := matrix.Multiply(matrix.Transpose(m), b, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, threads := range []int{1, 4} {
				got, err := cm.TransMatMultDense(b, threads)
				if err != nil {
					t.Fatal(err)
				}
				assertMatClose(t, got, want, "trans-matmult-dense")
			}
		})
	}
}

func TestCompressedMatMultDenseBitwiseStable(t *testing.T) {
	m := lowCardMatrix(600, 9, 9)
	cm := compressOrFatal(t, m)
	b := denseRHS(m.Cols(), 33, 11)
	base, err := cm.MatMultDense(b, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{2, 8} {
		got, err := cm.MatMultDense(b, threads)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < base.Rows(); r++ {
			for c := 0; c < base.Cols(); c++ {
				if math.Float64bits(got.Get(r, c)) != math.Float64bits(base.Get(r, c)) {
					t.Fatalf("threads=%d: cell (%d,%d) not bitwise equal", threads, r, c)
				}
			}
		}
	}
}

// TestPlannerPicksSDC: a mostly-constant column with sparse exceptions should
// encode as SDC, and the whole matrix should round-trip exactly.
func TestPlannerPicksSDC(t *testing.T) {
	m := sdcMatrix(2000, 3, 13)
	cm := compressOrFatal(t, m)
	hasSDC := false
	for _, g := range cm.Groups {
		if g.Encoding() == EncSDC {
			hasSDC = true
		}
	}
	if !hasSDC {
		t.Fatalf("no SDC group chosen for mostly-constant columns: %s", cm.EncodingSummary())
	}
	assertMatClose(t, cm.Decompress(), m, "sdc round-trip")
}

// TestPlannerCoCodesCorrelatedColumns: perfectly correlated low-cardinality
// columns should merge into one co-coded group (one code array for all of
// them), and the result must round-trip exactly.
func TestPlannerCoCodesCorrelatedColumns(t *testing.T) {
	m := correlatedMatrix(2000, 6, 17)
	cm := compressOrFatal(t, m)
	var cc *DDCGroup
	for _, g := range cm.Groups {
		if t, ok := g.(*DDCGroup); ok && g.Encoding() == EncCoCoded {
			cc = t
		}
	}
	if cc == nil {
		t.Fatalf("no co-coded group for correlated columns: %s", cm.EncodingSummary())
	}
	if len(cc.Cols) < 2 {
		t.Fatalf("co-coded group spans %d columns, want >= 2", len(cc.Cols))
	}
	assertMatClose(t, cm.Decompress(), m, "co-coded round-trip")
	// the joint dictionary must be no larger than the shared signal's cardinality
	if cc.numVals() > 6 {
		t.Errorf("joint dictionary has %d tuples, want <= 6", cc.numVals())
	}
}

// TestNewGroupKernelsMatch runs the aggregate/vector kernels over the drivers
// that exercise SDC and co-coded groups (the generic suite in compress_test.go
// covers the original encodings).
func TestNewGroupKernelsMatch(t *testing.T) {
	for _, name := range []string{"sdc", "correlated"} {
		m := deepDrivers(t)[name]
		t.Run(name, func(t *testing.T) {
			cm := compressOrFatal(t, m)
			rows, cols := m.Rows(), m.Cols()
			v := denseRHS(cols, 1, 21)
			w := denseRHS(rows, 1, 22)
			wantMV, err := matrix.Multiply(m, v, 1)
			if err != nil {
				t.Fatal(err)
			}
			wt := matrix.Transpose(w)
			wantVM, err := matrix.Multiply(wt, m, 1)
			if err != nil {
				t.Fatal(err)
			}
			for _, threads := range []int{1, 4} {
				gotMV, err := cm.MatVec(v, threads)
				if err != nil {
					t.Fatal(err)
				}
				assertMatClose(t, gotMV, wantMV, "matvec")
				gotVM, err := cm.VecMat(wt, threads)
				if err != nil {
					t.Fatal(err)
				}
				assertMatClose(t, gotVM, wantVM, "vecmat")
			}
			if !relClose(cm.Sum(), matrix.Sum(m, 1)) {
				t.Errorf("sum = %v, want %v", cm.Sum(), matrix.Sum(m, 1))
			}
			if mn, mx := compressedValue(t, cm, "min"), compressedValue(t, cm, "max"); !relClose(mn, matrix.Min(m, 1)) || !relClose(mx, matrix.Max(m, 1)) {
				t.Errorf("min/max = %v/%v, want %v/%v", mn, mx, matrix.Min(m, 1), matrix.Max(m, 1))
			}
			assertMatClose(t, cm.ColSums(), matrix.ColSums(m, 1), "colsums")
			assertMatClose(t, cm.RowSums(1), matrix.RowSums(m, 1), "rowsums")
			sc := cm.MapValues(func(dst, src []float64) {
				for i, x := range src {
					dst[i] = 2*x + 1
				}
			}, 1)
			want2 := matrix.NewDense(rows, cols)
			for r := 0; r < rows; r++ {
				for c := 0; c < cols; c++ {
					want2.Set(r, c, 2*m.Get(r, c)+1)
				}
			}
			assertMatClose(t, sc.Decompress(), want2, "mapvalues")
		})
	}
}

func TestSerializeRoundTripNewGroups(t *testing.T) {
	for _, name := range []string{"sdc", "correlated"} {
		m := deepDrivers(t)[name]
		t.Run(name, func(t *testing.T) {
			cm := compressOrFatal(t, m)
			var buf bytes.Buffer
			if err := cm.Write(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if back.EncodingSummary() != cm.EncodingSummary() {
				t.Fatalf("encodings changed across serialize: %s -> %s", cm.EncodingSummary(), back.EncodingSummary())
			}
			assertMatClose(t, back.Decompress(), m, "serialized round-trip")
		})
	}
}

// TestHaasStokesAccuracy checks the estimator against known distributions: it
// must stay close on uniform low-cardinality data and must correct the naive
// scale-up's gross overestimate on skewed data.
func TestHaasStokesAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	sample := func(pop []int, n int) []int {
		freq := map[int]int{}
		for i := 0; i < n; i++ {
			freq[pop[rng.Intn(len(pop))]]++
		}
		counts := make([]int, 0, len(freq))
		for _, c := range freq {
			counts = append(counts, c)
		}
		return counts
	}
	const rows, n = 100000, 2000

	// uniform, 50 distinct values: sample sees all of them; estimate ~= 50
	pop := make([]int, rows)
	for i := range pop {
		pop[i] = i % 50
	}
	if est := haasStokes(rows, n, sample(pop, n)); est < 45 || est > 100 {
		t.Errorf("uniform-50: estimate %d, want ~50", est)
	}

	// skewed: one heavy hitter (90%) plus 5000 rare values. The naive
	// scale-up rows*d/n is ~5000% off; Haas–Stokes must land well below it
	// and at least at the sampled distinct count.
	heavy := int(0.9 * rows)
	for i := range pop {
		if i < heavy {
			pop[i] = -1
		} else {
			pop[i] = i % 5000
		}
	}
	counts := sample(pop, n)
	d := len(counts)
	naive := rows * d / n
	est := haasStokes(rows, n, counts)
	if est < d {
		t.Errorf("skewed: estimate %d below sample distinct %d", est, d)
	}
	if est >= naive {
		t.Errorf("skewed: estimate %d does not improve on naive scale-up %d", est, naive)
	}
	if est < 1000 || est > 30000 {
		t.Errorf("skewed: estimate %d, want within [1000, 30000] for true 5001", est)
	}

	// exhaustive sample returns the exact distinct count
	if est := haasStokes(1000, 1000, []int{900, 50, 50}); est != 3 {
		t.Errorf("exhaustive: estimate %d, want 3", est)
	}
}
