package compress

import (
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
)

// relClose reports whether two values agree within 1e-9 relative tolerance.
func relClose(a, b float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= 1e-9*math.Max(m, 1)
}

func assertMatClose(t *testing.T, got, want *matrix.MatrixBlock, what string) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: got %dx%d, want %dx%d", what, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for r := 0; r < want.Rows(); r++ {
		for c := 0; c < want.Cols(); c++ {
			if !relClose(got.Get(r, c), want.Get(r, c)) {
				t.Fatalf("%s: cell (%d,%d) = %v, want %v", what, r, c, got.Get(r, c), want.Get(r, c))
			}
		}
	}
}

// lowCardMatrix builds a matrix whose columns alternate between
// low-cardinality (DDC-friendly), run-heavy (RLE-friendly) and incompressible
// (uncompressed fallback) structure.
func lowCardMatrix(rows, cols int, seed int64) *matrix.MatrixBlock {
	noise := matrix.RandUniform(rows, cols, 0, 1, 1.0, seed)
	out := matrix.NewDense(rows, cols)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			switch c % 3 {
			case 0: // low cardinality: 5 distinct values, random order
				out.Set(r, c, math.Floor(noise.Get(r, c)*5))
			case 1: // run-heavy: value changes every 64 rows
				out.Set(r, c, float64((r/64)%7))
			default: // incompressible: continuous noise
				out.Set(r, c, noise.Get(r, c))
			}
		}
	}
	out.RecomputeNNZ()
	return out
}

// sparseLowCardMatrix builds a sparse-representation driver with
// low-cardinality non-zero structure.
func sparseLowCardMatrix(rows, cols int, seed int64) *matrix.MatrixBlock {
	base := matrix.RandUniform(rows, cols, 0, 1, 0.1, seed)
	out := matrix.NewDense(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if v := base.Get(r, c); v != 0 {
				out.Set(r, c, math.Ceil(v*4))
			}
		}
	}
	return out.ExamineAndApplySparsity()
}

func compressOrFatal(t *testing.T, m *matrix.MatrixBlock) *CompressedMatrix {
	t.Helper()
	cm, plan, ok := Compress(m, PlannerConfig{}, 1)
	if !ok {
		t.Fatalf("compression rejected: %v", plan)
	}
	return cm
}

func testDrivers(t *testing.T) map[string]*matrix.MatrixBlock {
	t.Helper()
	return map[string]*matrix.MatrixBlock{
		"dense-mixed": lowCardMatrix(500, 9, 1),
		"sparse":      sparseLowCardMatrix(400, 8, 2),
		"constant":    matrix.Fill(300, 4, 2.5),
	}
}

func TestCompressDecompressRoundTrip(t *testing.T) {
	for name, m := range testDrivers(t) {
		t.Run(name, func(t *testing.T) {
			cm := compressOrFatal(t, m)
			assertMatClose(t, cm.Decompress(), m, "decompress")
			if cm.NNZ() != m.NNZ() {
				t.Errorf("nnz = %d, want %d", cm.NNZ(), m.NNZ())
			}
		})
	}
}

// TestCompressedKernelsMatchUncompressed is the property test of the issue:
// every compressed kernel matches the uncompressed kernel within 1e-9, over
// dense and sparse drivers and thread counts 1 and 4.
func TestCompressedKernelsMatchUncompressed(t *testing.T) {
	for name, m := range testDrivers(t) {
		for _, threads := range []int{1, 4} {
			t.Run(name, func(t *testing.T) {
				cm := compressOrFatal(t, m)
				rows, cols := m.Rows(), m.Cols()
				v := matrix.RandUniform(cols, 1, -1, 1, 1.0, 7)
				u := matrix.RandUniform(1, rows, -1, 1, 1.0, 8)

				want, err := matrix.Multiply(m, v, threads)
				if err != nil {
					t.Fatal(err)
				}
				got, err := cm.MatVec(v, threads)
				if err != nil {
					t.Fatal(err)
				}
				assertMatClose(t, got, want, "matvec")

				want, err = matrix.Multiply(u, m, threads)
				if err != nil {
					t.Fatal(err)
				}
				got, err = cm.VecMat(u, threads)
				if err != nil {
					t.Fatal(err)
				}
				assertMatClose(t, got, want, "vecmat")

				fn := func(x float64) float64 { return 2*x + 1 }
				mapped := cm.MapValues(func(dst, src []float64) {
					for i, v := range src {
						dst[i] = fn(v)
					}
				}, threads)
				wantMap := matrix.NewDense(rows, cols)
				for r := 0; r < rows; r++ {
					for c := 0; c < cols; c++ {
						wantMap.Set(r, c, fn(m.Get(r, c)))
					}
				}
				assertMatClose(t, mapped.Decompress(), wantMap, "mapvalues")

				if !relClose(cm.Sum(), matrix.Sum(m, threads)) {
					t.Errorf("sum = %v, want %v", cm.Sum(), matrix.Sum(m, threads))
				}
				if got := compressedValue(t, cm, "min"); !relClose(got, matrix.Min(m, threads)) {
					t.Errorf("min = %v, want %v", got, matrix.Min(m, threads))
				}
				if got := compressedValue(t, cm, "max"); !relClose(got, matrix.Max(m, threads)) {
					t.Errorf("max = %v, want %v", got, matrix.Max(m, threads))
				}
				assertMatClose(t, cm.ColSums(), matrix.ColSums(m, threads), "colsums")
				assertMatClose(t, cm.RowSums(threads), matrix.RowSums(m, threads), "rowsums")
			})
		}
	}
}

// TestCompressedKernelsBitwiseStableAcrossThreads asserts the fixed-chunk
// partitioning promise: thread count never changes a single bit.
func TestCompressedKernelsBitwiseStableAcrossThreads(t *testing.T) {
	m := lowCardMatrix(3000, 6, 3)
	cm := compressOrFatal(t, m)
	v := matrix.RandUniform(6, 1, -1, 1, 1.0, 11)
	r1, err := cm.MatVec(v, 1)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := cm.MatVec(v, 4)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < r1.Rows(); r++ {
		if r1.Get(r, 0) != r4.Get(r, 0) {
			t.Fatalf("matvec row %d differs across thread counts: %v vs %v", r, r1.Get(r, 0), r4.Get(r, 0))
		}
	}
}

// TestPlannerEncodingChoices asserts the planner picks the expected encoding
// per column structure.
func TestPlannerEncodingChoices(t *testing.T) {
	m := lowCardMatrix(2000, 3, 4) // col0 low-card, col1 run-heavy, col2 noise
	plan := EstimatePlan(m, PlannerConfig{}, 1)
	if got := plan.Cols[0].Enc; got != EncDDC {
		t.Errorf("low-cardinality column encoded as %s, want ddc", got)
	}
	if got := plan.Cols[1].Enc; got != EncRLE {
		t.Errorf("run-heavy column encoded as %s, want rle", got)
	}
	if got := plan.Cols[2].Enc; got != EncUncompressed {
		t.Errorf("noise column encoded as %s, want unc", got)
	}
}

// TestPlannerRatioCrossover drives the planner across the acceptance
// threshold: an all-noise matrix rejects (ratio ~1), an all-low-cardinality
// matrix accepts (ratio ~8), and the threshold knob moves the decision.
func TestPlannerRatioCrossover(t *testing.T) {
	noise := matrix.RandUniform(2000, 8, 0, 1, 1.0, 5)
	if _, plan, ok := Compress(noise, PlannerConfig{}, 1); ok {
		t.Fatalf("noise matrix accepted at ratio %.2f, want reject", plan.EstRatio)
	}
	lc := matrix.NewDense(2000, 8)
	for r := 0; r < 2000; r++ {
		for c := 0; c < 8; c++ {
			lc.Set(r, c, float64((r+c)%4))
		}
	}
	cm, plan, ok := Compress(lc, PlannerConfig{}, 1)
	if !ok {
		t.Fatalf("low-cardinality matrix rejected at ratio %.2f, want accept", plan.EstRatio)
	}
	if plan.EstRatio < 2 {
		t.Errorf("low-cardinality ratio %.2f, want >= 2", plan.EstRatio)
	}
	if cm.InMemorySize() >= lc.InMemorySize() {
		t.Errorf("compressed %dB not smaller than uncompressed %dB", cm.InMemorySize(), lc.InMemorySize())
	}
	// the threshold knob flips the decision for the same input: acceptance
	// requires BOTH the sample estimate and the achieved post-encode ratio to
	// clear the threshold, so the crossover sits at the smaller of the two
	achieved := float64(plan.UncompressedBytes) / float64(plan.ActualCompressedBytes)
	crossover := math.Min(plan.EstRatio, achieved)
	_, plan2, ok2 := Compress(lc, PlannerConfig{MinRatio: crossover + 0.01}, 1)
	if ok2 {
		t.Errorf("accept at threshold above the deliverable ratio (est %.2f, achieved %.2f)", plan2.EstRatio, achieved)
	}
	if _, _, ok3 := Compress(lc, PlannerConfig{MinRatio: crossover - 0.01}, 1); !ok3 {
		t.Errorf("reject at threshold below the deliverable ratio (est %.2f, achieved %.2f)", plan.EstRatio, achieved)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	for name, m := range testDrivers(t) {
		t.Run(name, func(t *testing.T) {
			cm := compressOrFatal(t, m)
			path := filepath.Join(t.TempDir(), "spill.sdsc")
			if err := cm.WriteFile(path); err != nil {
				t.Fatal(err)
			}
			back, err := ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			assertMatClose(t, back.Decompress(), m, "serialized round trip")
			if back.EncodingSummary() != cm.EncodingSummary() {
				t.Errorf("encodings changed across serialization: %s vs %s", back.EncodingSummary(), cm.EncodingSummary())
			}
		})
	}
}

// TestDictionaryOverflowFallsBack forces a column past MaxDictSize distinct
// values and asserts the exact encoder falls back to the uncompressed group
// rather than mis-encoding.
func TestDictionaryOverflowFallsBack(t *testing.T) {
	rows := MaxDictSize + 10
	m := matrix.NewDense(rows, 1)
	for r := 0; r < rows; r++ {
		m.Set(r, 0, float64(r)+0.5)
	}
	encoded := encodeGroups(m, []encodeUnit{{cols: []int{0}, enc: EncDDC}}, 1)
	if encoded[0] != nil {
		t.Fatalf("DDC encoding of %d distinct values should overflow", rows)
	}
}

// TestRLEPastTheCodeSpaceFallsBack drives the RLE encoder over a column of
// runs of three rows: MaxDictSize distinct run values still encode, one more
// falls back to the uncompressed group, as the dictionary encoders do.
func TestRLEPastTheCodeSpaceFallsBack(t *testing.T) {
	for _, runs := range []int{MaxDictSize, MaxDictSize + 1, 70000} {
		m := matrix.NewDense(3*runs, 1)
		for r := range m.Rows() {
			m.Set(r, 0, float64(r/3))
		}
		encoded := encodeGroups(m, []encodeUnit{{cols: []int{0}, enc: EncRLE}}, 1)
		if fits := runs <= MaxDictSize; (encoded[0] != nil) != fits {
			t.Errorf("%d distinct run values: encoded %v, want an RLE group %v", runs, encoded[0] != nil, fits)
		}
	}
}

// TestSparseInputNotInflated asserts the acceptance baseline is the input's
// ACTUAL representation: a sparse CSR block whose dense image would make
// DDC look like an 8x win must be rejected when the encoding is larger than
// the CSR form it would replace.
func TestSparseInputNotInflated(t *testing.T) {
	base := matrix.RandUniform(4000, 50, 0, 1, 0.02, 13)
	m := matrix.NewDense(4000, 50)
	for r := 0; r < 4000; r++ {
		for c := 0; c < 50; c++ {
			if v := base.Get(r, c); v != 0 {
				m.Set(r, c, math.Ceil(v*4))
			}
		}
	}
	m = m.ExamineAndApplySparsity()
	if !m.IsSparse() {
		t.Fatalf("fixture should be sparse")
	}
	cm, plan, ok := Compress(m, PlannerConfig{}, 1)
	if ok && cm.InMemorySize() > m.InMemorySize() {
		t.Fatalf("accepted a compression larger than the input: %dB vs CSR %dB (ratio %.2f)",
			cm.InMemorySize(), m.InMemorySize(), plan.EstRatio)
	}
	if ok {
		t.Logf("accepted at ratio %.2f with %dB vs %dB", plan.EstRatio, cm.InMemorySize(), m.InMemorySize())
	}
}

// TestAchievedRatioRecheck fools the systematic sample with stride-aligned
// periodic data: the estimate accepts, but the exact encoding is larger than
// the input and must be rejected post-encode.
func TestAchievedRatioRecheck(t *testing.T) {
	rows := 16384
	m := matrix.NewDense(rows, 8)
	noise := matrix.RandUniform(rows, 8, 0, 1, 1.0, 17)
	for r := 0; r < rows; r++ {
		for c := 0; c < 8; c++ {
			if r%(rows/DefaultSampleRows) == 0 {
				m.Set(r, c, float64(r%2)) // sampled rows look 2-valued
			} else {
				m.Set(r, c, noise.Get(r, c)) // off-sample rows are distinct
			}
		}
	}
	m.RecomputeNNZ()
	cm, plan, ok := Compress(m, PlannerConfig{}, 1)
	if ok && cm.InMemorySize() > m.InMemorySize() {
		t.Fatalf("accepted an encoding larger than the input: %dB vs %dB (est ratio %.2f)",
			cm.InMemorySize(), m.InMemorySize(), plan.EstRatio)
	}
}

// compressedValue runs a full aggregate of the aggregate table on cm's column
// groups.
func compressedValue(t *testing.T, cm *CompressedMatrix, name string) float64 {
	t.Helper()
	agg, _ := matrix.AggregateOf(name)
	v, _, ok := cm.Aggregate(agg, 1)
	if !ok {
		t.Fatalf("%s has no compressed kernel", name)
	}
	return v
}

// TestCompressedExtremesNeverKeepNaN: the compressed min and max fold every
// group's values by the rule of the aggregate table's reductions, as the
// local kernels do, so a NaN cell is never the result and ±Inf are ordinary
// values; nnz counts a NaN and not a -0. Each case holds the compressed
// result to the local rung bitwise, over DDC columns, a mostly-constant
// column with NaN exceptions and an all-NaN column.
func TestCompressedExtremesNeverKeepNaN(t *testing.T) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	for _, levels := range [][][]float64{
		{{0, 1, 2, nan}, {4, 3, nan}, {nan}},
		{{inf, -3, 0, nan}, {-inf, 5, negZero}, {nan}},
		{{7, 7, 7, 7, 7, 7, 7, 7, 7, nan}, {2, 3}},
	} {
		rng := rand.New(rand.NewSource(7))
		const rows, cols = 2000, 6
		m := matrix.NewDense(rows, cols)
		for c := 0; c < cols; c++ {
			lv := levels[c%len(levels)]
			for r := 0; r < rows; r++ {
				m.Set(r, c, lv[rng.Intn(len(lv))])
			}
		}
		m.RecomputeNNZ()
		cm, _, ok := Compress(m, PlannerConfig{}, 1)
		if !ok {
			t.Fatalf("%v: does not compress", levels)
		}
		for _, name := range []string{"min", "max", "nnz"} {
			agg, _ := matrix.AggregateOf(name)
			want, _ := agg.Apply(m, 1)
			if got := compressedValue(t, cm, name); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%v (%s): %s = %v, the local rung %v", levels, cm.EncodingSummary(), name, got, want)
			}
		}
	}
}
