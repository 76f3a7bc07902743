package compress

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
)

// The planner this file keeps is the one EstimatePlan replaced: per-column
// frequencies in a Go map, sorted, and joint (code, value bits) pairs in
// another. EstimatePlan is held to it plan for plan.

// oracleEstimatePlan is the planner EstimatePlan replaced, kept as its
// oracle: a systematic row sample is scanned once per column to estimate cardinality
// (Haas–Stokes) and run structure, each column is priced under DDC, RLE, SDC
// and the uncompressed fallback, the cheapest encoding wins, and a greedy
// pass merges adjacent low-cardinality columns into co-coded groups when the
// estimated joint dictionary is smaller. Compression is accepted only when
// the estimated overall ratio clears cfg.MinRatio.
func oracleEstimatePlan(m *matrix.MatrixBlock, cfg PlannerConfig) *Plan {
	rows, cols := m.Rows(), m.Cols()
	plan := &Plan{UncompressedBytes: m.InMemorySize()}
	if rows == 0 || cols == 0 {
		return plan
	}
	step := 1
	if s := cfg.sampleRows(); rows > s {
		step = rows / s
	}
	// the sampled rows are copied out once, side by side: the column scans
	// below then walk a few hundred pages instead of one page per sampled row
	n := (rows + step - 1) / step
	sample := make([]float64, n*cols)
	for i := 0; i < n; i++ {
		m.CopyRow(sample[i*cols:(i+1)*cols], i*step, 0)
	}
	plan.SampledRows = n
	plan.Cols = make([]ColPlan, cols)
	for c := 0; c < cols; c++ {
		freq := map[float64]int{}
		changes := 0
		prev := 0.0
		for i := 0; i < n; i++ {
			v := sample[i*cols+c]
			freq[v]++
			if i > 0 && v != prev {
				changes++
			}
			prev = v
		}
		// collect-then-sort so the frequency statistics never depend on map
		// iteration order
		vals := make([]float64, 0, len(freq))
		for v := range freq {
			vals = append(vals, v)
		}
		sort.Float64s(vals)
		maxFreq := 0
		defaultVal := 0.0
		cnts := make([]int, 0, len(vals))
		for _, v := range vals {
			cnt := freq[v]
			cnts = append(cnts, cnt)
			if cnt > maxFreq {
				maxFreq, defaultVal = cnt, v
			}
		}
		cp := estimateColumn(rows, n, haasStokes(rows, n, cnts), changes, maxFreq)
		cp.Col = c
		cp.Default = defaultVal
		plan.Cols[c] = cp
	}
	oracleCocodePlan(sample, plan, rows)
	// total the plan: co-coded groups once, every other column separately
	var total int64
	for _, cc := range plan.CoCoded {
		total += cc.EstBytes + groupOverheadBytes
	}
	for c := 0; c < cols; c++ {
		if plan.Cols[c].Enc == EncCoCoded {
			continue
		}
		total += plan.Cols[c].EstBytes + groupOverheadBytes
	}
	plan.EstCompressedBytes = total
	if total > 0 {
		plan.EstRatio = float64(plan.UncompressedBytes) / float64(total)
	}
	plan.Accepted = plan.EstRatio >= cfg.minRatio()
	return plan
}

// oracleCocodeKey identifies a (current joint code, next column value) pair during
// the greedy joint-cardinality scan.
type oracleCocodeKey struct {
	code int32
	bits uint64
}

// oracleCocodePlan greedily merges runs of adjacent DDC-planned low-cardinality
// columns into co-coded groups: a candidate column joins the current set when
// the estimated bytes of the merged group (joint codes plus a tuple
// dictionary sized by the Haas–Stokes estimate of the joint cardinality)
// undercut the current set and the candidate encoded separately. One joint
// sample scan per tested merge keeps the pass O(cols * sampleRows).
func oracleCocodePlan(sample []float64, plan *Plan, rows int) {
	cols := len(plan.Cols)
	n := len(sample) / cols
	if n == 0 {
		return
	}
	var cur []int      // columns of the current candidate set
	var curCard int    // Haas–Stokes joint-cardinality estimate for cur
	var curBytes int64 // estimated merged bytes for cur
	// curCodes holds the joint code per sampled row for cur. Every scan below
	// numbers (joint code, value) pairs into newCodes through the same table,
	// so a pass over a hundred columns allocates two buffers and one table.
	curCodes, newCodes := make([]int32, n), make([]int32, n)
	ids := map[oracleCocodeKey]int32{}
	var counts []int
	scan := func(c int) {
		clear(ids)
		counts = counts[:0]
		for i := 0; i < n; i++ {
			k := oracleCocodeKey{code: curCodes[i], bits: math.Float64bits(sample[i*cols+c])}
			id, ok := ids[k]
			if !ok {
				id = int32(len(ids))
				ids[k] = id
				counts = append(counts, 0)
			}
			counts[id]++
			newCodes[i] = id
		}
	}
	flush := func() {
		if len(cur) >= 2 {
			plan.CoCoded = append(plan.CoCoded, CoCodePlan{Cols: cur, EstCard: curCard, EstBytes: curBytes})
			for _, cc := range cur {
				plan.Cols[cc].Enc = EncCoCoded
			}
		}
		cur = nil
	}
	for c := 0; c < len(plan.Cols); c++ {
		cp := plan.Cols[c]
		if cp.Enc != EncDDC || cp.EstCard > cocodeCandCard {
			flush()
			continue
		}
		if cur == nil {
			// a fresh set: the column's values extend the empty tuple
			cur = []int{c}
			clear(curCodes)
			scan(c)
			curCodes, newCodes = newCodes, curCodes
			curCard, curBytes = cp.EstCard, cp.EstBytes
			continue
		}
		if len(cur) >= cocodeMaxWidth {
			flush()
			c-- // re-test this column as the start of a fresh set
			continue
		}
		// joint scan: extend the current per-row codes with this column's
		// values and estimate the joint cardinality of the merged set
		scan(c)
		jointCard := haasStokes(rows, n, counts)
		w := len(cur) + 1
		mergedBytes := int64(-1)
		if jointCard <= MaxDictSize {
			codeBytes := int64(1)
			if jointCard > 256 {
				codeBytes = 2
			}
			mergedBytes = int64(rows)*codeBytes + int64(jointCard)*int64(8*w+4)
		}
		// merging must beat the current set and the candidate as separate
		// groups (their bytes plus one saved per-group overhead)
		if mergedBytes >= 0 && mergedBytes < curBytes+cp.EstBytes+groupOverheadBytes {
			cur = append(cur, c)
			curCodes, newCodes = newCodes, curCodes
			curCard, curBytes = jointCard, mergedBytes
			continue
		}
		flush()
		c-- // re-test this column as the start of a fresh set
	}
	flush()
}

// samePlan reports whether two plans are deeply equal, a NaN default equal
// to a NaN default.
func samePlan(a, b *Plan) bool {
	return fmt.Sprintf("%+v", *a) == fmt.Sprintf("%+v", *b)
}

// TestPlanMatchesOracle holds EstimatePlan to the map-keyed planner on every
// oracle input, at every thread count and at stride-1 and strided samples.
func TestPlanMatchesOracle(t *testing.T) {
	for name, m := range oracleInputs(t) {
		for _, cfg := range []PlannerConfig{{}, {SampleRows: 300}, {SampleRows: 1 << 20}} {
			want := oracleEstimatePlan(m, cfg)
			for _, threads := range oracleThreads {
				if got := EstimatePlan(m, cfg, threads); !samePlan(got, want) {
					t.Fatalf("%s, %d sample rows, %d threads:\n got %+v\nwant %+v", name, cfg.SampleRows, threads, *got, *want)
				}
			}
		}
	}
}
