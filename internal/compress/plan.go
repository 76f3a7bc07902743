package compress

import (
	"fmt"
	"math"

	"github.com/systemds/systemds-go/internal/matrix"
)

// Planner knobs. The sample-based estimates are deliberately deterministic
// (systematic row sampling, no RNG), so the same input always produces the
// same plan and compressed runs are bitwise reproducible.
const (
	// DefaultSampleRows is the number of rows the planner inspects per column.
	DefaultSampleRows = 2048
	// DefaultMinRatio is the estimated compression ratio below which
	// compression is rejected: the encoded form would not pay for the encode
	// pass and the per-group overheads.
	DefaultMinRatio = 1.2
	// MaxDictSize is the largest dictionary a DDC group can address (two-byte
	// codes); columns with more distinct values fall back to the uncompressed
	// group.
	MaxDictSize = 65536
	// groupOverheadBytes is the fixed per-group bookkeeping charge used by the
	// size estimates (headers, slices, the interface value).
	groupOverheadBytes = 64
	// cocodeMaxWidth caps how many columns one co-coded group may span.
	cocodeMaxWidth = 8
	// cocodeCandCard is the per-column estimated-cardinality ceiling for
	// co-coding candidates: only clearly low-cardinality DDC columns are worth
	// testing for joint structure.
	cocodeCandCard = 256
)

// PlannerConfig parameterizes the sample-based compression planner.
type PlannerConfig struct {
	// SampleRows is the number of rows sampled per column (systematic
	// sampling with a fixed stride); <= 0 uses DefaultSampleRows.
	SampleRows int
	// MinRatio is the estimated-ratio acceptance threshold; <= 0 uses
	// DefaultMinRatio.
	MinRatio float64
}

func (c PlannerConfig) sampleRows() int {
	if c.SampleRows <= 0 {
		return DefaultSampleRows
	}
	return c.SampleRows
}

func (c PlannerConfig) minRatio() float64 {
	if c.MinRatio <= 0 {
		return DefaultMinRatio
	}
	return c.MinRatio
}

// ColPlan is the planner's per-column estimate and encoding choice.
type ColPlan struct {
	Col int
	// Enc is the chosen encoding (cheapest estimated size). EncCoCoded means
	// the column was merged into one of Plan.CoCoded's groups.
	Enc Encoding
	// EstCard is the estimated number of distinct values (Haas–Stokes),
	// EstRuns the estimated number of value runs.
	EstCard, EstRuns int
	// Default is the most frequent sampled value — the default value an SDC
	// encoding of this column would use.
	Default float64
	// EstBytes is the estimated encoded size under Enc (for co-coded members,
	// the pre-merge DDC estimate; the merged size lives on the CoCodePlan).
	EstBytes int64
}

// CoCodePlan is one planned co-coded group: a set of adjacent low-cardinality
// columns whose estimated joint dictionary is smaller than their separate
// dictionaries.
type CoCodePlan struct {
	Cols     []int // ascending, contiguous
	EstCard  int   // estimated joint cardinality (Haas–Stokes on joint tuples)
	EstBytes int64
}

// Plan is the output of the sample-based compression planner: per-column
// encoding choices, the estimated total size, and the accept/reject decision
// against the minimum-ratio threshold.
type Plan struct {
	Cols []ColPlan
	// CoCoded lists the planned co-coded column groups (greedy adjacent
	// merges priced by the Haas–Stokes joint-cardinality estimate).
	CoCoded []CoCodePlan
	// UncompressedBytes is the actual in-memory size of the input block (CSR
	// for sparse inputs — the representation compression must beat, so a
	// sparse matrix is never "compressed" into something larger than its CSR
	// form); EstCompressedBytes is the estimated size of the chosen
	// encodings.
	UncompressedBytes  int64
	EstCompressedBytes int64
	// EstRatio is UncompressedBytes / EstCompressedBytes.
	EstRatio float64
	// ActualCompressedBytes is the exact encoded size (set by Compress after
	// encoding; 0 when the plan was rejected before encoding). Compress
	// re-checks the achieved ratio against it and rejects encodings that did
	// not actually shrink the data.
	ActualCompressedBytes int64
	// Accepted reports whether the estimated ratio clears the threshold.
	Accepted bool
	// SampledRows is the number of rows the estimates were derived from.
	SampledRows int
}

// String renders the plan decision for explain output and tests.
func (p *Plan) String() string {
	return fmt.Sprintf("compress plan: ratio=%.2f (est %dB of %dB) accepted=%v",
		p.EstRatio, p.EstCompressedBytes, p.UncompressedBytes, p.Accepted)
}

// EstimatePlan runs the sample-based planner over a matrix block: a
// systematic row sample is coded once per column (one column per task, on up
// to threads workers) to estimate cardinality (Haas–Stokes) and run
// structure, each column is priced under DDC, RLE, SDC and the uncompressed
// fallback, the cheapest encoding wins, and a greedy pass over the sample
// codes merges adjacent low-cardinality columns into co-coded groups when the
// estimated joint dictionary is smaller. Compression is accepted only when
// the estimated overall ratio clears cfg.MinRatio. The plan does not depend
// on threads.
func EstimatePlan(m *matrix.MatrixBlock, cfg PlannerConfig, threads int) *Plan {
	rows, cols := m.Rows(), m.Cols()
	plan := &Plan{UncompressedBytes: m.InMemorySize()}
	if rows == 0 || cols == 0 {
		return plan
	}
	step := 1
	if s := cfg.sampleRows(); rows > s {
		step = rows / s
	}
	// column c's i-th sampled value is sample[c+i*stride]: a dense block is
	// read in place, a sparse one's sampled rows are copied out side by side
	n := (rows + step - 1) / step
	var sample []float64
	stride := step * cols
	if m.IsSparse() {
		sample, stride = make([]float64, n*cols), cols
		for i := 0; i < n; i++ {
			m.CopyRow(sample[i*cols:(i+1)*cols], i*step, 0)
		}
	} else {
		sample = m.DenseValues()
	}
	plan.SampledRows = n
	plan.Cols = make([]ColPlan, cols)
	// codes[c*n+i] is the bit code of column c's i-th sampled value
	codes := make([]int32, n*cols)
	dicts := make([][]float64, cols)
	tables := make([]codeTable, max(1, min(threads, cols)))
	_ = matrix.ParallelFor(cols, threads, func(w, c int) error {
		cc := codes[c*n : (c+1)*n]
		dicts[c] = tables[w].codeColumn(cc, sample[c:], stride, nil)
		plan.Cols[c] = planColumn(rows, cc, dicts[c])
		plan.Cols[c].Col = c
		return nil
	})
	cocodePlan(codes, dicts, plan, rows)
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

// planColumn prices one column from the bit codes of its sampled values
// under the statistics of ==: +0 and -0 are one value; every NaN is a value
// of its own that, like a NaN key of a Go map, is never counted. The default
// is the most frequent value, the smallest one on a tie, and a zero default
// carries the sign of the last sampled zero.
func planColumn(rows int, codes []int32, dict []float64) ColPlan {
	// the == class of each bit code: the zeros share one, a NaN has none
	class := make([]int32, len(dict))
	zero, k := int32(-1), int32(0)
	for i, v := range dict {
		switch {
		case v != v:
			class[i] = -1
		case v == 0:
			if zero < 0 {
				zero, k = k, k+1
			}
			class[i] = zero
		default:
			class[i], k = k, k+1
		}
	}
	counts := make([]int, k)
	vals := make([]float64, k)
	changes, nans := 0, 0
	prev := int32(-1)
	for i, b := range codes {
		c := class[b]
		if c < 0 {
			nans++
		} else {
			counts[c]++
			vals[c] = dict[b]
		}
		if i > 0 && (c < 0 || c != prev) {
			changes++
		}
		prev = c
	}
	maxFreq, defaultVal := 0, 0.0
	for c, cnt := range counts {
		if cnt > maxFreq || cnt == maxFreq && vals[c] < defaultVal {
			maxFreq, defaultVal = cnt, vals[c]
		}
	}
	counts = append(counts, make([]int, nans)...)
	cp := estimateColumn(rows, len(codes), haasStokes(rows, len(codes), counts), changes, maxFreq)
	cp.Default = defaultVal
	return cp
}

// haasStokesHeavyCut is the sample count above which a value is treated as a
// certain population member and excluded from the jackknife extrapolation.
// Without this split the squared-CV term explodes under heavy skew (one value
// covering most rows) and the estimator grossly overestimates the tail.
const haasStokesHeavyCut = 16

// haasStokes estimates the column cardinality from the per-value sample
// counts using the Haas–Stokes smoothed-jackknife estimator (Haas et al.,
// "Sampling-based estimation of the number of distinct values of an
// attribute", VLDB 1995 — the estimator SystemDS uses for its compression
// planner), with frequency smoothing: values frequent in the sample are
// certainly distinct in the population and contribute no extrapolation
// uncertainty, so the jackknife runs only over the rare-value portion of the
// sample against its proportional share of the population. The naive
// scale-up rows*d/n badly overestimates skewed distributions (a heavy hitter
// plus a thin tail); the jackknife corrects with the singleton fraction and
// a squared-CV term. counts only feeds symmetric statistics, so its order
// does not matter.
func haasStokes(rows, sampled int, counts []int) int {
	d := len(counts)
	if d == 0 || sampled == 0 {
		return d
	}
	if sampled >= rows {
		return d // exact scan
	}
	heavy, light, f1 := 0, 0, 0
	var dupSum float64
	for _, cnt := range counts {
		if cnt > haasStokesHeavyCut {
			heavy++
			continue
		}
		light += cnt
		if cnt == 1 {
			f1++
		}
		dupSum += float64(float64(cnt) * float64(cnt-1))
	}
	dl := d - heavy
	if dl == 0 || light == 0 {
		return d // the sample saw only heavy values: the scan was exhaustive
	}
	// the light values' share of the population, by sample proportion
	n := float64(light)
	N := float64(rows) * n / float64(sampled)
	if N < n {
		N = n
	}
	q := n / N
	if q >= 1 {
		return d
	}
	denom := 1 - (1-q)*float64(f1)/n
	if denom < 1/N {
		denom = 1 / N // all-singleton sample: extrapolate to at most N
	}
	duj1 := float64(dl) / denom
	gamma2 := float64(duj1/(n*n)*dupSum) + duj1/N - 1
	if gamma2 < 0 {
		gamma2 = 0
	}
	est := (float64(dl) - float64(f1)*(1-q)*math.Log(1-q)*gamma2/q) / denom
	if est < float64(dl) {
		est = float64(dl)
	}
	if est > N {
		est = N
	}
	return heavy + int(est+0.5)
}

// estimateColumn prices one column under each encoding from its sample
// statistics and picks the cheapest. card is the Haas–Stokes cardinality
// estimate, maxFreq the sample count of the most frequent value (the SDC
// default candidate).
func estimateColumn(rows, sampled, card, sampleChanges, maxFreq int) ColPlan {
	// Runs: the fraction of adjacent sampled pairs that differ, scaled to all
	// row adjacencies (a change between two sampled rows implies at least one
	// change in the gap; for stride 1 the count is exact).
	runs := 1
	if sampled > 1 {
		runs = int(float64(rows-1)*float64(sampleChanges)/float64(sampled-1)) + 1
	}
	ddcBytes := int64(-1)
	if card <= MaxDictSize {
		codeBytes := int64(1)
		if card > 256 {
			codeBytes = 2
		}
		ddcBytes = int64(rows)*codeBytes + int64(card)*12 // dict (8) + counts (4)
	}
	rleBytes := int64(runs) * 16 // value (8) + start (4) + len (4)
	uncBytes := int64(rows) * 8
	// SDC: only the non-default rows pay per-row storage (position 4 + code
	// 2), plus the exception dictionary
	sdcBytes := int64(-1)
	if sampled > 0 {
		excCard := card - 1
		if excCard < 0 {
			excCard = 0
		}
		if excCard <= MaxDictSize {
			excRows := int64(float64(rows) * float64(sampled-maxFreq) / float64(sampled))
			sdcBytes = 16 + excRows*6 + int64(excCard)*12
		}
	}

	cp := ColPlan{Enc: EncUncompressed, EstCard: card, EstRuns: runs, EstBytes: uncBytes}
	if rleBytes < cp.EstBytes {
		cp.Enc, cp.EstBytes = EncRLE, rleBytes
	}
	if ddcBytes >= 0 && ddcBytes < cp.EstBytes {
		cp.Enc, cp.EstBytes = EncDDC, ddcBytes
	}
	if sdcBytes >= 0 && sdcBytes < cp.EstBytes {
		cp.Enc, cp.EstBytes = EncSDC, sdcBytes
	}
	return cp
}

// cocodePlan greedily merges runs of adjacent DDC-planned low-cardinality
// columns into co-coded groups: a candidate column joins the current set when
// the estimated bytes of the merged group (joint codes plus a tuple
// dictionary sized by the Haas–Stokes estimate of the joint cardinality)
// undercut the current set and the candidate encoded separately. codes holds
// each column's sample bit codes, column after column, and dicts their
// dictionaries; one joint scan over codes per tested merge keeps the pass
// O(cols * sampleRows).
func cocodePlan(codes []int32, dicts [][]float64, plan *Plan, rows int) {
	cols := len(plan.Cols)
	n := len(codes) / cols
	if n == 0 {
		return
	}
	var cur []int      // columns of the current candidate set
	var curCard int    // Haas–Stokes joint-cardinality estimate for cur
	var curBytes int64 // estimated merged bytes for cur
	// curCodes holds the joint code per sampled row for cur, curIDs how many
	// there are; a scan numbers (joint code, member code) pairs into newCodes
	curCodes, newCodes := make([]int32, n), make([]int32, n)
	curIDs := 0
	var pairs pairCoder
	var counts []int
	scan := func(c int) {
		pairs.init(curIDs, len(dicts[c]))
		pairs.number(newCodes, curCodes, codes[c*n:(c+1)*n])
		counts = append(counts[:0], make([]int, pairs.n)...)
		for _, k := range newCodes {
			counts[k]++
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
			// a fresh set: its joint codes are the column's own
			cur = []int{c}
			copy(curCodes, codes[c*n:(c+1)*n])
			curIDs = len(dicts[c])
			curCard, curBytes = cp.EstCard, cp.EstBytes
			continue
		}
		if len(cur) >= cocodeMaxWidth {
			flush()
			c-- // re-test this column as the start of a fresh set
			continue
		}
		// joint scan: extend the current per-row codes with this column's
		// codes and estimate the joint cardinality of the merged set
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
			curIDs = int(pairs.n)
			curCard, curBytes = jointCard, mergedBytes
			continue
		}
		flush()
		c-- // re-test this column as the start of a fresh set
	}
	flush()
}
