package main

// The metric registry: every name the benchmark emits, with its unit, its
// direction and — for the end-to-end metrics — the bound by which the median
// may worsen before -compare calls it a regression. BENCHMARK.json repeats
// the gated and per-layer rows; bench_test.go keeps the two in step.

import (
	"math"
	"sort"
)

type metricKind int

const (
	endToEnd metricKind = iota // gated by -compare
	perLayer                   // from the traced set and the kernel probes
	extra                      // printed, never gated
)

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Kind   metricKind
	// Bound is the share of the base median an end-to-end metric may worsen
	// by; 0 with Kind endToEnd means any increase is a regression.
	Bound float64
	// Count marks metrics that must repeat exactly for a fixed seed.
	Count bool
	// Derived marks per-layer ratios computed from other values of the
	// vector; Probe marks kernel probes, measured once per process by direct
	// calls rather than per traced op.
	Derived, Probe bool
}

var instrClasses = []string{"matmult", "reorg", "cellwise", "agg", "solve", "index", "datagen", "io_transform", "fcall_ctrl", "other"}

var metricDefs = buildMetricDefs()

func buildMetricDefs() []metricDef {
	defs := []metricDef{
		{Name: "run_s", Unit: "s", Better: "lower", Kind: endToEnd, Bound: 0.25},
		{Name: "alloc_mb", Unit: "MB/op", Better: "lower", Kind: endToEnd, Bound: 0.10},
		{Name: "fail_ratio", Unit: "ratio", Better: "lower", Kind: endToEnd, Bound: 0},
		{Name: "setup_s", Unit: "s", Better: "lower", Kind: endToEnd, Bound: 0.25},

		{Name: "samples", Unit: "count", Better: "higher", Kind: extra},
		{Name: "run_min_s", Unit: "s", Better: "lower", Kind: extra},
		{Name: "run_q1_s", Unit: "s", Better: "lower", Kind: extra},
		{Name: "run_q3_s", Unit: "s", Better: "lower", Kind: extra},
		{Name: "alloc_q1_mb", Unit: "MB/op", Better: "lower", Kind: extra},
		{Name: "alloc_q3_mb", Unit: "MB/op", Better: "lower", Kind: extra},
		{Name: "setup_min_s", Unit: "s", Better: "lower", Kind: extra},
		{Name: "setup_max_s", Unit: "s", Better: "lower", Kind: extra},
		{Name: "call_p50_us", Unit: "us", Better: "lower", Kind: extra},
		{Name: "call_p99_us", Unit: "us", Better: "lower", Kind: extra},
		{Name: "bench.span_coverage", Unit: "ratio", Better: "higher", Kind: extra},
		{Name: "traced_ops", Unit: "count", Better: "higher", Kind: extra},

		{Name: "lang.parse_s", Unit: "s", Better: "lower", Kind: perLayer},
		{Name: "compiler.compile_s", Unit: "s", Better: "lower", Kind: perLayer},
		{Name: "compiler.alloc_kb", Unit: "KB", Better: "lower", Kind: perLayer},
		{Name: "core.bind_collect_s", Unit: "s", Better: "lower", Kind: perLayer},
		{Name: "runtime.interp_s", Unit: "s", Better: "lower", Kind: perLayer},
		{Name: "runtime.instr_count", Unit: "count", Better: "lower", Kind: perLayer, Count: true},
	}
	for _, c := range instrClasses {
		defs = append(defs, metricDef{Name: "instructions." + c + "_s", Unit: "s", Better: "lower", Kind: perLayer})
	}
	return append(defs, []metricDef{
		{Name: "instructions.other_share", Unit: "ratio", Better: "lower", Kind: perLayer, Derived: true},
		{Name: "compress.encode_s", Unit: "s", Better: "lower", Kind: perLayer},
		{Name: "compress.ratio", Unit: "ratio", Better: "higher", Kind: perLayer, Derived: true},
		{Name: "compress.ops", Unit: "count", Better: "higher", Kind: perLayer, Count: true},
		{Name: "compress.decompressions", Unit: "count", Better: "lower", Kind: perLayer, Count: true},
		{Name: "lineage.get_s", Unit: "s", Better: "lower", Kind: perLayer},
		{Name: "lineage.put_s", Unit: "s", Better: "lower", Kind: perLayer},
		{Name: "lineage.hits", Unit: "count", Better: "higher", Kind: perLayer, Count: true},
		{Name: "lineage.misses", Unit: "count", Better: "lower", Kind: perLayer, Count: true},
		{Name: "lineage.partial_hits", Unit: "count", Better: "higher", Kind: perLayer, Count: true},
		{Name: "lineage.hit_ratio", Unit: "ratio", Better: "higher", Kind: perLayer, Derived: true},
		{Name: "lineage.cached_mb", Unit: "MB", Better: "lower", Kind: perLayer},
		{Name: "bufferpool.store_write_mb", Unit: "MB", Better: "lower", Kind: perLayer},
		{Name: "bufferpool.store_read_mb", Unit: "MB", Better: "lower", Kind: perLayer},
		{Name: "bufferpool.store_hits", Unit: "count", Better: "higher", Kind: perLayer, Count: true},
		{Name: "bufferpool.spill_s", Unit: "s", Better: "lower", Kind: perLayer},
		{Name: "bufferpool.restore_s", Unit: "s", Better: "lower", Kind: perLayer},
		{Name: "bufferpool.evictions", Unit: "count", Better: "lower", Kind: perLayer, Count: true},
		{Name: "bufferpool.spilt_mb", Unit: "MB", Better: "lower", Kind: perLayer},
		{Name: "bufferpool.leaked_files", Unit: "count", Better: "lower", Kind: perLayer, Count: true},
		{Name: "dist.task_s", Unit: "s", Better: "lower", Kind: perLayer},
		{Name: "dist.partitions", Unit: "count", Better: "lower", Kind: perLayer, Count: true},
		{Name: "dist.collects", Unit: "count", Better: "lower", Kind: perLayer, Count: true},
		{Name: "dist.blocked_ops", Unit: "count", Better: "higher", Kind: perLayer, Count: true},
		{Name: "obs.trace_overhead", Unit: "ratio", Better: "lower", Kind: perLayer, Derived: true},

		{Name: "matrix.tsmm_gflops", Unit: "GFLOP/s", Better: "higher", Kind: perLayer, Probe: true},
		{Name: "matrix.tsmm_peak_frac", Unit: "ratio", Better: "higher", Kind: perLayer, Probe: true},
		{Name: "matrix.mv_gbs", Unit: "GB/s", Better: "higher", Kind: perLayer, Probe: true},
		{Name: "matrix.mv_bw_frac", Unit: "ratio", Better: "higher", Kind: perLayer, Probe: true},
		{Name: "matrix.tmv_gbs", Unit: "GB/s", Better: "higher", Kind: perLayer, Probe: true},
		{Name: "matrix.mv_s", Unit: "s", Better: "lower", Kind: perLayer, Probe: true},
		{Name: "compress.mv_s", Unit: "s", Better: "lower", Kind: perLayer, Probe: true},
		{Name: "io.csv_mb_s", Unit: "MB/s", Better: "higher", Kind: perLayer, Probe: true},
		{Name: "frame.encode_rows_s", Unit: "rows/s", Better: "higher", Kind: perLayer, Probe: true},
	}...)
}

func metricByName(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// metric is one emitted value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values; set looks the unit up so a name
// missing from the registry is a programming error caught by the smoke test.
type metricSet map[string]metric

func (ms metricSet) set(name string, v float64) {
	d, ok := metricByName(name)
	if !ok {
		panic("bench: metric " + name + " is not in the registry")
	}
	ms[name] = metric{Value: v, Unit: d.Unit}
}

func (ms metricSet) merge(other metricSet) {
	for k, v := range other {
		ms[k] = v
	}
}

func (ms metricSet) only(kind metricKind) metricSet {
	out := metricSet{}
	for _, d := range metricDefs {
		if m, ok := ms[d.Name]; ok && d.Kind == kind {
			out[d.Name] = m
		}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (exclusive method), so the
// spreads printed here are the ones the acceptance procedure computes.
func quartiles(values []float64) (q1, med, q3 float64) {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return v[0], v[0], v[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (v[j-1]*(4-delta) + v[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100).
func percentile(values []float64, p float64) float64 {
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	rank := int(math.Ceil(p / 100 * float64(len(v))))
	if rank < 1 {
		rank = 1
	}
	return v[rank-1]
}
