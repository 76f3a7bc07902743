package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Resolve returns a copy of recs with orphan spans (Parent 0 or pointing at
// an ID not in the set) re-parented under the innermost span that contains
// them in time. Deep layers emit orphans by design (they have no parent
// handle in scope); a single sweep with an open-span stack fixes them up
// after the fact. Records are returned sorted by start time, with longer
// spans before shorter ones at equal starts so containers precede their
// contents.
func Resolve(recs []Record) []Record {
	out := make([]Record, len(recs))
	copy(out, recs)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		if out[i].Dur != out[j].Dur {
			return out[i].Dur > out[j].Dur
		}
		return out[i].ID < out[j].ID
	})
	ids := make(map[uint64]bool, len(out))
	for _, r := range out {
		ids[r.ID] = true
	}
	// stack holds the currently open spans, innermost last. Because starts
	// are sorted ascending, a stack entry contains the candidate iff its end
	// does not precede the candidate's end. Spans from concurrent workers can
	// partially overlap; popping on end-time keeps the sweep deterministic
	// and only affects orphans (explicitly parented spans are left alone).
	var stack []Record
	for i := range out {
		r := &out[i]
		for len(stack) > 0 && stack[len(stack)-1].End() < r.End() {
			stack = stack[:len(stack)-1]
		}
		if r.Parent == 0 || !ids[r.Parent] {
			if len(stack) > 0 {
				r.Parent = stack[len(stack)-1].ID
			} else {
				r.Parent = 0
			}
		}
		stack = append(stack, *r)
	}
	return out
}

// OpMetric is one row of the per-opcode metrics table.
type OpMetric struct {
	// Cat and Name identify the span class (e.g. "instr"/"ba+*").
	Cat  string
	Name string
	// Count is the number of spans, WallNs their summed duration, SelfNs the
	// summed duration minus time attributed to direct children, Bytes the
	// summed payload bytes moved.
	Count  int64
	WallNs int64
	SelfNs int64
	Bytes  int64
}

// Aggregate folds resolved records into per-(cat, name) metrics, sorted by
// self time descending (category and name break ties, so the table is
// deterministic across runs of the same trace).
func Aggregate(recs []Record) []OpMetric {
	childNs := make(map[uint64]int64, len(recs))
	for _, r := range recs {
		if r.Parent != 0 {
			childNs[r.Parent] += r.Dur
		}
	}
	agg := make(map[string]*OpMetric, 32)
	var keys []string
	for _, r := range recs {
		k := r.Cat + "\x00" + r.Name
		m := agg[k]
		if m == nil {
			m = &OpMetric{Cat: r.Cat, Name: r.Name}
			agg[k] = m
			keys = append(keys, k)
		}
		m.Count++
		m.WallNs += r.Dur
		self := r.Dur - childNs[r.ID]
		if self < 0 {
			// Concurrent children (parfor workers, dist tasks of one operator)
			// can sum past the parent's wall time; clamp instead of going
			// negative.
			self = 0
		}
		m.SelfNs += self
		m.Bytes += r.Bytes
	}
	out := make([]OpMetric, 0, len(keys))
	for _, k := range keys {
		out = append(out, *agg[k])
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfNs != out[j].SelfNs {
			return out[i].SelfNs > out[j].SelfNs
		}
		if out[i].Cat != out[j].Cat {
			return out[i].Cat < out[j].Cat
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// TopK returns the first k metrics (they are already sorted by self time).
func TopK(ms []OpMetric, k int) []OpMetric {
	if k < len(ms) {
		return ms[:k]
	}
	return ms
}

// FormatHeavyHitters renders a SystemDS-style top-K heavy-hitter report from
// raw records: resolves parents, aggregates per opcode, and appends run
// wall-time and instruction-coverage footer lines (the same sums that
// core's TestTracedCompressedLmRun reconciles against the run span — keep the
// "run wall time" and "total instruction time" labels stable).
func FormatHeavyHitters(recs []Record, k int) string {
	resolved := Resolve(recs)
	ms := Aggregate(resolved)
	var sb strings.Builder
	sb.WriteString("Heavy hitter operations (top " + fmt.Sprint(k) + " by self time):\n")
	sb.WriteString(fmt.Sprintf("  %3s  %-9s %-24s %9s %12s %12s %14s\n",
		"#", "category", "operation", "count", "wall[ms]", "self[ms]", "bytes"))
	for i, m := range TopK(ms, k) {
		sb.WriteString(fmt.Sprintf("  %3d  %-9s %-24s %9d %12.3f %12.3f %14d\n",
			i+1, m.Cat, m.Name, m.Count, float64(m.WallNs)/1e6, float64(m.SelfNs)/1e6, m.Bytes))
	}
	var runNs, instrNs int64
	for _, r := range resolved {
		switch r.Cat {
		case CatRun:
			runNs += r.Dur
		case CatInstr:
			instrNs += r.Dur
		}
	}
	sb.WriteString(fmt.Sprintf("run wall time: %.3f ms\n", float64(runNs)/1e6))
	if runNs > 0 {
		sb.WriteString(fmt.Sprintf("total instruction time: %.3f ms (%.1f%% of run)\n",
			float64(instrNs)/1e6, 100*float64(instrNs)/float64(runNs)))
	} else {
		sb.WriteString(fmt.Sprintf("total instruction time: %.3f ms\n", float64(instrNs)/1e6))
	}
	return sb.String()
}
