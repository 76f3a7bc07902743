package core

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/obs"
	"github.com/systemds/systemds-go/internal/runtime"
)

// tracedEngine builds an engine with tracing plus the compressed and
// distributed backends enabled — the full span surface in one run.
func tracedEngine(memBudget int64) *Engine {
	cfg := runtime.DefaultConfig()
	cfg.TraceEnabled = true
	cfg.CompressionEnabled = true
	cfg.DistEnabled = true
	if memBudget > 0 {
		cfg.OperatorMemBudget = memBudget
	}
	return NewEngine(cfg)
}

// TestTracedCompressedLmRun is the acceptance scenario of the tracing layer:
// a gradient-descent lm loop with compression and the distributed backend
// enabled, traced end to end — once over in-memory inputs (compressed X: its
// multiplies run their compressed kernels in-process wherever they are
// placed, so the run leaves compress spans and no dist spans) and once as
// scripts/lm_trace.dml (generated X, born blocked: dist spans). The run span
// must exist once, instruction spans must cover the
// bulk of it, the per-opcode table must agree with the run span and the plan
// records, and the Chrome trace export must be well-formed JSON whose parents
// resolve and whose lanes nest strictly.
func TestTracedCompressedLmRun(t *testing.T) {
	traceScript, err := os.ReadFile("../../scripts/lm_trace.dml")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		script   string
		inputs   map[string]any
		outputs  []string
		wantCats []string
		noCats   []string
	}{
		{"in-memory inputs", lmLoopScript,
			map[string]any{"X": lowCardFeatures(2000, 200, 21), "y": matrix.RandUniform(2000, 1, -1, 1, 1.0, 22)},
			[]string{"w", "s"}, []string{obs.CatBlock, obs.CatCompress}, []string{obs.CatDist}},
		{"lm_trace.dml", string(traceScript), nil, []string{"s"}, []string{obs.CatBlock, obs.CatDist}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := tracedEngine(64 * 1024)
			_, stats, err := eng.Execute(tc.script, tc.inputs, tc.outputs)
			if err != nil {
				t.Fatalf("traced run failed: %v", err)
			}
			checkTracedRun(t, eng, stats, tc.wantCats, tc.noCats)
			// annotated EXPLAIN joins the measured metrics onto the plan
			annotated, err := eng.ExplainPlanAnnotated(tc.script, tc.inputs)
			if err != nil {
				t.Fatalf("ExplainPlanAnnotated: %v", err)
			}
			if !strings.Contains(annotated, " measured: n=") {
				t.Errorf("annotated EXPLAIN carries no measured annotations:\n%s", annotated)
			}
		})
	}
}

// checkTracedRun checks the spans, op metrics and Chrome export of the
// engine's last traced run; wantCats are the kernel span categories the run
// must leave, noCats those it must not.
func checkTracedRun(t *testing.T, eng *Engine, stats *Stats, wantCats, noCats []string) {
	t.Helper()
	recs := eng.TraceRecords()
	var run *obs.Record
	var instrNs int64
	instrOps := map[string]bool{}
	cats := map[string]bool{}
	for i, r := range recs {
		cats[r.Cat] = true
		switch r.Cat {
		case obs.CatRun:
			if run != nil {
				t.Fatalf("multiple run spans in one traced run")
			}
			run = &recs[i]
		case obs.CatInstr:
			instrNs += r.Dur
			instrOps[r.Name] = true
		}
	}
	if run == nil {
		t.Fatal("no run span recorded")
	}
	if run.Dur <= 0 {
		t.Fatalf("run span has non-positive duration %d", run.Dur)
	}
	// instruction spans cover >= 90% of the run wall time, and sum to no
	// more than 120% of it (the -stats footer's reconciliation)
	if coverage := float64(instrNs) / float64(run.Dur); coverage < 0.9 || coverage > 1.2 {
		t.Errorf("instruction spans cover %.1f%% of the run, want 90%% to 120%%", coverage*100)
	}
	for _, want := range wantCats {
		if !cats[want] {
			t.Errorf("no %q spans in the traced run", want)
		}
	}
	for _, not := range noCats {
		if cats[not] {
			t.Errorf("%q spans in the traced run", not)
		}
	}

	// the heavy-hitter table and the plan records describe the same run: the
	// run row is the run span, every recorded plan opcode executed as an
	// instruction span, and every instruction opcode has a row
	metricOps := map[string]bool{}
	runRows := 0
	for _, m := range stats.OpMetrics {
		switch m.Cat {
		case obs.CatRun:
			runRows++
			if m.Count != 1 || m.WallNs != run.Dur {
				t.Errorf("OpMetrics run row = %+v, want one span of %d ns", m, run.Dur)
			}
		case obs.CatInstr:
			metricOps[m.Name] = true
		}
	}
	if runRows != 1 {
		t.Errorf("OpMetrics has %d run rows, want 1", runRows)
	}
	for _, pr := range stats.PlanStats {
		if !instrOps[pr.Op] {
			t.Errorf("plan record op %q has no instruction span", pr.Op)
		}
	}
	for op := range instrOps {
		if !metricOps[op] {
			t.Errorf("instruction opcode %q missing from OpMetrics", op)
		}
	}

	var buf bytes.Buffer
	if err := eng.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	checkChromeTrace(t, buf.Bytes(), len(recs))
}

// chromeSpan is one complete ("X") event of a Chrome trace export.
type chromeSpan struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	Tid  int     `json:"tid"`
	Args struct {
		ID     uint64 `json:"id"`
		Parent uint64 `json:"parent"`
	} `json:"args"`
}

// checkChromeTrace checks a Chrome trace export as Perfetto reads it: valid
// JSON with one complete event per record, every parent id resolving to a
// span of the trace (0 marks a root), and the events of each tid lane nesting
// strictly.
func checkChromeTrace(t *testing.T, raw []byte, records int) {
	t.Helper()
	var doc struct {
		TraceEvents []chromeSpan `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	var spans []chromeSpan
	ids := map[uint64]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			spans = append(spans, e)
			ids[e.Args.ID] = true
		}
	}
	if len(spans) != records {
		t.Errorf("trace export has %d complete events for %d records", len(spans), records)
	}
	byLane := map[int][]chromeSpan{}
	for _, e := range spans {
		if e.Args.Parent != 0 && !ids[e.Args.Parent] {
			t.Errorf("span %q (id %d) references missing parent %d", e.Name, e.Args.ID, e.Args.Parent)
		}
		byLane[e.Tid] = append(byLane[e.Tid], e)
	}
	// eps absorbs the microsecond rounding of the export
	const eps = 1e-3
	for lane, evs := range byLane {
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].Ts != evs[j].Ts {
				return evs[i].Ts < evs[j].Ts
			}
			return evs[i].Dur > evs[j].Dur
		})
		var open []chromeSpan
		for _, e := range evs {
			for len(open) > 0 && open[len(open)-1].Ts+open[len(open)-1].Dur <= e.Ts+eps {
				open = open[:len(open)-1]
			}
			if n := len(open); n > 0 && e.Ts+e.Dur > open[n-1].Ts+open[n-1].Dur+eps {
				t.Errorf("lane %d: span %q [%f, %f] overlaps %q [%f, %f] without nesting", lane,
					e.Name, e.Ts, e.Ts+e.Dur, open[n-1].Name, open[n-1].Ts, open[n-1].Ts+open[n-1].Dur)
			}
			open = append(open, e)
		}
	}
}

// TestTracedSchedulerConcurrent runs a traced parfor whose body uses the
// distributed backend, so spans are emitted concurrently from the parfor
// workers and the dist task pool (the -race build of this test is the
// tracer's concurrency gate).
func TestTracedSchedulerConcurrent(t *testing.T) {
	cfg := runtime.DefaultConfig()
	cfg.Parallelism = 4
	cfg.TraceEnabled = true
	cfg.DistEnabled = true
	cfg.OperatorMemBudget = 8 * 1024
	eng := NewEngine(cfg)

	x := matrix.RandUniform(400, 60, 0, 1, 1.0, 11)
	script := `R = matrix(0, 1, 4)
parfor (j in 1:4) {
  A = X %*% t(X)
  B = t(X) %*% X
  R[1, j] = sum(A) + j * sum(B)
}
s = sum(R)`
	_, stats, err := eng.Execute(script, map[string]any{"X": x}, []string{"s"})
	if err != nil {
		t.Fatalf("traced parfor run failed: %v", err)
	}
	if len(stats.OpMetrics) == 0 {
		t.Fatal("no op metrics from the traced parfor run")
	}
	recs := eng.TraceRecords()
	var distSpans int
	for _, r := range recs {
		if r.Cat == obs.CatDist {
			distSpans++
		}
	}
	if distSpans == 0 {
		t.Error("no dist task spans despite the forced distributed backend")
	}
}

// TestTracingOffRecordsNothing pins the default: without TraceEnabled a run
// must leave the tracer empty and the stats without op metrics.
func TestTracingOffRecordsNothing(t *testing.T) {
	obs.Reset()
	cfg := runtime.DefaultConfig()
	eng := NewEngine(cfg)
	_, stats, err := eng.Execute(`s = sum(X)`, map[string]any{"X": matrix.RandUniform(50, 5, 0, 1, 1.0, 3)}, []string{"s"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.OpMetrics != nil {
		t.Errorf("untraced run produced op metrics: %v", stats.OpMetrics)
	}
	if recs := obs.Snapshot(); len(recs) != 0 {
		t.Errorf("untraced run recorded %d spans", len(recs))
	}
}
