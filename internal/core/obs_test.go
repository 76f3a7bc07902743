package core

import (
	"bytes"
	"encoding/json"
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
// a compressed gradient-descent lm loop with the distributed backend enabled,
// traced end to end. The run span must exist, instruction spans must cover
// the bulk of it, the per-opcode table must agree with the plan records, and
// the Chrome trace export must be well-formed JSON.
func TestTracedCompressedLmRun(t *testing.T) {
	x := lowCardFeatures(2000, 200, 21)
	y := matrix.RandUniform(2000, 1, -1, 1, 1.0, 22)
	eng := tracedEngine(64 * 1024)

	_, stats, err := eng.Execute(lmLoopScript, map[string]any{"X": x, "y": y}, []string{"w", "s"})
	if err != nil {
		t.Fatalf("traced run failed: %v", err)
	}
	if len(stats.OpMetrics) == 0 {
		t.Fatal("traced run produced no op metrics")
	}

	recs := eng.TraceRecords()
	var run *obs.Record
	var instrNs int64
	instrOps := map[string]bool{}
	for i := range recs {
		r := recs[i]
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
	// instruction spans must cover >= 90% of the run wall time
	if coverage := float64(instrNs) / float64(run.Dur); coverage < 0.9 {
		t.Errorf("instruction spans cover %.1f%% of the run, want >= 90%%", coverage*100)
	}

	// the heavy-hitter table and the plan records describe the same run:
	// every recorded plan opcode executed as an instruction span
	for _, pr := range stats.PlanStats {
		if !instrOps[pr.Op] {
			t.Errorf("plan record op %q has no instruction span", pr.Op)
		}
	}
	// and the aggregated metrics carry the instruction opcodes
	metricOps := map[string]bool{}
	for _, m := range stats.OpMetrics {
		if m.Cat == obs.CatInstr {
			metricOps[m.Name] = true
		}
	}
	for op := range instrOps {
		if !metricOps[op] {
			t.Errorf("instruction opcode %q missing from OpMetrics", op)
		}
	}

	// the compressed loop leaves its kernel sub-phase fingerprints
	cats := map[string]bool{}
	for _, r := range recs {
		cats[r.Cat] = true
	}
	for _, want := range []string{obs.CatBlock, obs.CatCompress, obs.CatDist} {
		if !cats[want] {
			t.Errorf("no %q spans in the traced compressed+dist run", want)
		}
	}

	// the Chrome export is valid JSON with the expected envelope
	var buf bytes.Buffer
	if err := eng.WriteTrace(&buf); err != nil {
		t.Fatalf("WriteTrace: %v", err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("trace export is not valid JSON: %v", err)
	}
	if len(parsed.TraceEvents) < len(recs) {
		t.Errorf("trace export has %d events for %d records", len(parsed.TraceEvents), len(recs))
	}

	// annotated EXPLAIN joins the measured metrics onto the plan
	annotated, err := eng.ExplainPlanAnnotated(lmLoopScript, map[string]any{"X": x, "y": y})
	if err != nil {
		t.Fatalf("ExplainPlanAnnotated: %v", err)
	}
	if !bytes.Contains([]byte(annotated), []byte(" measured: n=")) {
		t.Errorf("annotated EXPLAIN carries no measured annotations:\n%s", annotated)
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
