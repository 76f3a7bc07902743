package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	systemds "github.com/systemds/systemds-go"
)

// manifest is the part of BENCHMARK.json the tests read.
type manifest struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []manifestMetric `json:"end_to_end"`
	PerLayer  []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesRegistry keeps BENCHMARK.json and the metric registry in
// step: same workloads with the same reasons, same names, units, directions
// and bounds.
func TestManifestMatchesRegistry(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark %q (or their reasons differ)", i, m.Workloads[i].Name, w.Name)
		}
	}
	check := func(mm manifestMetric, kind metricKind) {
		d, ok := metricByName(mm.Name)
		if !ok || d.Kind != kind || d.Unit != mm.Unit || d.Better != mm.Better || d.Bound != mm.Bound {
			t.Errorf("BENCHMARK.json metric %+v does not match the registry entry %+v", mm, d)
		}
	}
	for _, mm := range m.EndToEnd {
		check(mm, endToEnd)
	}
	for _, mm := range m.PerLayer {
		check(mm, perLayer)
	}
	// fail_ratio is gated by -compare but reads 0 on every healthy run, so
	// the manifest carries it as the failed/attempted counts of a result
	n := map[metricKind]int{}
	for _, d := range metricDefs {
		n[d.Kind]++
	}
	if len(m.EndToEnd) != n[endToEnd]-1 || len(m.PerLayer) != n[perLayer] {
		t.Errorf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the registry %d (less fail_ratio) and %d",
			len(m.EndToEnd), len(m.PerLayer), n[endToEnd]-1, n[perLayer])
	}
}

// layerUsers names, per layer-metric prefix, the workloads that exercise the
// layer; every other workload bypasses it and must measure no activity at all.
var layerUsers = map[string][]string{
	"compress.":  {"loop.gd.compressed"},
	"lineage.":   {"grid.persist.cold", "grid.persist.warm", "lifecycle.csv"},
	"dist.":      {"dist.loop.spill"},
	"bufferpool": {"grid.persist.cold", "grid.persist.warm", "dist.loop.spill"},
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs the whole benchmark at smoke scale: every metric named in
// BENCHMARK.json is emitted for every workload, nothing fails, the opcode
// table leaves under 5% of instruction time unclassified, bypassed layers
// measure zero, and one trace file per workload covers its ops.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	outDir := t.TempDir()
	rep, err := runAll(scales["smoke"], 1, outDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("report has %d workloads, want %d", len(rep.Workloads), len(workloads))
	}
	for _, w := range rep.Workloads {
		for name, v := range w.Metrics {
			if !nameRE.MatchString(name) {
				t.Errorf("%s: metric name %q is not made of letters, digits, _ . -", w.Name, name)
			}
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				t.Errorf("%s: %s = %v", w.Name, name, v.Value)
			}
		}
		for _, mm := range append(append([]manifestMetric{{Name: "fail_ratio"}}, m.EndToEnd...), m.PerLayer...) {
			if _, ok := w.Metrics[mm.Name]; !ok {
				t.Errorf("%s: metric %s is not emitted", w.Name, mm.Name)
			}
		}
		if f := w.Metrics["fail_ratio"].Value; f != 0 {
			t.Errorf("%s: fail_ratio %g: %v", w.Name, f, w.Errors)
		}
		if s := w.Metrics["instructions.other_share"].Value; s >= 0.05 {
			t.Errorf("%s: %.1f%% of instruction time is in opcodes the class table does not know", w.Name, 100*s)
		}
		if w.FPDistinct != 1 {
			t.Errorf("%s: ops produced %d distinct output fingerprints", w.Name, w.FPDistinct)
		}
		for _, e := range []string{"run_s", "alloc_mb", "setup_s"} {
			if w.Metrics[e].Value <= 0 {
				t.Errorf("%s: %s = %g, want > 0", w.Name, e, w.Metrics[e].Value)
			}
		}
		if _, err := os.Stat(filepath.Join(outDir, "trace."+w.Name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}
		for prefix, users := range layerUsers {
			if strings.Contains(strings.Join(users, " "), w.Name) {
				continue
			}
			for name, v := range w.Metrics {
				if d, _ := metricByName(name); strings.HasPrefix(name, prefix) && !d.Probe && v.Value != 0 {
					t.Errorf("%s bypasses %s but measured %s = %g", w.Name, prefix, name, v.Value)
				}
			}
		}
	}
	if left, _ := os.ReadDir(filepath.Join(outDir, "work")); len(left) != 0 {
		t.Errorf("%d working directories left behind", len(left))
	}
}

// TestRunOneEmitsManifestMetrics checks the time-boxed single-workload form
// on a script workload and on the prepared one: untraced it prints exactly
// the end-to-end metrics of BENCHMARK.json, traced exactly the per-layer ones.
func TestRunOneEmitsManifestMetrics(t *testing.T) {
	m := readManifest(t)
	for _, traced := range []bool{false, true} {
		want := m.EndToEnd
		if traced {
			want = m.PerLayer
		}
		for _, name := range []string{"lm.ds.dense", "score.prepared"} {
			w, _ := findWorkload(name)
			res, err := runOne(w, scales["smoke"], 3, 0.05, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: %+v", w.Name, traced, res)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, mm := range want {
				if got, ok := res.Metrics[mm.Name]; !ok || got.Unit != mm.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in unit %q, want %q", w.Name, traced, mm.Name, got.Unit, mm.Unit)
				}
			}
		}
	}
}

// perturb returns a copy of res with its first output nudged: one cell of a
// matrix by a thousandth of its magnitude, a number by one.
func perturb(t *testing.T, res systemds.Results, outputs []string) systemds.Results {
	t.Helper()
	out := systemds.Results{}
	for k, v := range res {
		out[k] = v
	}
	switch v := res[outputs[0]].(type) {
	case *systemds.Matrix:
		vals := append([]float64(nil), v.DenseValues()...)
		vals[len(vals)/2] += 1e-3 * (1 + math.Abs(vals[len(vals)/2]))
		out[outputs[0]] = systemds.NewMatrix(v.Rows(), v.Cols(), vals)
	case float64:
		out[outputs[0]] = v + 1
	default:
		t.Fatalf("output %s is %T", outputs[0], v)
	}
	return out
}

// TestReferenceRejectsPerturbedOutput runs each workload once, checks that
// the reference accepts the engine's output and rejects the same output with
// one value nudged — the checkers are not rubber stamps.
func TestReferenceRejectsPerturbedOutput(t *testing.T) {
	sc := scales["smoke"]
	for _, w := range workloads {
		in, err := w.build(sc, rand.New(rand.NewSource(workloadSeed(5, w.Name))), t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := in.beginOp(); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		var res systemds.Results
		if in.calls > 0 {
			res, err = in.prepared.Execute(in.batches[0])
		} else {
			res, err = in.ctx.Execute(in.script, in.inputs, in.outputs...)
		}
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := in.check(res, 0); err != nil {
			t.Errorf("%s: reference rejects the engine's output: %v", w.Name, err)
		}
		if err := in.check(perturb(t, res, in.outputs), 0); err == nil {
			t.Errorf("%s: reference accepts a perturbed output", w.Name)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, med, q3 = quartiles([]float64{4, 1, 2}); q1 != 1 || med != 2 || q3 != 4 {
		t.Errorf("quartiles = %g %g %g, want 1 2 4", q1, med, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	set := func(run, q1, q3 float64) metricSet {
		ms := metricSet{}
		for name, v := range map[string]float64{"run_s": run, "run_q1_s": q1, "run_q3_s": q3, "alloc_mb": 10,
			"alloc_q1_mb": 10, "alloc_q3_mb": 10, "fail_ratio": 0, "setup_s": 1, "setup_min_s": 1, "setup_max_s": 1.1} {
			ms.set(name, v)
		}
		return ms
	}
	runS, _ := metricByName("run_s")
	failR, _ := metricByName("fail_ratio")
	base := set(1, 0.99, 1.01)
	for _, c := range []struct {
		cur  metricSet
		d    metricDef
		want string
	}{
		{set(1.02, 1.01, 1.03), runS, "unchanged"},
		{set(1+runS.Bound+0.01, 1, 2), runS, "REGRESSION"},
		{set(1.02, 0.8, 1.3), runS, "unresolved"},
		{set(0.5, 0.49, 0.51), runS, "improved"},
		{set(1, 1, 1), failR, "unchanged"},
	} {
		if got := verdict(c.d, base, c.cur); got != c.want {
			t.Errorf("verdict(%s, run_s %g) = %s, want %s", c.d.Name, c.cur["run_s"].Value, got, c.want)
		}
	}
	failing := set(1, 1, 1)
	failing.set("fail_ratio", 0.1)
	if got := verdict(failR, base, failing); got != "REGRESSION" {
		t.Errorf("any increase of fail_ratio must be a regression, got %s", got)
	}

	// end to end through files: equal reports pass, a slower one exits non-zero
	dir := t.TempDir()
	write := func(name string, ms metricSet) string {
		rep := report{Workloads: []*workloadReport{{Name: "w", Metrics: ms, OutputFP: "00"}}}
		data, _ := json.Marshal(rep)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, b, slow := write("a.json", base), write("b.json", set(1.01, 1, 1.02)), write("slow.json", set(2, 1.9, 2.1))
	var sb strings.Builder
	if err := compareFiles(&sb, a, b); err != nil {
		t.Errorf("equal runs: %v\n%s", err, sb.String())
	}
	if err := compareFiles(&sb, a, slow); err == nil {
		t.Errorf("a run twice as slow passed the gate\n%s", sb.String())
	}
	if !strings.Contains(sb.String(), "REGRESSION") || !strings.Contains(sb.String(), "of 1 |") {
		t.Errorf("table lacks the verdict or the base of the ratio:\n%s", sb.String())
	}
}
