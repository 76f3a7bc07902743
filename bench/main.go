// Command bench is the repository's benchmark: eight script-level workloads
// run closed-loop by a single client through the public API, four end-to-end
// metrics measured with tracing off, a per-layer vector from a traced set, and
// a reference check on every output. See README.md.
//
//	bash bench/run.sh -seed 1 -out bench.json          # every workload, every metric
//	bash bench/run.sh -compare base.json new.json      # delta table, exit 1 on regression
//	bash bench/run.sh --workload lm.ds.dense --seed 1 --seconds 10 --trace 0
//
// The last form is one time-boxed run of one workload; it prints a single
// JSON result as the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"github.com/systemds/systemds-go/internal/hops"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		workloadName = flag.String("workload", "", "run one workload time-boxed and print one JSON result line")
		seed         = flag.Int64("seed", 1, "seed of every input generator")
		seconds      = flag.Float64("seconds", 10, "measuring time of a -workload run")
		trace        = flag.Int("trace", 0, "with -workload: 0 prints the end-to-end metrics, 1 the per-layer metrics of a traced set")
		scaleName    = flag.String("scale", "full", "full or smoke")
		out          = flag.String("out", "", "write the full result as JSON to this file")
		outDir       = flag.String("outdir", filepath.Join("bench", "out"), "directory for trace files and working data")
		compare      = flag.Bool("compare", false, "compare two result files: -compare base.json new.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	sc, ok := scales[*scaleName]
	if !ok {
		return fmt.Errorf("unknown -scale %q", *scaleName)
	}
	if n := runtime.NumCPU(); n < threads {
		return fmt.Errorf("the workloads run %d threads; this machine has %d CPUs, which would measure the scheduler", threads, n)
	}
	dir, err := filepath.Abs(*outDir)
	if err != nil {
		return err
	}
	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			return fmt.Errorf("unknown -workload %q", *workloadName)
		}
		res, err := runOne(w, sc, *seed, *seconds, *trace == 1, dir)
		if err != nil {
			return err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		return nil
	}
	rep, err := runAll(sc, *seed, dir)
	if err != nil {
		return err
	}
	rep.print(os.Stdout)
	if *out != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// driverResult is the one-line result of a -workload run.
type driverResult struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// runOne is one time-boxed run of one workload. Untraced, it repeats set-up
// for a steady setup_s and then issues ops until the time is up; traced, it
// runs the traced set and the kernel probes.
func runOne(w workload, sc scale, seed int64, seconds float64, traced bool, outDir string) (*driverResult, error) {
	dir := workDir(outDir, w.Name)
	defer os.RemoveAll(dir)
	if traced {
		in, _, err := timedSetUp(w, sc, seed, dir, 1)
		if err != nil {
			return nil, err
		}
		set := runTracedSet(w, in, sc, seed, outDir, time.Duration(seconds/2*float64(time.Second)))
		probes, err := runProbes(sc, seed, seconds/40, hops.MeasureMachineProfile())
		if err != nil {
			return nil, err
		}
		set.metrics.merge(probes)
		logErrors(w.Name, set.errs)
		return &driverResult{set.failed == 0, set.attempted, set.failed, set.metrics.only(perLayer)}, nil
	}
	in, setupTimes, err := timedSetUp(w, sc, seed, dir, sc.SetupReps)
	if err != nil {
		return nil, err
	}
	var set opSet
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for set.attempted() < 3 || time.Now().Before(deadline) {
		set.add(in.runOp())
	}
	logErrors(w.Name, set.errs)
	all := set.metrics(setupTimes)
	fmt.Fprintf(os.Stderr, "bench: %s: %d ops, run_s min %.4f q1 %.4f median %.4f q3 %.4f, set-ups %.3f\n", w.Name, len(set.walls),
		all["run_min_s"].Value, all["run_q1_s"].Value, all["run_s"].Value, all["run_q3_s"].Value, setupTimes)
	ms := all.only(endToEnd)
	// a run's failures travel in "failed"; the ratio would read 0 on every
	// healthy run, which no bound can be taken of
	delete(ms, "fail_ratio")
	return &driverResult{set.failed == 0, set.attempted(), set.failed, ms}, nil
}

func logErrors(name string, errs []string) {
	for _, e := range errs {
		fmt.Fprintf(os.Stderr, "bench: %s: op failed: %s\n", name, e)
	}
}

// tracedSet is the outcome of a workload's traced set.
type tracedSet struct {
	metrics   metricSet
	attempted int
	failed    int
	errs      []string
}

// runTracedSet runs untraced and traced ops in pairs — TracedOps pairs, more
// while atLeast has not passed — reduces the traced ops to the per-layer
// vector, and writes the trace file. The untraced partner of each pair is
// what obs.trace_overhead compares against: same process, same minute, and
// which side goes first alternates so that order cancels.
func runTracedSet(w workload, in *instance, sc scale, seed int64, outDir string, atLeast time.Duration) tracedSet {
	t := newTracer()
	var plain, traced opSet
	var samples []layerSample
	begin := time.Now()
	for op := 1; op <= sc.TracedOps || time.Since(begin) < atLeast; op++ {
		if op%2 == 1 {
			plain.add(in.runOp())
		}
		res, ls := in.runTracedOp(t, op, sc)
		traced.add(res)
		if res.err == nil {
			samples = append(samples, ls)
		}
		if op%2 == 0 {
			plain.add(in.runOp())
		}
	}
	set := tracedSet{attempted: plain.attempted() + traced.attempted(), failed: plain.failed + traced.failed,
		errs: append(plain.errs, traced.errs...)}
	if len(samples) == 0 || len(plain.walls) == 0 {
		set.metrics = metricSet{}
		return set
	}
	set.metrics = layerMetrics(samples)
	set.metrics.set("obs.trace_overhead", median(traced.walls)/median(plain.walls)-1)
	if err := t.write(filepath.Join(outDir, "trace."+w.Name+".json"), w.Name, seed); err != nil {
		set.failed++
		set.errs = append(set.errs, err.Error())
	}
	return set
}

// report is the full result of one benchmark run.
type report struct {
	Env       envStamp          `json:"env"`
	Workloads []*workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name    string         `json:"name"`
	Why     string         `json:"why"`
	Params  map[string]any `json:"params"`
	Metrics metricSet      `json:"metrics"`
	// OutputFP is the FNV-64 of the first op's output bits; FPDistinct counts
	// the distinct fingerprints over all ops (1 = every op bitwise equal).
	OutputFP   string `json:"output_fp"`
	FPDistinct int    `json:"output_fp_distinct"`
	// Dominant is the layer metric with the largest time in the traced set
	// and its share of the traced op.
	Dominant      string  `json:"dominant_layer"`
	DominantShare float64 `json:"dominant_share"`
	// Predicted is the layers the workload was chosen to stress and their
	// measured share of the traced op.
	Predicted      []string `json:"predicted_layers"`
	PredictedShare float64  `json:"predicted_share"`
	Errors         []string `json:"errors,omitempty"`
}

// runAll runs every workload: set-up, the untraced sets in rounds issued
// round-robin across workloads — so a slow minute on a shared host spreads
// over all rows instead of landing on one — then the traced sets, then the
// kernel probes.
func runAll(sc scale, seed int64, outDir string) (*report, error) {
	profile := hops.MeasureMachineProfile()
	rep := &report{Env: stampEnv(sc, seed, profile)}
	instances := make([]*instance, len(workloads))
	setups := make([][]float64, len(workloads))
	for i, w := range workloads {
		dir := workDir(outDir, w.Name)
		defer os.RemoveAll(dir)
		var err error
		if instances[i], setups[i], err = timedSetUp(w, sc, seed, dir, sc.SetupReps); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "bench: %s set up in %.2fs\n", w.Name, median(setups[i]))
	}
	sets := make([]opSet, len(workloads))
	for round := 0; round < sc.Rounds; round++ {
		for i := range workloads {
			for k := 0; k < sc.OpsPerRound; k++ {
				sets[i].add(instances[i].runOp())
			}
		}
		fmt.Fprintf(os.Stderr, "bench: round %d of %d done\n", round+1, sc.Rounds)
	}
	probes, err := runProbes(sc, seed, sc.ProbeSeconds, profile)
	if err != nil {
		return nil, err
	}
	for i, w := range workloads {
		ts := runTracedSet(w, instances[i], sc, seed, outDir, 0)
		ms := sets[i].metrics(setups[i])
		// a failed traced op counts like any other
		ms.set("fail_ratio", float64(sets[i].failed+ts.failed)/float64(sets[i].attempted()+ts.attempted))
		ms.merge(ts.metrics)
		ms.merge(probes)
		wr := &workloadReport{Name: w.Name, Why: w.Why, Params: instances[i].params, Metrics: ms,
			OutputFP: fmt.Sprintf("%016x", sets[i].first), FPDistinct: len(sets[i].fps),
			Errors: append(sets[i].errs, ts.errs...)}
		tracedWall := ms["run_s"].Value * (1 + ms["obs.trace_overhead"].Value)
		wr.Dominant, wr.DominantShare = dominantLayer(ms, tracedWall)
		wr.Predicted = w.Predicted
		for _, name := range w.Predicted {
			wr.PredictedShare += ratio(ms[name].Value, tracedWall)
		}
		rep.Workloads = append(rep.Workloads, wr)
		logErrors(w.Name, wr.Errors)
	}
	return rep, nil
}

// print writes every metric of every workload by name, with its unit.
func (r *report) print(out io.Writer) {
	e := r.Env
	fmt.Fprintf(out, "commit %s  %s  GOMAXPROCS=%d nproc=%d  %s  LLC %s\n", e.Commit, e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.CPUModel, e.LLC)
	fmt.Fprintf(out, "machine profile: %.2f GFLOP/s (1 thread), %.2f GB/s copy  seed=%d T=%d scale=%s\n", e.PeakGFLOPS, e.CopyGBs, e.Seed, e.Threads, e.Scale.Name)
	for _, w := range r.Workloads {
		fmt.Fprintf(out, "\n== %s  output_fp=%s distinct=%d  dominant=%s (%.0f%% of the traced op)  predicted=%s (%.0f%%)\n",
			w.Name, w.OutputFP, w.FPDistinct, w.Dominant, 100*w.DominantShare, strings.Join(w.Predicted, "+"), 100*w.PredictedShare)
		for _, d := range metricDefs {
			if m, ok := w.Metrics[d.Name]; ok {
				fmt.Fprintf(out, "%-20s %-28s %14.6g %s\n", w.Name, d.Name, m.Value, m.Unit)
			}
		}
	}
}
