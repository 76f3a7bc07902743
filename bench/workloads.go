package main

// The eight workloads. Each build function generates its inputs from the
// seeded generator it is handed, computes its reference in plain Go
// (reference.go) and returns an instance the harness can run repeatedly. The
// program under test only ever sees the generated inputs.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	systemds "github.com/systemds/systemds-go"
)

// threads is T: the kernel/parfor thread count of every workload except
// score.prepared. The benchmark refuses to run on fewer CPUs.
const threads = 2

// scale holds every size knob. Ops must stay short enough that the 21 samples
// of a set fit the run cap; shrink iteration counts here, never the samples.
type scale struct {
	Name                                string
	LmRows, LmCols                      int
	GdRows, GdCols, GdEpochs            int
	SvmRows, SvmCols, SvmIters          int
	GridRows, GridCols, GridLambdas     int
	DistRows, DistCols, DistEpochs      int
	LifeRows                            int
	ScoreRows, ScoreCols, ScoreCalls    int
	ProbeTsmmRows, ProbeTsmmCols        int
	ProbeMvRows, ProbeMvCols            int
	ProbeCsvRows, ProbeCompressRows     int
	ProbeSeconds                        float64
	Rounds, OpsPerRound, WarmUps        int
	TracedOps, SetupReps, PreparedTrace int
}

var scales = map[string]scale{
	"full": {
		Name:   "full",
		LmRows: 8000, LmCols: 512,
		GdRows: 60000, GdCols: 100, GdEpochs: 20,
		SvmRows: 20000, SvmCols: 100, SvmIters: 20,
		GridRows: 8000, GridCols: 256, GridLambdas: 8,
		DistRows: 4000, DistCols: 200, DistEpochs: 2,
		LifeRows:  6000,
		ScoreRows: 64, ScoreCols: 100, ScoreCalls: 1000,
		// kernel probes keep the issue's shapes: 50 000×100 doubles are
		// 40 MB, at least four times any LLC this runs on
		ProbeTsmmRows: 20000, ProbeTsmmCols: 512,
		ProbeMvRows: 50000, ProbeMvCols: 100,
		ProbeCsvRows: 30000, ProbeCompressRows: 100000,
		ProbeSeconds: 1,
		Rounds:       3, OpsPerRound: 7, WarmUps: 2,
		TracedOps: 5, SetupReps: 5, PreparedTrace: 20,
	},
	"smoke": {
		Name:   "smoke",
		LmRows: 400, LmCols: 24,
		GdRows: 6000, GdCols: 20, GdEpochs: 4,
		SvmRows: 600, SvmCols: 12, SvmIters: 5,
		GridRows: 400, GridCols: 16, GridLambdas: 3,
		DistRows: 4000, DistCols: 200, DistEpochs: 2,
		LifeRows:  6000,
		ScoreRows: 8, ScoreCols: 10, ScoreCalls: 20,
		ProbeTsmmRows: 400, ProbeTsmmCols: 32,
		ProbeMvRows: 2000, ProbeMvCols: 20,
		ProbeCsvRows: 400, ProbeCompressRows: 4000,
		ProbeSeconds: 0.01,
		Rounds:       1, OpsPerRound: 2, WarmUps: 1,
		TracedOps: 1, SetupReps: 1, PreparedTrace: 5,
	},
}

// workload is the static description of one benchmark row.
type workload struct {
	Name string
	Why  string
	// Predicted names the layer metrics the issue that defined the benchmark
	// expected to carry the workload; the report prints their measured share
	// next to the measured dominant layer, so a wrong prediction shows.
	Predicted []string
	// build generates inputs and the reference under dir (already created,
	// private to this workload).
	build func(sc scale, rng *rand.Rand, dir string) (*instance, error)
}

// instance is one set-up of a workload: inputs, options, the reference check.
type instance struct {
	params  map[string]any
	script  string
	inputs  map[string]any
	outputs []string
	opts    []systemds.Option
	// freshCtx workloads create a new context per op (untimed): their subject
	// is session-level state — the persistent store or the reuse cache.
	freshCtx bool
	// beforeOp runs untimed before the context is created (cold store wipe).
	beforeOp func() error
	// calls > 0 marks the prepared workload: one op is calls Execute calls
	// rotating over batches.
	calls   int
	batches []map[string]any
	// check verifies one result against the reference; batch is the input
	// batch index for prepared calls and 0 otherwise.
	check func(res systemds.Results, batch int) error
	// tmpDir is the buffer-pool spill directory, swept after every op.
	tmpDir string
	// primeStore adds one untimed op to set-up before the warm-ups, filling
	// the persistent store the timed ops then read.
	primeStore bool

	ctx      *systemds.Context
	prepared *systemds.PreparedScript
	verified map[uint64]bool
	// traced is the prepared workload's engine for the traced set, compiled
	// once; tracedCompile holds that compilation's layer values.
	traced        *tracedEngine
	tracedCompile layerSample
}

var workloads = []workload{
	{"lm.ds.dense", "TSMM/GEMM kernel does nearly all the work: guards dense-kernel changes and is the bypass row for lineage, compression and dist changes.", []string{"instructions.matmult_s"}, buildLmDS},
	{"loop.gd.compressed", "One encode plus compressed MV/vM per epoch: compress dominates and dense kernels are bypassed.", []string{"compress.encode_s"}, buildGDCompressed},
	{"l2svm.dense", "Memory-bound MV, t(X) reorg and cellwise/aggregate chains on the iterative shape of the compressed loop, but through dense kernels.", []string{"instructions.reorg_s", "instructions.cellwise_s", "instructions.agg_s"}, buildL2SVM},
	{"grid.persist.cold", "Grid search into an empty persistent store: the write use of lineage and the file store (fingerprint, put, spill).", []string{"lineage.put_s"}, buildGridCold},
	{"grid.persist.warm", "Same grid search over a primed store: the read use of lineage and the file store, kernels bypassed.", []string{"lineage.get_s"}, buildGridWarm},
	{"dist.loop.spill", "Blocked backend under a buffer-pool budget below the working set: dist partition/collect, planner choice and pool spill/restore.", []string{"dist.task_s", "bufferpool.spill_s", "bufferpool.restore_s"}, buildDistSpill},
	{"lifecycle.csv", "The paper's headline pipeline from a CSV frame to a scored model: io, frame, parfor, function calls and the in-memory lineage cache.", []string{"instructions.io_transform_s", "instructions.fcall_ctrl_s"}, buildLifecycle},
	{"score.prepared", "Prepared scoring on tiny batches: compile is bypassed and kernels are trivial, so interpreter, binding and allocation overhead is everything.", []string{"runtime.interp_s", "core.bind_collect_s"}, buildScorePrepared},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// --- generators ---

func uniform(rng *rand.Rand, n int, lo, hi float64) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = lo + (hi-lo)*rng.Float64()
	}
	return v
}

// regressionData returns X uniform in [-1, 1) and y = X·w* + 0.1·noise.
func regressionData(rng *rand.Rand, rows, cols int) (dense, []float64) {
	x := dense{rows, cols, uniform(rng, rows*cols, -1, 1)}
	y := matVec(x, uniform(rng, cols, -1, 1))
	for i := range y {
		y[i] += 0.1 * rng.NormFloat64()
	}
	return x, y
}

func asMatrix(m dense) *systemds.Matrix { return systemds.NewMatrix(m.rows, m.cols, m.v) }

func colVector(v []float64) *systemds.Matrix { return systemds.NewMatrix(len(v), 1, v) }

func rowVector(v []float64) *systemds.Matrix { return systemds.NewMatrix(1, len(v), v) }

func matrixValues(res systemds.Results, name string) ([]float64, error) {
	m, err := res.Matrix(name)
	if err != nil {
		return nil, err
	}
	// DenseValues aliases the block of a dense result; the checks only read it
	return m.DenseValues(), nil
}

func baseOpts(tmpDir string, extra ...systemds.Option) []systemds.Option {
	return append([]systemds.Option{systemds.WithParallelism(threads), systemds.WithTempDir(tmpDir)}, extra...)
}

// --- 1. lm.ds.dense ---

func buildLmDS(sc scale, rng *rand.Rand, dir string) (*instance, error) {
	const lambda = 0.001
	x, y := regressionData(rng, sc.LmRows, sc.LmCols)
	return &instance{
		params:  map[string]any{"rows": sc.LmRows, "cols": sc.LmCols, "lambda": lambda},
		script:  "B = lmDS(X, y, 0.001)",
		inputs:  map[string]any{"X": asMatrix(x), "y": colVector(y)},
		outputs: []string{"B"},
		opts:    baseOpts(dir, systemds.WithLineage(false)),
		tmpDir:  dir,
		check: func(res systemds.Results, _ int) error {
			b, err := matrixValues(res, "B")
			if err != nil {
				return err
			}
			return checkNormalEq(x, y, b, lambda)
		},
	}, nil
}

// --- 2. loop.gd.compressed, 6. dist.loop.spill ---

// gdScript is the scripts/lm_trace.dml loop at top level (compression sites
// do not fire inside function bodies) with X, y, epochs and lr bound.
const gdScript = `
w = matrix(0, rows=ncol(X), cols=1)
for (i in 1:epochs) {
  q = X %*% w
  g = t(X) %*% (q - y)
  w = w - lr * g
}
s = sum(w)
`

// gdInstance builds a GD-loop instance; lr is set from the data's scale so
// the iteration contracts (lr·λmax(XᵀX) ≈ 0.4).
func gdInstance(x dense, y []float64, epochs int, meanSq float64, dir string, opts []systemds.Option) *instance {
	lr := 0.4 / (float64(x.rows) * float64(x.cols) * meanSq)
	want := replayGD(x, y, epochs, lr)
	wantSum := 0.0
	for _, v := range want {
		wantSum += v
	}
	return &instance{
		params:  map[string]any{"rows": x.rows, "cols": x.cols, "epochs": epochs, "lr": lr},
		script:  gdScript,
		inputs:  map[string]any{"X": asMatrix(x), "y": colVector(y), "epochs": epochs, "lr": lr},
		outputs: []string{"w", "s"},
		opts:    opts,
		tmpDir:  dir,
		check: func(res systemds.Results, _ int) error {
			w, err := matrixValues(res, "w")
			if err != nil {
				return err
			}
			if err := checkClose("w", w, want, relTol); err != nil {
				return err
			}
			s, err := res.Float("s")
			if err != nil {
				return err
			}
			return checkClose("s", []float64{s}, []float64{wantSum}, float64(len(want))*relTol)
		},
	}
}

func buildGDCompressed(sc scale, rng *rand.Rand, dir string) (*instance, error) {
	// floor(rand(0..5)): five distinct values per column, the low-cardinality
	// shape dictionary coding is built for
	x := dense{sc.GdRows, sc.GdCols, make([]float64, sc.GdRows*sc.GdCols)}
	for i := range x.v {
		x.v[i] = float64(rng.Intn(5))
	}
	y := uniform(rng, sc.GdRows, -1, 1)
	return gdInstance(x, y, sc.GdEpochs, 4, dir, baseOpts(dir, systemds.WithCompression(true))), nil
}

func buildDistSpill(sc scale, rng *rand.Rand, dir string) (*instance, error) {
	x := dense{sc.DistRows, sc.DistCols, uniform(rng, sc.DistRows*sc.DistCols, 0, 1)}
	y := uniform(rng, sc.DistRows, -1, 1)
	in := gdInstance(x, y, sc.DistEpochs, 0.25, dir, baseOpts(dir,
		systemds.WithDistributedBackend(true),
		systemds.WithOperatorMemBudget(2<<20),
		systemds.WithBufferPool(16<<20)))
	in.params["operator_mem_budget"] = 2 << 20
	in.params["buffer_pool"] = 16 << 20
	return in, nil
}

// --- 3. l2svm.dense ---

func buildL2SVM(sc scale, rng *rand.Rand, dir string) (*instance, error) {
	const reg, step = 0.001, 0.1
	x := dense{sc.SvmRows, sc.SvmCols, uniform(rng, sc.SvmRows*sc.SvmCols, -1, 1)}
	y := matVec(x, uniform(rng, sc.SvmCols, -1, 1))
	for i := range y {
		if y[i]+0.1*rng.NormFloat64() >= 0 {
			y[i] = 1
		} else {
			y[i] = -1
		}
	}
	want := replayL2SVM(x, y, reg, step, sc.SvmIters)
	return &instance{
		params:  map[string]any{"rows": sc.SvmRows, "cols": sc.SvmCols, "iters": sc.SvmIters, "reg": reg, "step": step},
		script:  "w = l2svm(X, y, 0.001, 0.1, iters)",
		inputs:  map[string]any{"X": asMatrix(x), "y": colVector(y), "iters": sc.SvmIters},
		outputs: []string{"w"},
		opts:    baseOpts(dir),
		tmpDir:  dir,
		check: func(res systemds.Results, _ int) error {
			w, err := matrixValues(res, "w")
			if err != nil {
				return err
			}
			return checkClose("w", w, want, relTol)
		},
	}, nil
}

// --- 4. grid.persist.cold, 5. grid.persist.warm ---

func gridInstance(sc scale, rng *rand.Rand, dir string) (*instance, string, error) {
	x, y := regressionData(rng, sc.GridRows, sc.GridCols)
	lambdas := make([]float64, sc.GridLambdas)
	for i := range lambdas {
		lambdas[i] = math.Pow(10, float64(i)-4)
	}
	tmp, store := filepath.Join(dir, "tmp"), filepath.Join(dir, "store")
	for _, d := range []string{tmp, store} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, "", err
		}
	}
	in := &instance{
		params:   map[string]any{"rows": sc.GridRows, "cols": sc.GridCols, "lambdas": lambdas},
		script:   "[B, losses] = gridSearchLM(X, y, lambdas)",
		inputs:   map[string]any{"X": asMatrix(x), "y": colVector(y), "lambdas": colVector(lambdas)},
		outputs:  []string{"B", "losses"},
		opts:     baseOpts(tmp, systemds.WithPersistentLineage(store)),
		freshCtx: true,
		tmpDir:   tmp,
		check: func(res systemds.Results, _ int) error {
			b, err := matrixValues(res, "B")
			if err != nil {
				return err
			}
			losses, err := matrixValues(res, "losses")
			if err != nil {
				return err
			}
			k := len(lambdas)
			if len(b) != x.cols*k || len(losses) != k {
				return fmt.Errorf("B has %d values and losses %d, want %d and %d", len(b), len(losses), x.cols*k, k)
			}
			beta := make([]float64, x.cols)
			for i, lam := range lambdas {
				for j := range beta {
					beta[j] = b[j*k+i]
				}
				if err := checkNormalEq(x, y, beta, lam); err != nil {
					return fmt.Errorf("lambda %g: %w", lam, err)
				}
				if err := checkClose("losses", losses[i:i+1], []float64{squaredLoss(x, y, beta)}, relTol); err != nil {
					return fmt.Errorf("lambda %g: %w", lam, err)
				}
			}
			return nil
		},
	}
	return in, store, nil
}

func buildGridCold(sc scale, rng *rand.Rand, dir string) (*instance, error) {
	in, store, err := gridInstance(sc, rng, dir)
	if err != nil {
		return nil, err
	}
	in.beforeOp = func() error {
		if err := os.RemoveAll(store); err != nil {
			return err
		}
		return os.MkdirAll(store, 0o755)
	}
	return in, nil
}

func buildGridWarm(sc scale, rng *rand.Rand, dir string) (*instance, error) {
	in, _, err := gridInstance(sc, rng, dir)
	if err != nil {
		return nil, err
	}
	in.primeStore = true
	return in, nil
}

// --- 7. lifecycle.csv ---

// lifecyclePlanted is the number of informative features planted in the CSV
// (temperature, vibration, rpm); site and the two noise columns carry no
// signal, so steplm must select exactly the planted three.
const lifecyclePlanted = 3

// lifecycleScript is the examples/lifecycle pipeline. The steplm threshold is
// raised to 50 AIC points: a signal-free column improves n·log(rss/n) by a
// χ²₁ draw and can never clear it, while every planted column clears it by
// thousands, which makes nsel a planted truth instead of a coin flip.
const lifecycleScript = `
F = read(%q, data_type="frame", header=TRUE)
[X, M] = transformencode(target=F, spec="dummycode=site;impute=temperature:mean;scale=temperature,vibration,rpm,noise1,noise2")
nfeat = ncol(X) - 1
y = X[, ncol(X)]
X = X[, 1:nfeat]
X = winsorize(X, 0.02, 0.98)
[cvErr, meanErr] = crossValLM(X, y, 5, 0.0001)
[B, S] = steplm(X, y, 0.0001, 50)
nsel = sum(S)
[Xtr, ytr, Xte, yte] = splitTrainTest(X, y, 0.8)
Bfinal = lmDS(Xtr, ytr, 0.0001)
yhat = lmPredict(Xte, Bfinal)
testR2 = r2(yhat, yte)
testRMSE = rmse(yhat, yte)
`

// writeLifecycleRows writes the raw 7-column dataset: a categorical site,
// three informative sensors (temperature with 5% missing readings), two noise
// columns and the energy target.
func writeLifecycleRows(out io.Writer, rng *rand.Rand, rows int) error {
	w := bufio.NewWriterSize(out, 1<<20)
	sites := []string{"graz", "vienna", "linz"}
	fmt.Fprintln(w, "site,temperature,vibration,rpm,noise1,noise2,energy")
	for i := 0; i < rows; i++ {
		site := sites[rng.Intn(len(sites))]
		temp := 15 + 10*rng.Float64()
		vib := rng.Float64()
		rpm := 900 + 200*rng.Float64()
		energy := 0.5*temp + 3*vib + 0.01*rpm + 0.1*rng.NormFloat64()
		tempField := fmt.Sprintf("%.3f", temp)
		if rng.Float64() < 0.05 {
			tempField = ""
		}
		fmt.Fprintf(w, "%s,%s,%.3f,%.1f,%.4f,%.4f,%.4f\n", site, tempField, vib, rpm, rng.Float64(), rng.NormFloat64(), energy)
	}
	return w.Flush()
}

func writeLifecycleCSV(path string, rng *rand.Rand, rows int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeLifecycleRows(f, rng, rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func buildLifecycle(sc scale, rng *rand.Rand, dir string) (*instance, error) {
	tmp := filepath.Join(dir, "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	csv := filepath.Join(dir, "sensors.csv")
	if err := writeLifecycleCSV(csv, rng, sc.LifeRows); err != nil {
		return nil, err
	}
	return &instance{
		params:   map[string]any{"rows": sc.LifeRows, "csv_cols": 7, "planted": lifecyclePlanted},
		script:   fmt.Sprintf(lifecycleScript, csv),
		outputs:  []string{"nfeat", "nsel", "meanErr", "testR2", "testRMSE"},
		opts:     baseOpts(tmp, systemds.WithReuse(true)),
		freshCtx: true,
		tmpDir:   tmp,
		check: func(res systemds.Results, _ int) error {
			// planted truth: 3 site dummies + 5 numeric features encode to 8
			// columns; the noise floor is 0.1² plus the error of imputing 5%
			// of temperature, under 4% of Var(energy) — R² 0.9 leaves room
			// for winsorizing, RMSE 0.6 is a third of sd(energy)
			bands := []struct {
				name   string
				lo, hi float64
			}{
				{"nfeat", 8, 8},
				{"nsel", lifecyclePlanted, lifecyclePlanted},
				{"testR2", 0.9, 1},
				{"testRMSE", 0.05, 0.6},
				{"meanErr", 0.0025, 0.36},
			}
			for _, b := range bands {
				v, err := res.Float(b.name)
				if err != nil {
					return err
				}
				if err := checkBand(b.name, v, b.lo, b.hi); err != nil {
					return err
				}
			}
			return nil
		},
	}, nil
}

// --- 8. score.prepared ---

func buildScorePrepared(sc scale, rng *rand.Rand, dir string) (*instance, error) {
	const nBatches = 8
	mu := uniform(rng, sc.ScoreCols, -1, 1)
	sd := uniform(rng, sc.ScoreCols, 0.5, 2)
	b := uniform(rng, sc.ScoreCols, -1, 1)
	muM, sdM, bM := rowVector(mu), rowVector(sd), colVector(b)
	in := &instance{
		params:  map[string]any{"batch_rows": sc.ScoreRows, "cols": sc.ScoreCols, "calls_per_op": sc.ScoreCalls, "batches": nBatches, "threads": 1},
		script:  "Xs = (X - mu) / sd\nyhat = lmPredict(Xs, B)",
		outputs: []string{"yhat"},
		opts:    []systemds.Option{systemds.WithParallelism(1), systemds.WithTempDir(dir)},
		tmpDir:  dir,
		calls:   sc.ScoreCalls,
	}
	want := make([][]float64, nBatches)
	for i := range want {
		x := dense{sc.ScoreRows, sc.ScoreCols, uniform(rng, sc.ScoreRows*sc.ScoreCols, -3, 3)}
		want[i] = naiveScore(x, mu, sd, b)
		in.batches = append(in.batches, map[string]any{"X": asMatrix(x), "mu": muM, "sd": sdM, "B": bM})
	}
	in.check = func(res systemds.Results, batch int) error {
		yhat, err := matrixValues(res, "yhat")
		if err != nil {
			return err
		}
		return checkClose("yhat", yhat, want[batch], relTol)
	}
	return in, nil
}
