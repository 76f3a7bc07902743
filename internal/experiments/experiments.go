// Package experiments implements the benchmark harness that regenerates the
// paper's evaluation (Figure 5(a)-(d), Section 4) and the ablation
// experiments called out in DESIGN.md. The same harness backs the
// cmd/sysdsbench binary and the testing.B benchmarks in bench_test.go; the
// default scale is reduced relative to the paper's 100K x 1K inputs, and the
// paper scale can be selected explicitly.
package experiments

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/systemds/systemds-go/internal/baselines"
	"github.com/systemds/systemds-go/internal/core"
	"github.com/systemds/systemds-go/internal/dist"
	"github.com/systemds/systemds-go/internal/fed"
	sdsio "github.com/systemds/systemds-go/internal/io"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/paramserv"
	"github.com/systemds/systemds-go/internal/runtime"
	"github.com/systemds/systemds-go/internal/types"
)

// Scale configures the data sizes of the hyper-parameter workload.
type Scale struct {
	Name      string
	Rows      int
	Cols      int
	Ks        []int // number of models per run (Figure 5(a)-(c))
	RowsSweep []int // row counts for Figure 5(d)
	KFixed    int   // models for Figure 5(d)
}

// SmallScale is the default laptop-friendly scale.
func SmallScale() Scale {
	return Scale{
		Name: "small", Rows: 20000, Cols: 100,
		Ks:        []int{1, 10, 20, 30, 40},
		RowsSweep: []int{5000, 10000, 20000, 40000},
		KFixed:    40,
	}
}

// TinyScale is used by unit tests and testing.B benchmarks.
func TinyScale() Scale {
	return Scale{
		Name: "tiny", Rows: 2000, Cols: 40,
		Ks:        []int{1, 5, 10},
		RowsSweep: []int{1000, 2000, 4000},
		KFixed:    10,
	}
}

// PaperScale reproduces the paper's sizes (100K x 1K, k up to 70). Running it
// requires tens of gigabytes of memory and considerable time.
func PaperScale() Scale {
	return Scale{
		Name: "paper", Rows: 100000, Cols: 1000,
		Ks:        []int{1, 10, 20, 30, 40, 50, 60, 70},
		RowsSweep: []int{33000, 100000, 330000, 1000000, 3300000},
		KFixed:    70,
	}
}

// Point is one measurement of a series.
type Point struct {
	X       float64
	Seconds float64
}

// Series is one line of a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is a regenerated table/figure: named series over a common x-axis.
type Figure struct {
	Name   string
	Title  string
	XLabel string
	Series []Series
	Notes  []string
}

// Render renders the figure as an aligned text table (one row per x value,
// one column per series), the form in which EXPERIMENTS.md records results.
func (f *Figure) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s — %s\n", f.Name, f.Title)
	// collect x values from the first series
	if len(f.Series) == 0 {
		return sb.String()
	}
	fmt.Fprintf(&sb, "%-12s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&sb, "%14s", s.Label)
	}
	sb.WriteString("\n")
	for i := range f.Series[0].Points {
		fmt.Fprintf(&sb, "%-12g", f.Series[0].Points[i].X)
		for _, s := range f.Series {
			if i < len(s.Points) {
				fmt.Fprintf(&sb, "%13.3fs", s.Points[i].Seconds)
			} else {
				fmt.Fprintf(&sb, "%14s", "-")
			}
		}
		sb.WriteString("\n")
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// lambdas returns k regularization values.
func lambdas(k int) []float64 {
	out := make([]float64, k)
	for i := range out {
		out[i] = float64(i+1) / 1000.0
	}
	return out
}

// workloadScript is the DML hyper-parameter optimization script of
// Section 4.1: read a CSV file, train k lmDS models with different
// regularization values, and write the models to a CSV file.
const workloadScript = `
X = read($Xpath)
y = read($ypath)
lambdas = seq(1, $k, 1) / 1000
[B, losses] = gridSearchLM(X, y, lambdas)
write(B, $Bpath)
`

// PrepareWorkloadFiles generates the synthetic regression input of the
// Section 4.1 workload and returns the CSV paths.
func PrepareWorkloadFiles(dir string, rows, cols int, sparsity float64, seed int64) (xPath, yPath string, err error) {
	x, y := matrix.SyntheticRegression(rows, cols, sparsity, seed)
	xPath = filepath.Join(dir, fmt.Sprintf("X_%d_%d_%v.csv", rows, cols, sparsity))
	yPath = filepath.Join(dir, fmt.Sprintf("y_%d_%v.csv", rows, sparsity))
	if err := sdsio.WriteMatrixCSV(xPath, x, sdsio.DefaultCSVOptions()); err != nil {
		return "", "", err
	}
	if err := sdsio.WriteMatrixCSV(yPath, y, sdsio.DefaultCSVOptions()); err != nil {
		return "", "", err
	}
	return xPath, yPath, nil
}

// substituteScript replaces the $-placeholders of the workload script.
func substituteScript(xPath, yPath, bPath string, k int) string {
	s := workloadScript
	s = strings.ReplaceAll(s, "$Xpath", fmt.Sprintf("%q", xPath))
	s = strings.ReplaceAll(s, "$ypath", fmt.Sprintf("%q", yPath))
	s = strings.ReplaceAll(s, "$Bpath", fmt.Sprintf("%q", bPath))
	s = strings.ReplaceAll(s, "$k", fmt.Sprint(k))
	return s
}

// RunSysDSWorkload runs the end-to-end DML workload (CSV read, k models,
// CSV write) with the given configuration and returns the elapsed time.
func RunSysDSWorkload(dir, xPath, yPath string, k int, reuse bool) (time.Duration, *core.Stats, error) {
	cfg := runtime.DefaultConfig()
	cfg.ReuseEnabled = reuse
	engine := core.NewEngine(cfg)
	engine.SetOutput(discard{})
	bPath := filepath.Join(dir, fmt.Sprintf("B_%d.csv", time.Now().UnixNano()))
	script := substituteScript(xPath, yPath, bPath, k)
	start := time.Now()
	_, stats, err := engine.Execute(script, nil, nil)
	elapsed := time.Since(start)
	_ = os.Remove(bPath)
	if err != nil {
		return 0, nil, err
	}
	return elapsed, stats, nil
}

// ReadWorkloadCSV reads a workload CSV with the multi-threaded parser (used
// by the CSV-parse micro-benchmark).
func ReadWorkloadCSV(path string) (*matrix.MatrixBlock, error) {
	return sdsio.ReadMatrixCSV(path, sdsio.DefaultCSVOptions())
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// RunBaselineWorkload runs the same end-to-end workload with one of the
// baseline executors (CSV read, k models, CSV write).
func RunBaselineWorkload(dir, xPath, yPath string, k int, sys baselines.System) (time.Duration, error) {
	start := time.Now()
	x, err := sdsio.ReadMatrixCSV(xPath, sdsio.DefaultCSVOptions())
	if err != nil {
		return 0, err
	}
	y, err := sdsio.ReadMatrixCSV(yPath, sdsio.DefaultCSVOptions())
	if err != nil {
		return 0, err
	}
	res, err := baselines.RunHyperParameterWorkload(sys, x, y, lambdas(k), 0)
	if err != nil {
		return 0, err
	}
	bPath := filepath.Join(dir, fmt.Sprintf("B_base_%d.csv", time.Now().UnixNano()))
	if err := sdsio.WriteMatrixCSV(bPath, res.Models, sdsio.DefaultCSVOptions()); err != nil {
		return 0, err
	}
	_ = os.Remove(bPath)
	return time.Since(start), nil
}

// Figure5a regenerates "Baselines Dense": TF vs TF-G vs Julia vs SysDS over
// the number of models k on dense data. The paper's fifth series, SysDS-B
// (native BLAS), coincides with SysDS here and is a note, not a series: the
// register-blocked engine that stands in for BLAS is what every dense kernel
// already selects above its size crossover.
func Figure5a(scale Scale, dir string) (*Figure, error) {
	xPath, yPath, err := PrepareWorkloadFiles(dir, scale.Rows, scale.Cols, 1.0, 1001)
	if err != nil {
		return nil, err
	}
	fig := &Figure{Name: "Figure 5(a)", Title: "Baselines Dense (hyper-parameter workload)", XLabel: "k models"}
	systems := []struct {
		label string
		run   func(k int) (time.Duration, error)
	}{
		{"TF", func(k int) (time.Duration, error) { return RunBaselineWorkload(dir, xPath, yPath, k, baselines.Naive) }},
		{"TF-G", func(k int) (time.Duration, error) {
			return RunBaselineWorkload(dir, xPath, yPath, k, baselines.GraphCSE)
		}},
		{"Julia", func(k int) (time.Duration, error) { return RunBaselineWorkload(dir, xPath, yPath, k, baselines.Eager) }},
		{"SysDS", func(k int) (time.Duration, error) {
			d, _, err := RunSysDSWorkload(dir, xPath, yPath, k, false)
			return d, err
		}},
	}
	for _, sys := range systems {
		series := Series{Label: sys.label}
		for _, k := range scale.Ks {
			elapsed, err := sys.run(k)
			if err != nil {
				return nil, fmt.Errorf("%s k=%d: %w", sys.label, k, err)
			}
			series.Points = append(series.Points, Point{X: float64(k), Seconds: elapsed.Seconds()})
		}
		fig.Series = append(fig.Series, series)
	}
	fig.Notes = append(fig.Notes, fmt.Sprintf("dense %dx%d input, end-to-end including CSV I/O", scale.Rows, scale.Cols),
		"SysDS-B = SysDS: the tiled AVX2 GEMM engine (the native-BLAS substitute) is the default dense kernel above the crossover, and the workload's only ba+* is a matrix-vector product")
	return fig, nil
}

// Figure5b regenerates "Baselines Sparse": the same workload on data with
// sparsity 0.1.
func Figure5b(scale Scale, dir string) (*Figure, error) {
	xPath, yPath, err := PrepareWorkloadFiles(dir, scale.Rows, scale.Cols, 0.1, 2002)
	if err != nil {
		return nil, err
	}
	fig := &Figure{Name: "Figure 5(b)", Title: "Baselines Sparse (sparsity 0.1)", XLabel: "k models"}
	systems := []struct {
		label string
		run   func(k int) (time.Duration, error)
	}{
		{"TF", func(k int) (time.Duration, error) { return RunBaselineWorkload(dir, xPath, yPath, k, baselines.Naive) }},
		{"TF-G", func(k int) (time.Duration, error) {
			return RunBaselineWorkload(dir, xPath, yPath, k, baselines.GraphCSE)
		}},
		{"Julia", func(k int) (time.Duration, error) { return RunBaselineWorkload(dir, xPath, yPath, k, baselines.Eager) }},
		{"SysDS", func(k int) (time.Duration, error) {
			d, _, err := RunSysDSWorkload(dir, xPath, yPath, k, false)
			return d, err
		}},
	}
	for _, sys := range systems {
		series := Series{Label: sys.label}
		for _, k := range scale.Ks {
			elapsed, err := sys.run(k)
			if err != nil {
				return nil, fmt.Errorf("%s k=%d: %w", sys.label, k, err)
			}
			series.Points = append(series.Points, Point{X: float64(k), Seconds: elapsed.Seconds()})
		}
		fig.Series = append(fig.Series, series)
	}
	fig.Notes = append(fig.Notes, "sparse inputs kept in CSR; SysDS avoids transpose materialization via tsmm")
	return fig, nil
}

// Figure5c regenerates "Reuse Dense": SysDS with and without lineage-based
// reuse over the number of models.
func Figure5c(scale Scale, dir string) (*Figure, error) {
	xPath, yPath, err := PrepareWorkloadFiles(dir, scale.Rows, scale.Cols, 1.0, 3003)
	if err != nil {
		return nil, err
	}
	fig := &Figure{Name: "Figure 5(c)", Title: "Reuse Dense (SysDS vs SysDS w/ Reuse)", XLabel: "k models"}
	for _, reuse := range []bool{false, true} {
		label := "SysDS"
		if reuse {
			label = "SysDS+Reuse"
		}
		series := Series{Label: label}
		for _, k := range scale.Ks {
			elapsed, _, err := RunSysDSWorkload(dir, xPath, yPath, k, reuse)
			if err != nil {
				return nil, fmt.Errorf("%s k=%d: %w", label, k, err)
			}
			series.Points = append(series.Points, Point{X: float64(k), Seconds: elapsed.Seconds()})
		}
		fig.Series = append(fig.Series, series)
	}
	fig.Notes = append(fig.Notes, "reuse eliminates the redundant t(X)%*%X and t(X)%*%y across the k models")
	return fig, nil
}

// Figure5d regenerates "Reuse Sparse": SysDS with and without reuse over the
// number of rows at fixed k and sparsity 0.1.
func Figure5d(scale Scale, dir string) (*Figure, error) {
	fig := &Figure{Name: "Figure 5(d)", Title: fmt.Sprintf("Reuse Sparse (k=%d models, sparsity 0.1)", scale.KFixed), XLabel: "rows"}
	noReuse := Series{Label: "SysDS"}
	withReuse := Series{Label: "SysDS+Reuse"}
	for _, rows := range scale.RowsSweep {
		xPath, yPath, err := PrepareWorkloadFiles(dir, rows, scale.Cols, 0.1, int64(4000+rows))
		if err != nil {
			return nil, err
		}
		e1, _, err := RunSysDSWorkload(dir, xPath, yPath, scale.KFixed, false)
		if err != nil {
			return nil, err
		}
		e2, _, err := RunSysDSWorkload(dir, xPath, yPath, scale.KFixed, true)
		if err != nil {
			return nil, err
		}
		noReuse.Points = append(noReuse.Points, Point{X: float64(rows), Seconds: e1.Seconds()})
		withReuse.Points = append(withReuse.Points, Point{X: float64(rows), Seconds: e2.Seconds()})
	}
	fig.Series = []Series{noReuse, withReuse}
	fig.Notes = append(fig.Notes, "the reuse benefit grows with the input size because the remaining work is size-independent")
	return fig, nil
}

// AblationSteplmPartialReuse measures full and partial reuse on an
// incremental feature-selection workload (Example 1 access pattern): models
// are trained on a growing cbind-prefix of the features.
func AblationSteplmPartialReuse(rows, cols int) (*Figure, error) {
	x, y := matrix.SyntheticRegression(rows, cols, 1.0, 5005)
	script := `
Xg = X[, 1]
m = ncol(X)
for (i in 2:m) {
  xi = X[, i]
  Xg = cbind(Xg, xi)
  B = lmDS(Xg, y, 0.001)
}
total = sum(B)
`
	fig := &Figure{Name: "Ablation A1", Title: "Partial reuse on incremental feature selection", XLabel: "mode"}
	modes := []struct {
		label string
		reuse bool
	}{{"no-reuse", false}, {"reuse", true}}
	for i, m := range modes {
		cfg := runtime.DefaultConfig()
		cfg.ReuseEnabled = m.reuse
		engine := core.NewEngine(cfg)
		engine.SetOutput(discard{})
		start := time.Now()
		_, stats, err := engine.Execute(script, map[string]any{"X": x, "y": y}, []string{"total"})
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		fig.Series = append(fig.Series, Series{Label: m.label, Points: []Point{{X: float64(i), Seconds: elapsed.Seconds()}}})
		if m.reuse {
			fig.Notes = append(fig.Notes, fmt.Sprintf("reuse stats: hits=%d partial=%d puts=%d",
				stats.CacheStats.Hits, stats.CacheStats.PartialHits, stats.CacheStats.Puts))
		}
	}
	return fig, nil
}

// AblationDistVsLocal compares the local TSMM kernel against the blocked
// distributed backend for growing inputs (the operator-selection trade-off).
func AblationDistVsLocal(rowsList []int, cols, blocksize int) (*Figure, error) {
	fig := &Figure{Name: "Ablation A2", Title: "Local vs blocked-distributed TSMM", XLabel: "rows"}
	local := Series{Label: "CP"}
	blocked := Series{Label: "DIST"}
	for _, rows := range rowsList {
		x := matrix.RandUniform(rows, cols, 0, 1, 1.0, int64(rows))
		start := time.Now()
		localRes := matrix.TSMM(x, 0)
		local.Points = append(local.Points, Point{X: float64(rows), Seconds: time.Since(start).Seconds()})
		bm, err := dist.FromMatrixBlock(x, blocksize)
		if err != nil {
			return nil, err
		}
		start = time.Now()
		distRes, err := dist.TSMM(bm, 0)
		if err != nil {
			return nil, err
		}
		blocked.Points = append(blocked.Points, Point{X: float64(rows), Seconds: time.Since(start).Seconds()})
		if !localRes.Equals(distRes, 1e-6) {
			return nil, fmt.Errorf("distributed TSMM result differs from local result")
		}
	}
	fig.Series = []Series{local, blocked}
	return fig, nil
}

// AblationBlockedChain measures the repartition overhead removed by the
// first-class blocked objects on the chained pipeline
// Y = (X + X) %*% W; s = sum(Y): the "eager" series re-partitions the input
// and collects the blocked result around every single operator (the behavior
// before blocked results flowed through the symbol table), the "blocked"
// series partitions X once and keeps every intermediate blocked.
func AblationBlockedChain(rowsList []int, cols, blocksize int) (*Figure, error) {
	fig := &Figure{Name: "Ablation A2b", Title: "Eager repartition vs blocked chain: (X+X) %*% W; sum", XLabel: "rows"}
	eager := Series{Label: "DIST eager"}
	blocked := Series{Label: "DIST blocked"}
	for _, rows := range rowsList {
		x := matrix.RandUniform(rows, cols, 0, 1, 1.0, int64(rows))
		w := matrix.RandUniform(cols, cols/2+1, 0, 1, 1.0, int64(cols))

		// eager: partition/collect around every operator
		start := time.Now()
		bx, err := dist.FromMatrixBlock(x, blocksize)
		if err != nil {
			return nil, err
		}
		by, err := dist.Cellwise(bx, bx, matrix.OpAdd)
		if err != nil {
			return nil, err
		}
		yLocal, err := by.ToMatrixBlock()
		if err != nil {
			return nil, err
		}
		by2, err := dist.FromMatrixBlock(yLocal, blocksize)
		if err != nil {
			return nil, err
		}
		bz, err := dist.MatMult(by2, w, 0)
		if err != nil {
			return nil, err
		}
		zLocal, err := bz.ToMatrixBlock()
		if err != nil {
			return nil, err
		}
		bz2, err := dist.FromMatrixBlock(zLocal, blocksize)
		if err != nil {
			return nil, err
		}
		sEager, err := dist.FullAgg(bz2, "sum")
		if err != nil {
			return nil, err
		}
		eager.Points = append(eager.Points, Point{X: float64(rows), Seconds: time.Since(start).Seconds()})

		// blocked: partition once, every intermediate stays blocked
		start = time.Now()
		bx, err = dist.FromMatrixBlock(x, blocksize)
		if err != nil {
			return nil, err
		}
		bySt, err := dist.Cellwise(bx, bx, matrix.OpAdd)
		if err != nil {
			return nil, err
		}
		bzSt, err := dist.MatMult(bySt, w, 0)
		if err != nil {
			return nil, err
		}
		sBlocked, err := dist.FullAgg(bzSt, "sum")
		if err != nil {
			return nil, err
		}
		blocked.Points = append(blocked.Points, Point{X: float64(rows), Seconds: time.Since(start).Seconds()})

		if diff := sEager - sBlocked; diff > 1e-6 || diff < -1e-6 {
			return nil, fmt.Errorf("blocked chain result differs from eager chain: %g vs %g", sBlocked, sEager)
		}
	}
	fig.Series = []Series{eager, blocked}
	return fig, nil
}

// AblationFusedPipelines (A5) measures the fusion subsystem: the mmchain and
// cellwise-aggregate pipelines of an lmDS-style script executed fused
// (single-pass kernels, no full-size intermediates) versus unfused. The run
// asserts via the fused-operator counters that fusion actually fired and that
// both executions agree within 1e-6 relative error.
func AblationFusedPipelines(rows, cols int) (*Figure, error) {
	x := matrix.RandUniform(rows, cols, -1, 1, 1.0, 7007)
	y := matrix.RandUniform(rows, cols, -1, 1, 1.0, 7008)
	v := matrix.RandUniform(cols, 1, -1, 1, 1.0, 7009)
	script := `s = sum(X * Y)
q = sum((X - Y)^2)
g = t(X) %*% (X %*% v)
r = sum(g)`
	inputs := map[string]any{"X": x, "Y": y, "v": v}
	runOnce := func(fusion bool) (time.Duration, map[string]any, *core.Stats, error) {
		cfg := runtime.DefaultConfig()
		cfg.FusionDisabled = !fusion
		engine := core.NewEngine(cfg)
		engine.SetOutput(discard{})
		start := time.Now()
		res, stats, err := engine.Execute(script, inputs, []string{"s", "q", "r"})
		return time.Since(start), res, stats, err
	}
	// warm both paths once, then measure
	if _, _, _, err := runOnce(true); err != nil {
		return nil, err
	}
	elFused, resFused, stats, err := runOnce(true)
	if err != nil {
		return nil, err
	}
	if stats.FusedStats.FusedAggOps == 0 || stats.FusedStats.MMChainOps == 0 {
		return nil, fmt.Errorf("fused run did not execute fused instructions: %+v", stats.FusedStats)
	}
	elUnfused, resUnfused, _, err := runOnce(false)
	if err != nil {
		return nil, err
	}
	for _, name := range []string{"s", "q", "r"} {
		f, u := resFused[name].(float64), resUnfused[name].(float64)
		// relative tolerance: accumulation-order differences between the
		// fused chunk-ordered reduction and the unfused kernels grow with the
		// input size, so an absolute bound would not scale
		scale := math.Max(1, math.Max(math.Abs(f), math.Abs(u)))
		if d := math.Abs(f-u) / scale; d > 1e-6 {
			return nil, fmt.Errorf("fused %s = %g differs from unfused %g (rel %g)", name, f, u, d)
		}
	}
	fig := &Figure{Name: "Ablation A5", Title: "Fused vs unfused operator pipelines", XLabel: "mode"}
	fig.Series = []Series{
		{Label: "unfused", Points: []Point{{X: 0, Seconds: elUnfused.Seconds()}}},
		{Label: "fused", Points: []Point{{X: 1, Seconds: elFused.Seconds()}}},
	}
	return fig, nil
}

// AblationMatMultStrategies (A6) measures the cost-based matmult planner: a
// multiplication whose operands both exceed the broadcast budget is executed
// once through the engine (the planner picks the strategy, asserted via the
// plan statistics) and once per forced physical strategy through the dist
// executors directly (broadcast join, grid join, shuffle split). All four
// paths must agree with the local result; the planner point should track the
// cheapest forced strategy.
func AblationMatMultStrategies(k, blocksize int) (*Figure, error) {
	m, n := 2*blocksize, blocksize
	a := matrix.RandUniform(m, k, -1, 1, 1.0, 8008)
	b := matrix.RandUniform(k, n, -1, 1, 1.0, 8009)
	want, err := matrix.Multiply(a, b, 0)
	if err != nil {
		return nil, err
	}

	fig := &Figure{Name: "Ablation A6", Title: "Planner-chosen vs forced matmult strategy", XLabel: "mode"}

	// planner-chosen, through the compiler and runtime
	cfg := runtime.DefaultConfig()
	cfg.DistEnabled = true
	cfg.DistBlocksize = blocksize
	cfg.OperatorMemBudget = types.EstimateSizeDense(int64(k), int64(n)) / 2 // both operands exceed it
	engine := core.NewEngine(cfg)
	engine.SetOutput(discard{})
	inputs := map[string]any{"A": a, "B": b}
	start := time.Now()
	res, stats, err := engine.Execute(`C = A %*% B`, inputs, []string{"C"})
	if err != nil {
		return nil, err
	}
	planned := time.Since(start)
	chosen := "none"
	for _, r := range stats.PlanStats {
		if r.Op == "ba+*" {
			chosen = r.Plan
		}
	}
	if !want.Equals(res["C"].(*matrix.MatrixBlock), 0) {
		return nil, fmt.Errorf("planner-chosen matmult differs from local result")
	}
	fig.Series = append(fig.Series, Series{Label: "planner (" + chosen + ")",
		Points: []Point{{X: 0, Seconds: planned.Seconds()}}})
	fig.Notes = append(fig.Notes, fmt.Sprintf("planner chose strategy %q", chosen))

	// forced strategies on pre-partitioned operands
	ba, err := dist.FromMatrixBlock(a, blocksize)
	if err != nil {
		return nil, err
	}
	bb, err := dist.FromMatrixBlock(b, blocksize)
	if err != nil {
		return nil, err
	}
	forced := []struct {
		label string
		run   func() (*dist.BlockedMatrix, error)
	}{
		{"forced-br", func() (*dist.BlockedMatrix, error) { return dist.MatMult(ba, b, 0) }},
		{"forced-gj", func() (*dist.BlockedMatrix, error) { return dist.MatMultBB(ba, bb, 0) }},
		{"forced-sh", func() (*dist.BlockedMatrix, error) { return dist.MatMultShuffle(ba, bb, 0) }},
	}
	for i, f := range forced {
		start := time.Now()
		bm, err := f.run()
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		local, err := bm.ToMatrixBlock()
		if err != nil {
			return nil, err
		}
		if !want.Equals(local, 1e-9) {
			return nil, fmt.Errorf("%s result differs from local multiply", f.label)
		}
		fig.Series = append(fig.Series, Series{Label: f.label,
			Points: []Point{{X: float64(i + 1), Seconds: elapsed.Seconds()}}})
	}
	return fig, nil
}

// AblationFederatedTSMM compares a federated TSMM across two in-process
// workers against the equivalent local computation.
func AblationFederatedTSMM(rows, cols int) (*Figure, error) {
	x := matrix.RandUniform(rows, cols, 0, 1, 1.0, 6006)
	half := rows / 2
	x1, err := matrix.Slice(x, 0, half, 0, cols)
	if err != nil {
		return nil, err
	}
	x2, err := matrix.Slice(x, half, rows, 0, cols)
	if err != nil {
		return nil, err
	}
	w1 := fed.NewWorker(nil)
	w1.PutLocal("X", x1)
	addr1, err := w1.Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer w1.Shutdown()
	w2 := fed.NewWorker(nil)
	w2.PutLocal("X", x2)
	addr2, err := w2.Serve("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer w2.Shutdown()
	fm, err := fed.NewFederatedMatrix(int64(rows), int64(cols), []fed.Range{
		{RowStart: 0, RowEnd: int64(half), ColStart: 0, ColEnd: int64(cols), Address: addr1, VarName: "X"},
		{RowStart: int64(half), RowEnd: int64(rows), ColStart: 0, ColEnd: int64(cols), Address: addr2, VarName: "X"},
	})
	if err != nil {
		return nil, err
	}
	defer fm.Close()
	fig := &Figure{Name: "Ablation A3", Title: "Federated vs local TSMM", XLabel: "mode"}
	start := time.Now()
	localRes := matrix.TSMM(x, 0)
	fig.Series = append(fig.Series, Series{Label: "local", Points: []Point{{X: 0, Seconds: time.Since(start).Seconds()}}})
	start = time.Now()
	fedRes, err := fm.TSMM()
	if err != nil {
		return nil, err
	}
	fig.Series = append(fig.Series, Series{Label: "federated", Points: []Point{{X: 1, Seconds: time.Since(start).Seconds()}}})
	if !localRes.Equals(fedRes, 1e-6) {
		return nil, fmt.Errorf("federated TSMM result differs from local result")
	}
	fig.Notes = append(fig.Notes, "only d x d aggregates cross site boundaries")
	return fig, nil
}

// AblationParamServ compares BSP and ASP parameter-server training on the
// same linear regression task.
func AblationParamServ(rows, cols int) (*Figure, error) {
	x, y := matrix.SyntheticRegression(rows, cols, 1.0, 7007)
	init := matrix.NewDense(cols, 1)
	fig := &Figure{Name: "Ablation A4", Title: "Parameter server BSP vs ASP", XLabel: "mode"}
	for i, mode := range []paramserv.UpdateMode{paramserv.BSP, paramserv.ASP} {
		// a conservative step size keeps the asynchronous updates stable
		cfg := paramserv.Config{Workers: 4, Epochs: 5, BatchSize: 128, LearnRate: 0.02, Mode: mode}
		start := time.Now()
		model, stats, err := paramserv.Train(x, y, init, paramserv.LinRegGradient(), cfg)
		if err != nil {
			return nil, err
		}
		elapsed := time.Since(start)
		loss, err := paramserv.SquaredLoss(model, x, y)
		if err != nil {
			return nil, err
		}
		fig.Series = append(fig.Series, Series{Label: mode.String(), Points: []Point{{X: float64(i), Seconds: elapsed.Seconds()}}})
		fig.Notes = append(fig.Notes, fmt.Sprintf("%s: loss=%.6f updates=%d", mode, loss, stats.Updates))
	}
	return fig, nil
}
