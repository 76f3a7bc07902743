// Package experiments implements the harness that regenerates the paper's
// evaluation, Figure 5(a)-(d) of Section 4, for cmd/sysdsbench (EXPERIMENTS.md
// records a run). The default scale is reduced relative to the paper's
// 100K x 1K inputs, and the paper scale can be selected explicitly.
package experiments

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/systemds/systemds-go/internal/baselines"
	"github.com/systemds/systemds-go/internal/core"
	sdsio "github.com/systemds/systemds-go/internal/io"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
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

// TinyScale is the CI-friendly scale.
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
	engine.SetOutput(io.Discard)
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

// system is one series of a figure: a label and the run that times the
// workload for k models.
type system struct {
	label string
	run   func(k int) (time.Duration, error)
}

// sysDS times the end-to-end DML workload on the given input files.
func sysDS(label, dir, xPath, yPath string, reuse bool) system {
	return system{label, func(k int) (time.Duration, error) {
		d, _, err := RunSysDSWorkload(dir, xPath, yPath, k, reuse)
		return d, err
	}}
}

// sweepK adds one series per system to f, timing each at every k of ks.
func (f *Figure) sweepK(ks []int, systems ...system) error {
	for _, sys := range systems {
		series := Series{Label: sys.label}
		for _, k := range ks {
			elapsed, err := sys.run(k)
			if err != nil {
				return fmt.Errorf("%s k=%d: %w", sys.label, k, err)
			}
			series.Points = append(series.Points, Point{X: float64(k), Seconds: elapsed.Seconds()})
		}
		f.Series = append(f.Series, series)
	}
	return nil
}

// baselinesFigure regenerates Figure 5(a) or 5(b): TF vs TF-G vs Julia vs
// SysDS over the number of models k, on input of the given sparsity.
func baselinesFigure(scale Scale, dir, name, title string, sparsity float64, seed int64, notes ...string) (*Figure, error) {
	xPath, yPath, err := PrepareWorkloadFiles(dir, scale.Rows, scale.Cols, sparsity, seed)
	if err != nil {
		return nil, err
	}
	var systems []system
	for _, b := range []baselines.System{baselines.Naive, baselines.GraphCSE, baselines.Eager} {
		systems = append(systems, system{b.String(), func(k int) (time.Duration, error) {
			return RunBaselineWorkload(dir, xPath, yPath, k, b)
		}})
	}
	fig := &Figure{Name: name, Title: title, XLabel: "k models", Notes: notes}
	if err := fig.sweepK(scale.Ks, append(systems, sysDS("SysDS", dir, xPath, yPath, false))...); err != nil {
		return nil, err
	}
	return fig, nil
}

// Figure5a regenerates "Baselines Dense". The paper's fifth series, SysDS-B
// (native BLAS), coincides with SysDS here and is a note, not a series: the
// register-blocked engine that stands in for BLAS is what every dense kernel
// already selects above its size crossover.
func Figure5a(scale Scale, dir string) (*Figure, error) {
	return baselinesFigure(scale, dir, "Figure 5(a)", "Baselines Dense (hyper-parameter workload)", 1.0, 1001,
		fmt.Sprintf("dense %dx%d input, end-to-end including CSV I/O", scale.Rows, scale.Cols),
		"SysDS-B = SysDS: the tiled AVX2 GEMM engine (the native-BLAS substitute) is the default dense kernel above the crossover, and the workload's only ba+* is a matrix-vector product")
}

// Figure5b regenerates "Baselines Sparse": the same workload on data with
// sparsity 0.1.
func Figure5b(scale Scale, dir string) (*Figure, error) {
	return baselinesFigure(scale, dir, "Figure 5(b)", "Baselines Sparse (sparsity 0.1)", 0.1, 2002,
		"sparse inputs kept in CSR; SysDS avoids transpose materialization via tsmm")
}

// Figure5c regenerates "Reuse Dense": SysDS with and without lineage-based
// reuse over the number of models.
func Figure5c(scale Scale, dir string) (*Figure, error) {
	xPath, yPath, err := PrepareWorkloadFiles(dir, scale.Rows, scale.Cols, 1.0, 3003)
	if err != nil {
		return nil, err
	}
	fig := &Figure{Name: "Figure 5(c)", Title: "Reuse Dense (SysDS vs SysDS w/ Reuse)", XLabel: "k models",
		Notes: []string{"reuse eliminates the redundant t(X)%*%X and t(X)%*%y across the k models"}}
	if err := fig.sweepK(scale.Ks, sysDS("SysDS", dir, xPath, yPath, false), sysDS("SysDS+Reuse", dir, xPath, yPath, true)); err != nil {
		return nil, err
	}
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
