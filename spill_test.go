package systemds_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	systemds "github.com/systemds/systemds-go"
)

// The differential scenarios: 600x40 inputs on the blocked backend (operator
// budget 32 KB, 200-row blocks), so X and its memoized partition — 192 KB
// each — and, where a multiply of the tiled engine's shape still transposes
// (the list round trip), a blocked t(X) are the working set the buffer pool
// budgets are fractions of.
const (
	diffRows, diffCols = 600, 40
	diffWorkingSet     = 3 * diffRows * diffCols * 8
)

type diffScenario struct {
	name    string
	outputs []string
	// run executes the scenario on a fresh session with the given options
	// and returns its outputs and the statistics of its (last) run.
	run func(t *testing.T, dir string, opts []systemds.Option) (systemds.Results, *systemds.ExecStats)
}

func diffScenarios() []diffScenario {
	X, y := systemds.SyntheticRegression(diffRows, diffCols, 1.0, 71)
	single := func(script string, inputs map[string]any, outputs ...string) func(*testing.T, string, []systemds.Option) (systemds.Results, *systemds.ExecStats) {
		return func(t *testing.T, _ string, opts []systemds.Option) (systemds.Results, *systemds.ExecStats) {
			ctx := systemds.NewContext(opts...)
			res, err := ctx.Execute(script, inputs, outputs...)
			if err != nil {
				t.Fatal(err)
			}
			return res, ctx.LastRunStats()
		}
	}
	return []diffScenario{
		{name: "gd loop", outputs: []string{"w", "s"}, run: single(`
w = matrix(0, rows=ncol(X), cols=1)
for (i in 1:epochs) {
  q = X %*% w
  g = t(X) %*% (q - y)
  w = w - lr * g
}
s = sum(w)
`, map[string]any{"X": X, "y": y, "epochs": 3, "lr": 0.4 / (diffRows * diffCols)}, "w", "s")},
		{name: "function result", outputs: []string{"w", "s"}, run: single(`
step = function(Matrix[Double] A, Matrix[Double] v) return (Matrix[Double] B) {
  T = A %*% v
  B = t(A) %*% T
}
w = matrix(1, rows=ncol(X), cols=1)
for (i in 1:3) {
  u = step(X, w)
  w = u / nrow(X)
}
s = sum(w)
`, map[string]any{"X": X}, "w", "s")},
		{name: "parfor result slices", outputs: []string{"R"}, run: single(`
R = matrix(0, rows=ncol(X), cols=4)
parfor (i in 1:4) {
  v = matrix(i, rows=ncol(X), cols=1)
  q = X %*% v
  R[, i] = t(X) %*% q
}
`, map[string]any{"X": X}, "R")},
		{name: "list round trip", outputs: []string{"G"}, run: func(t *testing.T, dir string, opts []systemds.Option) (systemds.Results, *systemds.ExecStats) {
			csv := filepath.Join(dir, "frame.csv")
			var sb strings.Builder
			sb.WriteString("site,a,b\n")
			for i := 0; i < diffRows; i++ {
				fmt.Fprintf(&sb, "%s,%g,%g\n", []string{"graz", "linz", "wien"}[i%3], X.Get(i, 0), X.Get(i, 1))
			}
			if err := os.WriteFile(csv, []byte(sb.String()), 0o644); err != nil {
				t.Fatal(err)
			}
			defer os.Remove(csv)
			F, err := systemds.ReadFrameCSV(csv, true)
			if err != nil {
				t.Fatal(err)
			}
			ctx := systemds.NewContext(opts...)
			first, err := ctx.Execute(`[E, M] = transformencode(target=F, spec="dummycode=site;scale=a,b")`,
				map[string]any{"F": F}, "M")
			if err != nil {
				t.Fatal(err)
			}
			// the list leaves one run through the API and enters the next
			res, err := ctx.Execute(`
E = transformapply(target=F, meta=M)
Z = E %*% t(E)
G = t(Z) %*% X
`, map[string]any{"F": F, "M": first["M"], "X": X}, "G")
			if err != nil {
				t.Fatal(err)
			}
			return res, ctx.LastRunStats()
		}},
	}
}

func sameResults(a, b systemds.Results, outputs []string) error {
	for _, name := range outputs {
		if fa, err := a.Float(name); err == nil {
			fb, _ := b.Float(name)
			if math.Float64bits(fa) != math.Float64bits(fb) {
				return fmt.Errorf("%s: %v vs %v", name, fa, fb)
			}
			continue
		}
		ma, err := a.Matrix(name)
		if err != nil {
			return err
		}
		mb, err := b.Matrix(name)
		if err != nil {
			return err
		}
		if ma.Rows() != mb.Rows() || ma.Cols() != mb.Cols() {
			return fmt.Errorf("%s: %dx%d vs %dx%d", name, ma.Rows(), ma.Cols(), mb.Rows(), mb.Cols())
		}
		for r := 0; r < ma.Rows(); r++ {
			for c := 0; c < ma.Cols(); c++ {
				if x, y := ma.Get(r, c), mb.Get(r, c); math.Float64bits(x) != math.Float64bits(y) {
					return fmt.Errorf("%s[%d,%d]: %v vs %v", name, r, c, x, y)
				}
			}
		}
	}
	return nil
}

// TestSpillDifferential: what a script computes does not depend on how much
// memory the buffer pool has. Each scenario runs on the blocked backend with
// a pool of 1/4, 1/2 and all of its working set and with no limit; the
// outputs agree bit for bit, the tight budgets do evict, and a finished run
// leaves neither spill files nor goroutines behind.
func TestSpillDifferential(t *testing.T) {
	for _, sc := range diffScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			goroutines := runtime.NumGoroutine()
			var unlimited systemds.Results
			for _, budget := range []int64{0, diffWorkingSet, diffWorkingSet / 2, diffWorkingSet / 4} {
				dir := t.TempDir()
				res, stats := sc.run(t, dir, []systemds.Option{
					systemds.WithDistributedBackend(true),
					systemds.WithOperatorMemBudget(32 << 10),
					systemds.WithDistBlocksize(200),
					systemds.WithBufferPool(budget),
					systemds.WithTempDir(dir),
				})
				if left, _ := filepath.Glob(filepath.Join(dir, "*")); len(left) != 0 {
					t.Errorf("budget %d: files left behind: %v", budget, left)
				}
				if budget == 0 {
					unlimited = res
				} else if err := sameResults(unlimited, res, sc.outputs); err != nil {
					t.Errorf("budget %d differs from the unlimited pool: %v", budget, err)
				}
				if ps := stats.PoolStats; budget == diffWorkingSet/4 && ps.Evictions == 0 {
					t.Errorf("budget %d: nothing was evicted (%+v); the comparison checks nothing", budget, ps)
				}
			}
			deadline := time.Now().Add(2 * time.Second)
			for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if now := runtime.NumGoroutine(); now > goroutines {
				t.Errorf("%d goroutines before, %d after", goroutines, now)
			}
		})
	}
}
