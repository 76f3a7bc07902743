package core

import (
	"io"
	"testing"

	"github.com/systemds/systemds-go/internal/lineage"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
)

// reuseEngine is a single-threaded engine with the reuse cache on, so hit and
// miss counts repeat exactly from run to run.
func reuseEngine(reuse bool) *Engine {
	cfg := runtime.DefaultConfig()
	cfg.Parallelism = 1
	cfg.ReuseEnabled = reuse
	e := NewEngine(cfg)
	e.SetOutput(io.Discard)
	return e
}

// TestScalarOperandsTraceByValue: a column index written as a literal, held
// by a loop variable and computed by as.scalar traces to one item, so the
// second and third slices are answered from the cache.
func TestScalarOperandsTraceByValue(t *testing.T) {
	x := matrix.RandUniform(40, 5, -1, 1, 1.0, 61)
	j := matrix.NewDense(1, 1)
	j.Set(0, 0, 3)
	e := reuseEngine(true)
	res, stats, err := e.Execute(`
A = X[, 3]
for (i in 3:3) {
  B = X[, i]
}
C = X[, as.scalar(J)]
`, map[string]any{"X": x, "J": j}, []string{"A", "B", "C"})
	if err != nil {
		t.Fatal(err)
	}
	a := asMatrix(t, res["A"])
	for _, name := range []string{"B", "C"} {
		if !asMatrix(t, res[name]).Equals(a, 0) {
			t.Errorf("%s differs from A", name)
		}
	}
	want := lineage.CacheStats{Hits: 2, Misses: 3, Puts: 3}
	got := stats.CacheStats
	got.BytesCached = 0
	if got != want {
		t.Errorf("cache stats = %+v, want %+v (X[, i] and X[, as.scalar(J)] hit X[, 3])", got, want)
	}
}

// TestParamDefaultsTraceByValue: two functions whose Double parameter has a
// different default compute the same expression over the same matrix. A
// default is traced by its value, so the second call is not answered with
// the first call's result.
func TestParamDefaultsTraceByValue(t *testing.T) {
	x := matrix.RandUniform(20, 3, 0, 1, 1.0, 62)
	e := reuseEngine(true)
	res, _, err := e.Execute(`
f = function(Matrix[Double] X, Double a = 1) return (Double s) {
  s = sum(X * a)
}
g = function(Matrix[Double] X, Double a = 2) return (Double s) {
  s = sum(X * a)
}
s1 = f(X)
s2 = g(X)
`, map[string]any{"X": x}, []string{"s1", "s2"})
	if err != nil {
		t.Fatal(err)
	}
	s1, s2 := res["s1"].(float64), res["s2"].(float64)
	if s2 != 2*s1 {
		t.Errorf("f(X) = %v, g(X) = %v: want g(X) = 2 f(X)", s1, s2)
	}
}

// TestSteplmReuseIsBitwiseEqual: steplm's candidate loop re-slices the
// chosen column with a computed index, which now hits the slice its parfor
// body traced with the loop variable. The selected model is bitwise equal
// with reuse on and off, and the counts are pinned.
func TestSteplmReuseIsBitwiseEqual(t *testing.T) {
	const n = 2000
	x := matrix.RandUniform(n, 8, -1, 1, 1.0, 63)
	y := matrix.NewDense(n, 1)
	for i := 0; i < n; i++ {
		y.Set(i, 0, 3*x.Get(i, 0)-2*x.Get(i, 4)+x.Get(i, 6)+0.01*float64(i%7))
	}
	const script = "[B, S] = steplm(X, y, 0.000001, 0.001)"
	inputs := map[string]any{"X": x, "y": y}
	off, _, err := reuseEngine(false).Execute(script, inputs, []string{"B", "S"})
	if err != nil {
		t.Fatal(err)
	}
	on, stats, err := reuseEngine(true).Execute(script, inputs, []string{"B", "S"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"B", "S"} {
		if !asMatrix(t, on[name]).Equals(asMatrix(t, off[name]), 0) {
			t.Errorf("%s differs between reuse on and reuse off", name)
		}
	}
	want := lineage.CacheStats{Hits: 84, Misses: 337, Puts: 337}
	got := stats.CacheStats
	got.BytesCached = 0
	if got != want {
		t.Errorf("cache stats = %+v, want %+v", got, want)
	}
}
