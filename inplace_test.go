package systemds_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	systemds "github.com/systemds/systemds-go"
)

// The tests of in-place updates (DESIGN.md, "Runtime values"): a left-indexing
// update and the parfor merge write a matrix in place only when nothing but
// the binding they replace can see it, so every other holder keeps the old
// bits, and a parfor loop leaves its result variables as the sequential loop
// would.

// TestParforMatchesFor: a whole-assigned result variable takes the value of
// the highest iteration, and a left-indexed one takes every iteration's
// region, exactly as the sequential loop leaves them, at every thread count.
func TestParforMatchesFor(t *testing.T) {
	for _, body := range []string{
		"R = matrix(0, 1, 4)\n%s (i in 1:5) {\n  R = matrix(i, 1, 4)\n}",
		"R = matrix(0, 1, 1)\n%s (i in 1:5) {\n  R = matrix(i, 1, i)\n}",
		"R = matrix(0, 1, 5)\n%s (i in 1:5) {\n  R[1, i] = i * i\n}",
	} {
		for _, threads := range []int{1, 2, 3} {
			run := func(loop string) *systemds.Matrix {
				ctx := systemds.NewContext(systemds.WithParallelism(threads))
				res, err := ctx.Execute(fmt.Sprintf(body, loop), nil, "R")
				if err != nil {
					t.Fatal(err)
				}
				r, err := res.Matrix("R")
				if err != nil {
					t.Fatal(err)
				}
				return r
			}
			seq, par := run("for"), run("parfor")
			if !sameBits(cells(par), cells(seq)) {
				t.Errorf("T=%d, %q: parfor gives %dx%d %v, for gives %dx%d %v", threads, body,
					par.Rows(), par.Cols(), par.DenseValues(), seq.Rows(), seq.Cols(), seq.DenseValues())
			}
		}
	}
}

// holderCase is a script that updates Y in a loop while something else holds
// Y's value; old names the outputs that must still have the bits of 2 * X.
type holderCase struct {
	name   string
	opts   []systemds.Option
	script string
	old    []string
}

// TestUpdatesLeaveOtherHoldersAlone: a left-indexing update and a parfor
// merge of Y write while Y's value is also held by a second binding (bound
// before the update's block, or in it, where only the compiler can tell), a
// lineage-cache entry, a second function result, a parfor worker and the
// buffer pool's spill file; every such holder still sees 2 * X, and Y itself
// is 2 * X with its first row's first three cells 42 — the bits of the same
// script with nothing written in place.
func TestUpdatesLeaveOtherHoldersAlone(t *testing.T) {
	const update = "for (i in 1:3) {\n  Y[1, i] = 42\n}\n"
	const pupdate = "parfor (i in 1:3) {\n  Y[1, i] = 42\n}\n"
	x := systemds.RandMatrix(300, 40, 1.0, 5)
	for _, tc := range []holderCase{
		{"nothing else", nil, "Y = X * 2\n" + update, nil},
		{"second binding", nil, "Y = X * 2\nZ = Y\n" + update, []string{"Z"}},
		{"second binding, merge", nil, "Y = X * 2\nZ = Y\n" + pupdate, []string{"Z"}},
		{"second binding in the same block", nil, "Y = X * 2\nfor (i in 1:1) {\n  Z = Y\n  Y[1, 1:3] = 42\n}\n", []string{"Z"}},
		{"lineage-cache entry", []systemds.Option{systemds.WithReuse(true)},
			"Y = X * 2\n" + update + "Z = X * 2\n", []string{"Z"}},
		{"lineage-cache entry, merge", []systemds.Option{systemds.WithReuse(true)},
			"Y = X * 2\n" + pupdate + "Z = X * 2\n", []string{"Z"}},
		{"second function result", nil, `
f = function(Matrix[Double] A) return (Matrix[Double] B, Matrix[Double] C) {
  B = A * 2
  C = B
}
[Y, Z] = f(X)
` + update, []string{"Z"}},
		{"parfor worker", nil, "Y = X * 2\nparfor (i in 1:4) {\n  Z = Y\n  for (k in 1:2) {\n    Z[1, k] = 42\n  }\n}\n", []string{"Y"}},
		{"spill file", []systemds.Option{systemds.WithBufferPool(150 << 10)},
			"Y = X * 2\nZ = X + 1\nfor (j in 1:ncol(Y)) {\n  Y[2, j] = Y[2, j]\n}\n" + update + "s = sum(Z)\n", nil},
	} {
		res, err := systemds.NewContext(append([]systemds.Option{systemds.WithParallelism(2)}, tc.opts...)...).
			Execute(tc.script, map[string]any{"X": x}, append([]string{"Y"}, tc.old...)...)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want := map[string][]uint64{}
		for _, name := range append([]string{"Y"}, tc.old...) {
			bits := make([]uint64, 0, 300*40)
			for r := 0; r < 300; r++ {
				for c := 0; c < 40; c++ {
					v := x.Get(r, c) * 2
					if name == "Y" && r == 0 && c < 3 && tc.name != "parfor worker" {
						v = 42
					}
					bits = append(bits, math.Float64bits(v))
				}
			}
			want[name] = bits
		}
		for name, bits := range want {
			m, err := res.Matrix(name)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if !sameBits(cells(m), bits) {
				t.Errorf("%s: %s does not have the expected bits", tc.name, name)
			}
		}
	}
}

// TestResultsOutputIsNeverWritten: a matrix handed to the caller keeps its
// bits when a later run of the same session updates the value it came from —
// as an input, and as the reuse cache's hit for the same lineage.
func TestResultsOutputIsNeverWritten(t *testing.T) {
	ctx := systemds.NewContext(systemds.WithParallelism(2), systemds.WithReuse(true))
	x := systemds.RandMatrix(50, 6, 1.0, 8)
	first, err := ctx.Execute("Y = X * 2", map[string]any{"X": x}, "Y")
	if err != nil {
		t.Fatal(err)
	}
	y, _ := first.Matrix("Y")
	before := cells(y)
	for _, script := range []string{
		"for (i in 1:3) {\n  Y[1, i] = 42\n}",
		"Y = X * 2\nfor (i in 1:3) {\n  Y[1, i] = 42\n}",
	} {
		if _, err := ctx.Execute(script, map[string]any{"X": x, "Y": y}, "Y"); err != nil {
			t.Fatal(err)
		}
		if !sameBits(cells(y), before) {
			t.Fatalf("the first run's output changed after %q", script)
		}
	}
}

// winsorizeControl does winsorize's per-column work without its update.
const winsorizeControl = `
m = ncol(X)
for (j in 1:m) {
  col = X[, j]
  lo = quantile(col, 0.02)
  hi = quantile(col, 0.98)
  clippedLow = max(col, lo)
  Y = min(clippedLow, hi)
}
`

// TestWinsorizeUpdatesInPlace: winsorize over a 6000x8 matrix allocates less
// than two copies of X beyond the same per-column work without its update
// (TotalAlloc deltas of warm prepared calls): its first Y[, j] copies X, which
// the caller still holds, and the seven after it write that copy in place.
func TestWinsorizeUpdatesInPlace(t *testing.T) {
	in := map[string]any{"X": systemds.RandMatrix(6000, 8, 1.0, 7)}
	alloc := func(script string) uint64 {
		ctx := systemds.NewContext(systemds.WithParallelism(1))
		p, err := ctx.Prepare(script, "Y")
		if err != nil {
			t.Fatal(err)
		}
		best := ^uint64(0)
		var before, after runtime.MemStats
		for i := 0; i < 5; i++ {
			runtime.GC()
			runtime.ReadMemStats(&before)
			if _, err := p.Execute(in); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	const copyOfX = 6000 * 8 * 8
	got, control := alloc("Y = winsorize(X, 0.02, 0.98)"), alloc(winsorizeControl)
	if got > control+2*copyOfX {
		t.Errorf("winsorize allocates %d bytes beyond its per-column work, %.1f copies of X; want < 2",
			got-control, float64(got-control)/copyOfX)
	}
}
