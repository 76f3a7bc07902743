package systemds_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	systemds "github.com/systemds/systemds-go"
)

// The tests of function-level reuse (DESIGN.md, "Function-level reuse"): a
// call the compiler found pure is one lineage item per output, probed all or
// none before its body runs; a call that is not pure runs its body every
// time.

// impureDefs are functions that are not pure, each for another reason, and
// pureLoop a pure one that is not inlined (its body is a loop).
const impureDefs = `
noisy = function(Matrix[Double] X) return (Matrix[Double] Y) {
  Y = X * 2
  print("noisy ran")
}
draw = function(Integer n) return (Matrix[Double] R) {
  for (i in 1:1) {
    R = rand(rows=n, cols=n)
  }
}
outer = function(Matrix[Double] X) return (Matrix[Double] Y) {
  for (i in 1:1) {
    Y = noisy(X)
  }
}
`

const pureLoop = `
scaled = function(Matrix[Double] X) return (Matrix[Double] Y, Double s) {
  Y = X
  for (i in 1:2) {
    Y = (Y - 0.5) * 6
  }
  s = sum(Y) + 1
}
`

// TestImpureCallsRunTheirBody: a reachable print, an unseeded rand and a
// nested impure callee each keep the body running on a repeated call with
// reuse on: the print repeats, and the draws differ as they do with reuse
// off.
func TestImpureCallsRunTheirBody(t *testing.T) {
	x := systemds.RandMatrix(4, 3, 1, 5)
	for _, tc := range []struct{ call, prints string }{
		{"A = noisy(X)\nB = noisy(X)", "noisy ran\nnoisy ran\n"},
		{"A = outer(X)\nB = outer(X)", "noisy ran\nnoisy ran\n"},
	} {
		var out bytes.Buffer
		ctx := systemds.NewContext(systemds.WithReuse(true))
		ctx.SetOutput(&out)
		if _, err := ctx.Execute(impureDefs+tc.call, map[string]any{"X": x}, "A", "B"); err != nil {
			t.Fatal(err)
		}
		if out.String() != tc.prints {
			t.Errorf("%q printed %q, want %q", tc.call, out.String(), tc.prints)
		}
	}
	// an unseeded generator draws a new seed on every execution, so two
	// calls in one run and two runs of the script draw afresh; a call
	// answered from the cache would hand the later call the earlier draws
	for _, reuse := range []bool{false, true} {
		ctx := systemds.NewContext(systemds.WithReuse(reuse))
		var draws [3][]uint64
		for run := range 2 {
			res, err := ctx.Execute(impureDefs+"A = draw(3)\nB = draw(3)", nil, "A", "B")
			if err != nil {
				t.Fatal(err)
			}
			a, _ := res.Matrix("A")
			draws[run] = cells(a)
			if run == 0 {
				b, _ := res.Matrix("B")
				draws[2] = cells(b)
			}
		}
		if sameBits(draws[0], draws[2]) {
			t.Errorf("reuse %v: two calls of an unseeded rand in one run drew the same matrix", reuse)
		}
		if sameBits(draws[0], draws[1]) {
			t.Errorf("reuse %v: two runs of an unseeded rand drew the same matrix", reuse)
		}
	}
}

// TestSeededRandKeepsItsBits: a rand with a seed draws the matrix its seed
// names however often it runs — at top level, in a loop and in a function,
// with reuse on or off — and a negative seed still stands for seed 42.
func TestSeededRandKeepsItsBits(t *testing.T) {
	want := cells(systemds.RandMatrix(3, 4, 1, 7))
	neg := cells(systemds.RandMatrix(3, 4, 1, 42))
	for _, reuse := range []bool{false, true} {
		ctx := systemds.NewContext(systemds.WithReuse(reuse))
		res, err := ctx.Execute(`
seeded = function(Integer s) return (Matrix[Double] R) {
  for (i in 1:1) {
    R = rand(rows=3, cols=4, seed=s)
  }
}
A = rand(rows=3, cols=4, seed=7)
for (i in 1:2) {
  B = rand(rows=3, cols=4, seed=7)
}
C = seeded(7)
D = seeded(7)
N = rand(rows=3, cols=4, seed=-1)
`, nil, "A", "B", "C", "D", "N")
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"A", "B", "C", "D"} {
			m, _ := res.Matrix(name)
			if !sameBits(cells(m), want) {
				t.Errorf("reuse %v: %s = rand(seed=7) drew other bits", reuse, name)
			}
		}
		if n, _ := res.Matrix("N"); !sameBits(cells(n), neg) {
			t.Errorf("reuse %v: rand(seed=-1) is not seed 42", reuse)
		}
	}
}

// TestVerboseGridSearchRunsItsBody: gridSearchLM is pure under its default
// verbose = FALSE, so a second identical call is two hits and computes
// nothing; verbose = TRUE makes it impure, and both calls print.
func TestVerboseGridSearchRunsItsBody(t *testing.T) {
	x, y := systemds.SyntheticRegression(60, 4, 1, 3)
	lambdas := systemds.NewMatrix(2, 1, []float64{0.001, 0.1})
	in := map[string]any{"X": x, "y": y, "lambdas": lambdas}
	for _, tc := range []struct {
		args     string
		prints   int
		wantHits bool
	}{
		{"X, y, lambdas", 0, true},
		{"X, y, lambdas, verbose=TRUE", 4, false},
	} {
		var out bytes.Buffer
		ctx := systemds.NewContext(systemds.WithReuse(true))
		ctx.SetOutput(&out)
		script := fmt.Sprintf("[B, L] = gridSearchLM(%s)", tc.args)
		first, err := ctx.Execute(script, in, "B", "L")
		if err != nil {
			t.Fatal(err)
		}
		before := ctx.CacheStats()
		second, err := ctx.Execute(script, in, "B", "L")
		if err != nil {
			t.Fatal(err)
		}
		after := ctx.CacheStats()
		if n := strings.Count(out.String(), "gridSearchLM: lambda"); n != tc.prints {
			t.Errorf("%s: printed %d lines, want %d", tc.args, n, tc.prints)
		}
		hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
		if tc.wantHits && (hits != 2 || misses != 0) {
			t.Errorf("%s: second call made %d hits and %d misses, want the 2 outputs' hits alone", tc.args, hits, misses)
		}
		if !tc.wantHits && hits == 2 && misses == 0 {
			t.Errorf("%s: second call was answered as a whole", tc.args)
		}
		for _, name := range []string{"B", "L"} {
			a, _ := first.Matrix(name)
			b, _ := second.Matrix(name)
			if !sameBits(cells(a), cells(b)) {
				t.Errorf("%s: %s differs between the calls", tc.args, name)
			}
		}
	}
}

// TestReboundInputMisses: the same call on other data in one session is a
// miss and computes the other result.
func TestReboundInputMisses(t *testing.T) {
	ctx := systemds.NewContext(systemds.WithReuse(true))
	run := func(seed int64) []uint64 {
		res, err := ctx.Execute(pureLoop+"[Y, s] = scaled(X)", map[string]any{"X": systemds.RandMatrix(5, 4, 1, seed)}, "Y")
		if err != nil {
			t.Fatal(err)
		}
		y, _ := res.Matrix("Y")
		return cells(y)
	}
	first := run(1)
	before := ctx.CacheStats()
	second := run(2)
	after := ctx.CacheStats()
	if sameBits(first, second) {
		t.Error("X rebound to other data gave the cached result")
	}
	if after.Misses-before.Misses < 2 {
		t.Errorf("the call on other data missed %d times, want its 2 outputs", after.Misses-before.Misses)
	}
}

// TestOneOutputMissingFromTheStoreRerunsTheBody: with one output's file gone
// from the persistent store, a new session finds the other output but not
// that one, so the call misses as a whole, runs its body and puts the
// missing output again — with the same bits.
func TestOneOutputMissingFromTheStoreRerunsTheBody(t *testing.T) {
	dir := t.TempDir()
	x := systemds.RandMatrix(6, 3, 1, 9)
	run := func() (systemds.Results, systemds.CacheStats) {
		ctx := systemds.NewContext(systemds.WithPersistentLineage(dir), systemds.WithTempDir(t.TempDir()))
		res, err := ctx.Execute(pureLoop+"[Y, s] = scaled(X)", map[string]any{"X": x}, "Y", "s")
		if err != nil {
			t.Fatal(err)
		}
		return res, ctx.CacheStats()
	}
	first, _ := run()
	s, err := first.Float("s")
	if err != nil {
		t.Fatal(err)
	}
	// s = sum(Y) + 1 is scalar arithmetic, never cached by itself: the one
	// scalar payload with its bits is the call's output s
	var bits [8]byte
	binary.LittleEndian.PutUint64(bits[:], math.Float64bits(s))
	files, _ := filepath.Glob(filepath.Join(dir, "lin_*.bin"))
	removed := 0
	for _, f := range files {
		if data, _ := os.ReadFile(f); bytes.Contains(data, bits[:]) {
			if err := os.Remove(f); err != nil {
				t.Fatal(err)
			}
			removed++
		}
	}
	if removed != 1 {
		t.Fatalf("found %d store files holding s, want 1", removed)
	}
	warm, stats := run()
	if stats.Misses < 2 || stats.StorePuts == 0 {
		t.Errorf("call with an output missing: %+v, want its 2 outputs missed and s put again", stats)
	}
	a, _ := first.Matrix("Y")
	b, _ := warm.Matrix("Y")
	if s2, _ := warm.Float("s"); !sameBits(cells(a), cells(b)) || math.Float64bits(s2) != math.Float64bits(s) {
		t.Error("the rerun changed the outputs' bits")
	}
	if _, stats = run(); stats.Hits != 2 || stats.Misses != 0 {
		t.Errorf("third session: %+v, want the call's 2 outputs as hits and nothing else probed", stats)
	}
}

// scaledY is scaled(X)'s Y computed with reuse off.
func scaledY(t *testing.T, in map[string]any) []uint64 {
	t.Helper()
	res, err := systemds.NewContext().Execute(pureLoop+"[Y, s] = scaled(X)", in, "Y")
	if err != nil {
		t.Fatal(err)
	}
	y, _ := res.Matrix("Y")
	return cells(y)
}

// TestCallerUpdateLeavesTheCachedBitsAlone: a caller that left-indexes a hit
// output writes a copy; the entry keeps its bits for the next hit. The first
// run does not return Y, so nothing but the cache entry keeps it from being
// written in place.
func TestCallerUpdateLeavesTheCachedBitsAlone(t *testing.T) {
	in := map[string]any{"X": systemds.RandMatrix(5, 4, 1, 3)}
	want := scaledY(t, in)
	ctx := systemds.NewContext(systemds.WithReuse(true))
	if _, err := ctx.Execute(pureLoop+"[Y, s] = scaled(X)", in, "s"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		res, err := ctx.Execute(pureLoop+"[Y, s] = scaled(X)\nY[1, 1] = 0", in, "Y")
		if err != nil {
			t.Fatal(err)
		}
		if y, _ := res.Matrix("Y"); y.Get(0, 0) != 0 {
			t.Fatalf("the update did not reach the caller's Y")
		}
	}
	res, err := ctx.Execute(pureLoop+"[Y, s] = scaled(X)", in, "Y")
	if err != nil {
		t.Fatal(err)
	}
	if y, _ := res.Matrix("Y"); !sameBits(cells(y), want) {
		t.Error("the cached Y changed under the caller's update")
	}
}

// TestHitOutputsAreNeverRecycled: a hit output the run drops again goes on
// being held by its cache entry, so its array never reaches the free list
// that 50 later runs draw same-sized intermediates from. No run returns Y
// before the last, so nothing but the entry keeps it from the free list.
func TestHitOutputsAreNeverRecycled(t *testing.T) {
	in := map[string]any{"X": systemds.RandMatrix(8, 8, 1, 4)}
	want := scaledY(t, in)
	ctx := systemds.NewContext(systemds.WithReuse(true), systemds.WithParallelism(1))
	for i := 0; i < 50; i++ {
		if _, err := ctx.Execute(pureLoop+"[Y, s] = scaled(X)\nW = (Y + 1) * 2\nV = (W - 3) / 5", in, "V"); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ctx.Execute(pureLoop+"[Y, s] = scaled(X)", in, "Y")
	if err != nil {
		t.Fatal(err)
	}
	if y, _ := res.Matrix("Y"); !sameBits(cells(y), want) {
		t.Error("a hit output's bits changed over 50 runs")
	}
}

// TestFunctionReuseIsBitwiseEqual: gridSearchLM's outputs with reuse on —
// the miss and the hit — are bitwise equal to reuse off at T = 1, 2, 3, and
// a consumer of a hit output hits too: the output's lineage is the same item
// on both paths.
func TestFunctionReuseIsBitwiseEqual(t *testing.T) {
	x, y := systemds.SyntheticRegression(200, 6, 1, 8)
	in := map[string]any{"X": x, "y": y, "lambdas": systemds.NewMatrix(3, 1, []float64{0.0001, 0.01, 1})}
	const script = "[B, L] = gridSearchLM(X, y, lambdas)\nG = t(B) %*% B"
	for _, threads := range []int{1, 2, 3} {
		off, err := systemds.NewContext(systemds.WithParallelism(threads)).Execute(script, in, "B", "L", "G")
		if err != nil {
			t.Fatal(err)
		}
		ctx := systemds.NewContext(systemds.WithParallelism(threads), systemds.WithReuse(true))
		for call := 0; call < 2; call++ {
			before := ctx.CacheStats()
			on, err := ctx.Execute(script, in, "B", "L", "G")
			if err != nil {
				t.Fatal(err)
			}
			for _, name := range []string{"B", "L", "G"} {
				a, _ := on.Matrix(name)
				b, _ := off.Matrix(name)
				if !sameBits(cells(a), cells(b)) {
					t.Errorf("T=%d, call %d: %s differs from reuse off", threads, call+1, name)
				}
			}
			if after := ctx.CacheStats(); call == 1 && (after.Misses != before.Misses || after.Hits-before.Hits != 3) {
				t.Errorf("T=%d: second run made %d hits and %d misses, want the call's 2 and G's 1 hits", threads,
					after.Hits-before.Hits, after.Misses-before.Misses)
			}
		}
	}
}

// TestParforWorkersShareOnePureCall: parfor workers that call one pure
// function at the same time — all missing, all putting — leave what the
// sequential loop leaves, at T = 1, 2, 3.
func TestParforWorkersShareOnePureCall(t *testing.T) {
	in := map[string]any{"X": systemds.RandMatrix(40, 6, 1, 12)}
	const body = `
R = matrix(0, 1, 6)
%s (i in 1:6) {
  [Y, s] = scaled(X)
  R[1, i] = s + sum(Y[, i])
}
`
	var want []uint64
	for _, threads := range []int{1, 2, 3} {
		for _, loop := range []string{"for", "parfor"} {
			ctx := systemds.NewContext(systemds.WithReuse(true), systemds.WithParallelism(threads))
			res, err := ctx.Execute(pureLoop+fmt.Sprintf(body, loop), in, "R")
			if err != nil {
				t.Fatal(err)
			}
			r, _ := res.Matrix("R")
			if want == nil {
				want = cells(r)
			} else if !sameBits(cells(r), want) {
				t.Errorf("T=%d %s: R differs", threads, loop)
			}
		}
	}
}
