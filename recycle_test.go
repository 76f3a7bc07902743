package systemds_test

import (
	"fmt"
	"math"
	"sync"
	"testing"

	systemds "github.com/systemds/systemds-go"
)

// The tests of the engine's free list of dense arrays (DESIGN.md, "Recycled
// intermediates"): a recycled array is one nobody can read any more, so
// outputs, inputs and pass-throughs never come back to the list, and a result
// never depends on whether its engine ran before.

// scoreScript is the prepared scoring script of the bench row score.prepared.
const scoreScript = "Xs = (X - mu) / sd\nyhat = lmPredict(Xs, B)"

// scoreInputs is one batch of the scoring script: the rows of X vary with
// seed, the model does not.
func scoreInputs(seed int64) map[string]any {
	return map[string]any{
		"X":  systemds.RandMatrix(64, 100, 1.0, seed),
		"mu": systemds.RandMatrix(1, 100, 1.0, 2),
		"sd": systemds.RandMatrix(1, 100, 1.0, 3),
		"B":  systemds.RandMatrix(100, 1, 1.0, 4),
	}
}

// naiveScore is the scoring script in plain Go: Xs and yhat.
func naiveScore(in map[string]any) (xs, yhat []float64) {
	x, mu, sd, b := in["X"].(*systemds.Matrix), in["mu"].(*systemds.Matrix), in["sd"].(*systemds.Matrix), in["B"].(*systemds.Matrix)
	for r := 0; r < x.Rows(); r++ {
		var acc float64
		for c := 0; c < x.Cols(); c++ {
			v := (x.Get(r, c) - mu.Get(0, c)) / sd.Get(0, c)
			xs = append(xs, v)
			acc += v * b.Get(c, 0)
		}
		yhat = append(yhat, acc)
	}
	return xs, yhat
}

// cells returns the bits of a matrix, row-major.
func cells(m *systemds.Matrix) []uint64 {
	var out []uint64
	for r := 0; r < m.Rows(); r++ {
		for c := 0; c < m.Cols(); c++ {
			out = append(out, math.Float64bits(m.Get(r, c)))
		}
	}
	return out
}

func sameBits(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPreparedOutputsSurviveLaterCalls: the outputs of call 1 — the fused Xs
// and the yhat computed from it — keep their bits through 50 more calls on
// the same engine, whose intermediates have exactly their size.
func TestPreparedOutputsSurviveLaterCalls(t *testing.T) {
	ctx := systemds.NewContext(systemds.WithParallelism(1))
	p, err := ctx.Prepare(scoreScript, "Xs", "yhat")
	if err != nil {
		t.Fatal(err)
	}
	first, err := p.Execute(scoreInputs(10))
	if err != nil {
		t.Fatal(err)
	}
	held := map[string][]uint64{}
	for _, name := range []string{"Xs", "yhat"} {
		m, err := first.Matrix(name)
		if err != nil {
			t.Fatal(err)
		}
		held[name] = cells(m)
	}
	for call := 0; call < 50; call++ {
		if _, err := p.Execute(scoreInputs(int64(11 + call))); err != nil {
			t.Fatal(err)
		}
	}
	for name, bits := range held {
		m, _ := first.Matrix(name)
		if !sameBits(cells(m), bits) {
			t.Errorf("%s of call 1 changed after 50 more calls", name)
		}
	}
}

// TestCallerInputsAreNeverRecycled: the caller's input matrices are
// bit-identical after 100 calls. X has the size of every intermediate the
// script frees and was itself computed by the engine — the output of an
// earlier run, whose array came from the same free list.
func TestCallerInputsAreNeverRecycled(t *testing.T) {
	ctx := systemds.NewContext(systemds.WithParallelism(1))
	in := scoreInputs(20)
	made, err := ctx.Execute("Xin = (R - 0.5) * 6", map[string]any{"R": in["X"]}, "Xin")
	if err != nil {
		t.Fatal(err)
	}
	if in["X"], err = made.Matrix("Xin"); err != nil {
		t.Fatal(err)
	}
	p, err := ctx.Prepare(scoreScript, "yhat")
	if err != nil {
		t.Fatal(err)
	}
	before := map[string][]uint64{}
	for name, v := range in {
		before[name] = cells(v.(*systemds.Matrix))
	}
	for call := 0; call < 100; call++ {
		if _, err := p.Execute(in); err != nil {
			t.Fatal(err)
		}
	}
	for name, v := range in {
		if !sameBits(cells(v.(*systemds.Matrix)), before[name]) {
			t.Errorf("input %s changed after 100 calls", name)
		}
	}
}

// TestConcurrentPreparedCalls: eight goroutines call one prepared script on
// one engine — one free list — and every call matches the naive reference.
func TestConcurrentPreparedCalls(t *testing.T) {
	ctx := systemds.NewContext(systemds.WithParallelism(2))
	p, err := ctx.Prepare(scoreScript, "Xs", "yhat")
	if err != nil {
		t.Fatal(err)
	}
	const goroutines, calls = 8, 25
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for call := 0; call < calls; call++ {
				in := scoreInputs(int64(100 + g*calls + call))
				res, err := p.Execute(in)
				if err != nil {
					errs[g] = err
					return
				}
				xs, yhat := naiveScore(in)
				for name, want := range map[string][]float64{"Xs": xs, "yhat": yhat} {
					m, err := res.Matrix(name)
					if err != nil {
						errs[g] = err
						return
					}
					for i, w := range want {
						if got := m.Get(i/m.Cols(), i%m.Cols()); math.Abs(got-w) > 1e-9*math.Max(1, math.Abs(w)) {
							errs[g] = fmt.Errorf("goroutine %d call %d: %s[%d] = %v, want %v", g, call, name, i, got, w)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}
