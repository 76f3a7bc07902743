package systemds_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	systemds "github.com/systemds/systemds-go"
)

func TestPublicAPIQuickstart(t *testing.T) {
	ctx := systemds.NewContext(systemds.WithParallelism(2))
	X, y := systemds.SyntheticRegression(500, 8, 1.0, 11)
	res, err := ctx.Execute(`
B = lm(X, y, reg=0.0001)
yhat = lmPredict(X, B)
trainR2 = r2(yhat, y)
`, map[string]any{"X": X, "y": y}, "B", "trainR2")
	if err != nil {
		t.Fatal(err)
	}
	B, err := res.Matrix("B")
	if err != nil {
		t.Fatal(err)
	}
	if B.Rows() != 8 || B.Cols() != 1 {
		t.Errorf("B dims %dx%d", B.Rows(), B.Cols())
	}
	r2, err := res.Float("trainR2")
	if err != nil {
		t.Fatal(err)
	}
	if r2 < 0.99 {
		t.Errorf("training R2 = %v", r2)
	}
}

func TestPublicAPIResultsAccessors(t *testing.T) {
	ctx := systemds.NewContext()
	res, err := ctx.Execute(`
m = matrix(1, 2, 2)
f = 3.5
b = TRUE
s = "hello"
`, nil, "m", "f", "b", "s")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.Matrix("m"); err != nil {
		t.Error(err)
	}
	if v, err := res.Float("f"); err != nil || v != 3.5 {
		t.Errorf("Float = %v, %v", v, err)
	}
	if v, err := res.Bool("b"); err != nil || !v {
		t.Errorf("Bool = %v, %v", v, err)
	}
	if v, err := res.String("s"); err != nil || v != "hello" {
		t.Errorf("String = %v, %v", v, err)
	}
	// type mismatches
	if _, err := res.Matrix("f"); err == nil {
		t.Error("expected type error")
	}
	if _, err := res.Float("m"); err == nil {
		t.Error("expected type error")
	}
	if _, err := res.String("f"); err == nil {
		t.Error("expected type error")
	}
	if _, err := res.Float("missing"); err == nil {
		t.Error("expected missing output error")
	}
}

func TestPublicAPIMatrixHelpers(t *testing.T) {
	m := systemds.NewMatrix(2, 3, []float64{1, 2, 3, 4, 5, 6})
	if m.Get(1, 2) != 6 {
		t.Errorf("NewMatrix data wrong")
	}
	z := systemds.NewMatrix(2, 2, nil)
	if z.NNZ() != 0 {
		t.Error("zero matrix not empty")
	}
	fr := systemds.MatrixFromRows([][]float64{{1, 2}, {3, 4}})
	if fr.Get(1, 0) != 3 {
		t.Error("MatrixFromRows wrong")
	}
	r := systemds.RandMatrix(10, 5, 0.5, 3)
	if r.Rows() != 10 || r.Cols() != 5 {
		t.Error("RandMatrix dims wrong")
	}
}

func TestPublicAPIFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.csv")
	m := systemds.MatrixFromRows([][]float64{{1.5, 2}, {3, 4}})
	if err := systemds.WriteMatrixCSV(path, m); err != nil {
		t.Fatal(err)
	}
	back, err := systemds.ReadMatrixCSV(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equals(m, 0) {
		t.Error("CSV round trip changed matrix")
	}
	// frame reading
	fpath := filepath.Join(dir, "f.csv")
	if err := os.WriteFile(fpath, []byte("name,score\nanna,1.5\nbert,2.0\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := systemds.ReadFrameCSV(fpath, true)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRows() != 2 || f.ColumnNames()[0] != "name" {
		t.Errorf("frame = %v", f)
	}
}

func TestPublicAPIExecuteFile(t *testing.T) {
	dir := t.TempDir()
	script := filepath.Join(dir, "script.dml")
	if err := os.WriteFile(script, []byte("y = sum(X) * 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx := systemds.NewContext()
	res, err := ctx.ExecuteFile(script, map[string]any{"X": systemds.MatrixFromRows([][]float64{{1, 2}, {3, 4}})}, "y")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Float("y"); v != 20 {
		t.Errorf("y = %v", v)
	}
	if _, err := ctx.ExecuteFile(filepath.Join(dir, "missing.dml"), nil); err == nil {
		t.Error("expected missing file error")
	}
}

func TestPublicAPIReuseStats(t *testing.T) {
	ctx := systemds.NewContext(systemds.WithReuse(true), systemds.WithParallelism(2))
	X, y := systemds.SyntheticRegression(500, 10, 1.0, 21)
	script := `
lambdas = seq(1, 8, 1) / 100
[B, losses] = gridSearchLM(X, y, lambdas)
`
	if _, err := ctx.Execute(script, map[string]any{"X": X, "y": y}, "B"); err != nil {
		t.Fatal(err)
	}
	stats := ctx.CacheStats()
	if stats.Hits == 0 {
		t.Errorf("expected cache hits, got %+v", stats)
	}
	ctx.ClearCache()
	if ctx.CacheStats().BytesCached != 0 {
		t.Error("ClearCache did not drop entries")
	}
}

// TestReuseLoopCostsLikeReuseOff is the acceptance test for O(1) lineage
// probes: a gradient-descent loop whose carried variable is consumed twice per
// trip (plus a metadata read), 200 trips on 500x8. Every trip adds a level to
// the lineage DAG, so any per-probe walk of the input tree doubles per trip —
// before hashes were combined from child hashes 22 trips took 98 s. With
// reuse on the run must cost at most twice the reuse-off run (best of three
// each, plus a fixed allowance for a loaded runner) and produce the same bits.
func TestReuseLoopCostsLikeReuseOff(t *testing.T) {
	const (
		script = `
w = matrix(0, ncol(X), 1)
for (i in 1:200) {
  q = X %*% w
  g = t(X) %*% (q - y)
  w = w - 0.0001 * g
  n = ncol(w)
}
`
		allowance = 250 * time.Millisecond
		deadline  = 60 * time.Second
	)
	X, y := systemds.SyntheticRegression(500, 8, 1.0, 3)
	run := func(reuse bool) (*systemds.Matrix, time.Duration, error) {
		var w *systemds.Matrix
		best := time.Duration(math.MaxInt64)
		for rep := 0; rep < 3; rep++ {
			ctx := systemds.NewContext(systemds.WithReuse(reuse), systemds.WithParallelism(1))
			start := time.Now()
			res, err := ctx.Execute(script, map[string]any{"X": X, "y": y}, "w", "n")
			if err != nil {
				return nil, 0, err
			}
			if d := time.Since(start); d < best {
				best = d
			}
			if n, _ := res.Float("n"); n != 1 {
				return nil, 0, fmt.Errorf("n = %v, want 1", n)
			}
			if w, err = res.Matrix("w"); err != nil {
				return nil, 0, err
			}
		}
		return w, best, nil
	}
	done := make(chan error, 1)
	go func() {
		wOff, off, err := run(false)
		if err != nil {
			done <- err
			return
		}
		wOn, on, err := run(true)
		switch {
		case err != nil:
			done <- err
		case !wOn.Equals(wOff, 0):
			done <- fmt.Errorf("w differs between reuse on and reuse off")
		case on > 2*off+allowance:
			done <- fmt.Errorf("reuse on took %v, reuse off %v: more than 2x + %v", on, off, allowance)
		default:
			t.Logf("200 trips: reuse off %v, reuse on %v", off, on)
			done <- nil
		}
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(deadline):
		t.Fatalf("the loop did not finish in %v: a lineage probe walks the input tree", deadline)
	}
}

func TestPublicAPIRegisterBuiltin(t *testing.T) {
	ctx := systemds.NewContext()
	ctx.RegisterBuiltin("doubleIt", `
doubleIt = function(Matrix[Double] X) return (Matrix[Double] Y) {
  Y = X * 2
}
`)
	found := false
	for _, n := range ctx.Builtins() {
		if n == "doubleIt" {
			found = true
		}
	}
	if !found {
		t.Fatal("registered builtin not listed")
	}
	res, err := ctx.Execute(`Y = doubleIt(X)`,
		map[string]any{"X": systemds.MatrixFromRows([][]float64{{1, 2}})}, "Y")
	if err != nil {
		t.Fatal(err)
	}
	Y, _ := res.Matrix("Y")
	if Y.Get(0, 1) != 4 {
		t.Errorf("doubleIt = %v", Y)
	}
}

func TestPublicAPIPreparedScript(t *testing.T) {
	ctx := systemds.NewContext()
	p, err := ctx.Prepare(`score = sum(X %*% B)`, "score")
	if err != nil {
		t.Fatal(err)
	}
	B := systemds.MatrixFromRows([][]float64{{1}, {2}})
	for i := 1; i <= 3; i++ {
		X := systemds.MatrixFromRows([][]float64{{float64(i), 1}})
		res, err := p.Execute(map[string]any{"X": X, "B": B})
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := res.Float("score"); v != float64(i)+2 {
			t.Errorf("run %d: score = %v", i, v)
		}
	}
}

func TestPublicAPIPrintRedirect(t *testing.T) {
	ctx := systemds.NewContext()
	var buf bytes.Buffer
	ctx.SetOutput(&buf)
	if _, err := ctx.Execute(`print("hello from dml")`, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "hello from dml") {
		t.Errorf("output = %q", buf.String())
	}
}

func TestPublicAPIFederatedEndToEnd(t *testing.T) {
	x1, y1 := systemds.SyntheticRegression(200, 6, 1.0, 31)
	x2, y2 := systemds.SyntheticRegression(200, 6, 1.0, 32)
	s1, err := systemds.StartFederatedWorker("127.0.0.1:0", map[string]*systemds.Matrix{"X": x1, "y": y1})
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Shutdown()
	s2, err := systemds.StartFederatedWorker("127.0.0.1:0", map[string]*systemds.Matrix{"X": x2, "y": y2})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Shutdown()
	Xfed, err := systemds.Federated(400, 6, []systemds.FederatedRange{
		{RowStart: 0, RowEnd: 200, ColStart: 0, ColEnd: 6, Address: s1.Addr, VarName: "X"},
		{RowStart: 200, RowEnd: 400, ColStart: 0, ColEnd: 6, Address: s2.Addr, VarName: "X"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer Xfed.Close()
	yfed, err := systemds.Federated(400, 1, []systemds.FederatedRange{
		{RowStart: 0, RowEnd: 200, ColStart: 0, ColEnd: 1, Address: s1.Addr, VarName: "y"},
		{RowStart: 200, RowEnd: 400, ColStart: 0, ColEnd: 1, Address: s2.Addr, VarName: "y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer yfed.Close()
	ctx := systemds.NewContext()
	res, err := ctx.Execute(`
A = t(X) %*% X + diag(matrix(0.001, ncol(X), 1))
b = t(X) %*% y
B = solve(A, b)
n = nrow(X)
`, map[string]any{"X": Xfed, "y": yfed}, "B", "n")
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := res.Float("n"); n != 400 {
		t.Errorf("federated nrow = %v", n)
	}
	B, _ := res.Matrix("B")
	if B.Rows() != 6 {
		t.Errorf("federated model dims %dx%d", B.Rows(), B.Cols())
	}
}

func TestPublicAPIDistributedBackendOption(t *testing.T) {
	// force tiny operator budget so matrix multiplications compile to the
	// blocked distributed backend, and verify results stay correct
	ctx := systemds.NewContext(
		systemds.WithDistributedBackend(true),
		systemds.WithOperatorMemBudget(1024),
	)
	X, y := systemds.SyntheticRegression(300, 10, 1.0, 41)
	res, err := ctx.Execute(`
B = lmDS(X, y, 0.0001)
yhat = lmPredict(X, B)
trainR2 = r2(yhat, y)
`, map[string]any{"X": X, "y": y}, "trainR2")
	if err != nil {
		t.Fatal(err)
	}
	if r2, _ := res.Float("trainR2"); r2 < 0.99 {
		t.Errorf("distributed-backend R2 = %v", r2)
	}
}

func TestPublicAPIBufferPoolSpill(t *testing.T) {
	ctx := systemds.NewContext(systemds.WithBufferPool(256 * 1024)) // 256 KB budget
	res, err := ctx.Execute(`
A = rand(rows=400, cols=400, seed=1)
B = rand(rows=400, cols=400, seed=2)
C = A %*% B
D = t(C) %*% C
s = sum(D)
`, nil, "s")
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := res.Float("s"); v <= 0 {
		t.Errorf("sum = %v", v)
	}
}

func TestPublicAPIErrorsSurface(t *testing.T) {
	ctx := systemds.NewContext()
	if _, err := ctx.Execute(`x = `, nil); err == nil {
		t.Error("expected parse error")
	}
	if _, err := ctx.Execute(`x = notAFunction(1)`, nil); err == nil {
		t.Error("expected validation error")
	}
	if _, err := ctx.Execute(`x = solve(matrix(1, 2, 3), matrix(1, 2, 1))`, nil, "x"); err == nil {
		t.Error("expected runtime error for non-square solve")
	}
}

func TestPublicAPIExplainPlan(t *testing.T) {
	ctx := systemds.NewContext(
		systemds.WithDistributedBackend(true),
		systemds.WithOperatorMemBudget(16_000),
	)
	A := systemds.RandMatrix(64, 256, 1.0, 71)
	B := systemds.RandMatrix(256, 32, 1.0, 72)
	explain, err := ctx.ExplainPlan(`C = A %*% B`, map[string]any{"A": A, "B": B})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(explain, "MatMult") || !strings.Contains(explain, "plan=DIST:") {
		t.Errorf("ExplainPlan output misses the annotated matmult plan:\n%s", explain)
	}
	// CP-only sessions plan everything locally
	cp := systemds.NewContext()
	explain, err = cp.ExplainPlan(`C = A %*% B`, map[string]any{"A": A, "B": B})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(explain, "DIST") {
		t.Errorf("CP session must not plan distributed operators:\n%s", explain)
	}
}
