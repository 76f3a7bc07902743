package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
)

func newTestEngine() *Engine {
	cfg := runtime.DefaultConfig()
	cfg.Parallelism = 4
	return NewEngine(cfg)
}

func execScript(t *testing.T, e *Engine, script string, inputs map[string]any, outputs []string) map[string]any {
	t.Helper()
	res, _, err := e.Execute(script, inputs, outputs)
	if err != nil {
		t.Fatalf("Execute failed: %v\nscript:\n%s", err, script)
	}
	return res
}

func asMatrix(t *testing.T, v any) *matrix.MatrixBlock {
	t.Helper()
	m, ok := v.(*matrix.MatrixBlock)
	if !ok {
		t.Fatalf("expected matrix, got %T", v)
	}
	return m
}

func TestScalarArithmetic(t *testing.T) {
	e := newTestEngine()
	res := execScript(t, e, `
a = 2 + 3 * 4
b = (2 + 3) * 4
c = 2 ^ 3 ^ 2
d = 10 %% 3
e = 10 %/% 3
f = a > b
`, nil, []string{"a", "b", "c", "d", "e", "f"})
	if res["a"].(float64) != 14 || res["b"].(float64) != 20 {
		t.Errorf("a=%v b=%v", res["a"], res["b"])
	}
	if res["c"].(float64) != 512 {
		t.Errorf("c=%v", res["c"])
	}
	if res["d"].(float64) != 1 || res["e"].(float64) != 3 {
		t.Errorf("d=%v e=%v", res["d"], res["e"])
	}
	if res["f"].(bool) != false {
		t.Errorf("f=%v", res["f"])
	}
}

func TestMatrixOperations(t *testing.T) {
	e := newTestEngine()
	x := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	res := execScript(t, e, `
s = sum(X)
m = mean(X)
tX = t(X)
P = X %*% tX
cs = colSums(X)
r = nrow(X)
c = ncol(X)
e = X * 2 + 1
`, map[string]any{"X": x}, []string{"s", "m", "tX", "P", "cs", "r", "c", "e"})
	if res["s"].(float64) != 10 || res["m"].(float64) != 2.5 {
		t.Errorf("s=%v m=%v", res["s"], res["m"])
	}
	tx := asMatrix(t, res["tX"])
	if !tx.Equals(matrix.Transpose(x), 0) {
		t.Error("transpose wrong")
	}
	p := asMatrix(t, res["P"])
	want, _ := matrix.Multiply(x, matrix.Transpose(x), 1)
	if !p.Equals(want, 1e-12) {
		t.Error("X %*% t(X) wrong")
	}
	if res["r"].(float64) != 2 || res["c"].(float64) != 2 {
		t.Errorf("dims %v %v", res["r"], res["c"])
	}
	ee := asMatrix(t, res["e"])
	if ee.Get(1, 1) != 9 {
		t.Errorf("elementwise = %v", ee.Get(1, 1))
	}
}

func TestControlFlow(t *testing.T) {
	e := newTestEngine()
	res := execScript(t, e, `
x = 0
for (i in 1:10) {
  x = x + i
}
y = 0
i = 0
while (i < 5) {
  i = i + 1
  y = y + i * i
}
if (x > 50) {
  z = "big"
} else {
  z = "small"
}
`, nil, []string{"x", "y", "z"})
	if res["x"].(float64) != 55 {
		t.Errorf("x=%v", res["x"])
	}
	if res["y"].(float64) != 55 {
		t.Errorf("y=%v", res["y"])
	}
	if res["z"].(string) != "big" {
		t.Errorf("z=%v", res["z"])
	}
}

func TestIndexingAndLeftIndexing(t *testing.T) {
	e := newTestEngine()
	x := matrix.FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	res := execScript(t, e, `
a = X[1:2, 2:3]
b = X[, 1]
c = X[3, ]
v = as.scalar(X[2, 2])
Y = X
Y[1, 1] = 100
Y[, 3] = matrix(0, 3, 1)
`, map[string]any{"X": x}, []string{"a", "b", "c", "v", "Y"})
	a := asMatrix(t, res["a"])
	if !a.Equals(matrix.FromRows([][]float64{{2, 3}, {5, 6}}), 0) {
		t.Errorf("a = %v", a)
	}
	b := asMatrix(t, res["b"])
	if b.Rows() != 3 || b.Get(2, 0) != 7 {
		t.Errorf("b = %v", b)
	}
	c := asMatrix(t, res["c"])
	if c.Cols() != 3 || c.Get(0, 1) != 8 {
		t.Errorf("c = %v", c)
	}
	if res["v"].(float64) != 5 {
		t.Errorf("v = %v", res["v"])
	}
	y := asMatrix(t, res["Y"])
	if y.Get(0, 0) != 100 || y.Get(1, 2) != 0 || y.Get(2, 1) != 8 {
		t.Errorf("Y = %v", y)
	}
	// X unchanged (immutability)
	if x.Get(0, 0) != 1 {
		t.Error("input mutated")
	}
}

func TestUserDefinedFunctions(t *testing.T) {
	e := newTestEngine()
	res := execScript(t, e, `
square = function(Double x) return (Double y) {
  y = x * x
}
addmul = function(Double a, Double b, Double f = 2) return (Double s, Double p) {
  s = a + b
  p = a * b * f
}
q = square(7)
[s, p] = addmul(3, 4)
[s2, p2] = addmul(3, 4, f=10)
`, nil, []string{"q", "s", "p", "s2", "p2"})
	if res["q"].(float64) != 49 {
		t.Errorf("q=%v", res["q"])
	}
	if res["s"].(float64) != 7 || res["p"].(float64) != 24 {
		t.Errorf("s=%v p=%v", res["s"], res["p"])
	}
	if res["p2"].(float64) != 120 {
		t.Errorf("p2=%v", res["p2"])
	}
}

func TestBuiltinLmDSRecoversWeights(t *testing.T) {
	e := newTestEngine()
	x, y := matrix.SyntheticRegression(300, 10, 1.0, 3)
	res := execScript(t, e, `
B = lmDS(X, y, 0.0000001)
yhat = lmPredict(X, B)
err = mse(yhat, y)
`, map[string]any{"X": x, "y": y}, []string{"B", "err"})
	if res["err"].(float64) > 0.01 {
		t.Errorf("mse = %v, want near zero", res["err"])
	}
	b := asMatrix(t, res["B"])
	if b.Rows() != 10 || b.Cols() != 1 {
		t.Errorf("B dims %dx%d", b.Rows(), b.Cols())
	}
}

func TestBuiltinLmCGMatchesLmDS(t *testing.T) {
	e := newTestEngine()
	x, y := matrix.SyntheticRegression(200, 8, 1.0, 5)
	res := execScript(t, e, `
B1 = lmDS(X, y, 0.001)
B2 = lmCG(X, y, 0.001)
d = max(abs(B1 - B2))
`, map[string]any{"X": x, "y": y}, []string{"d"})
	if res["d"].(float64) > 1e-4 {
		t.Errorf("lmCG differs from lmDS by %v", res["d"])
	}
}

func TestBuiltinLmDispatch(t *testing.T) {
	e := newTestEngine()
	x, y := matrix.SyntheticRegression(100, 5, 1.0, 7)
	res := execScript(t, e, `
B = lm(X, y, reg=0.0001, verbose=FALSE)
`, map[string]any{"X": x, "y": y}, []string{"B"})
	if asMatrix(t, res["B"]).Rows() != 5 {
		t.Error("lm dispatch produced wrong dims")
	}
}

func TestGridSearchLMWorkload(t *testing.T) {
	e := newTestEngine()
	x, y := matrix.SyntheticRegression(200, 6, 1.0, 11)
	lambdas := matrix.FromRows([][]float64{{0.0001}, {0.01}, {1}, {100}})
	res := execScript(t, e, `
[B, losses] = gridSearchLM(X, y, lambdas)
`, map[string]any{"X": x, "y": y, "lambdas": lambdas}, []string{"B", "losses"})
	b := asMatrix(t, res["B"])
	losses := asMatrix(t, res["losses"])
	if b.Cols() != 4 || b.Rows() != 6 {
		t.Errorf("B dims %dx%d", b.Rows(), b.Cols())
	}
	if losses.Rows() != 4 {
		t.Errorf("losses dims %dx%d", losses.Rows(), losses.Cols())
	}
	// stronger regularization should not decrease the training loss
	if losses.Get(0, 0) > losses.Get(3, 0)+1e-9 {
		t.Errorf("losses not monotone: %v vs %v", losses.Get(0, 0), losses.Get(3, 0))
	}
}

func TestReuseAcrossModels(t *testing.T) {
	cfg := runtime.DefaultConfig()
	cfg.Parallelism = 4
	cfg.ReuseEnabled = true
	e := NewEngine(cfg)
	x, y := matrix.SyntheticRegression(400, 20, 1.0, 13)
	lambdas := matrix.FromRows([][]float64{{0.001}, {0.01}, {0.1}, {1}, {10}})
	script := `
[B, losses] = gridSearchLM(X, y, lambdas)
`
	res, stats, err := e.Execute(script, map[string]any{"X": x, "y": y, "lambdas": lambdas}, []string{"B"})
	if err != nil {
		t.Fatal(err)
	}
	if asMatrix(t, res["B"]).Cols() != 5 {
		t.Error("wrong number of models")
	}
	if stats.CacheStats.Hits == 0 {
		t.Errorf("expected reuse cache hits, stats = %+v", stats.CacheStats)
	}
	// correctness under reuse: compare against no-reuse engine
	e2 := newTestEngine()
	res2 := execScript(t, e2, script, map[string]any{"X": x, "y": y, "lambdas": lambdas}, []string{"B"})
	if !asMatrix(t, res["B"]).Equals(asMatrix(t, res2["B"]), 1e-9) {
		t.Error("reuse changed the computed models")
	}
}

func TestSteplmSelectsInformativeFeatures(t *testing.T) {
	e := newTestEngine()
	// y depends only on the first two of six features
	n := 120
	x := matrix.RandUniform(n, 6, -1, 1, 1.0, 21)
	y := matrix.NewDense(n, 1)
	for i := 0; i < n; i++ {
		y.Set(i, 0, 3*x.Get(i, 0)-2*x.Get(i, 1)+0.001*float64(i%3))
	}
	res := execScript(t, e, `
[B, S] = steplm(X, y, 0.000001, 0.001)
nsel = sum(S)
`, map[string]any{"X": x, "y": y}, []string{"S", "nsel"})
	s := asMatrix(t, res["S"])
	if s.Get(0, 0) != 1 || s.Get(0, 1) != 1 {
		t.Errorf("steplm did not select the informative features: %v", s)
	}
	if res["nsel"].(float64) > 4 {
		t.Errorf("steplm selected too many features: %v", res["nsel"])
	}
}

func TestPCA(t *testing.T) {
	e := newTestEngine()
	// data with variance concentrated in one direction
	n := 100
	x := matrix.NewDense(n, 3)
	base := matrix.RandNormal(n, 1, 1.0, 31)
	noise := matrix.RandNormal(n, 3, 1.0, 32)
	for i := 0; i < n; i++ {
		x.Set(i, 0, 10*base.Get(i, 0)+0.1*noise.Get(i, 0))
		x.Set(i, 1, 5*base.Get(i, 0)+0.1*noise.Get(i, 1))
		x.Set(i, 2, 0.1*noise.Get(i, 2))
	}
	res := execScript(t, e, `
[Xr, PC, ev] = pca(X, 2)
`, map[string]any{"X": x}, []string{"Xr", "PC", "ev"})
	xr := asMatrix(t, res["Xr"])
	ev := asMatrix(t, res["ev"])
	if xr.Rows() != n || xr.Cols() != 2 {
		t.Errorf("Xr dims %dx%d", xr.Rows(), xr.Cols())
	}
	if ev.Get(0, 0) < ev.Get(1, 0) {
		t.Error("eigenvalues not sorted descending")
	}
	if ev.Get(0, 0) < 50 {
		t.Errorf("first eigenvalue %v too small for dominant direction", ev.Get(0, 0))
	}
}

func TestKmeansSeparatesClusters(t *testing.T) {
	e := newTestEngine()
	// two well separated clusters
	n := 60
	x := matrix.NewDense(n, 2)
	for i := 0; i < n/2; i++ {
		x.Set(i, 0, 0+0.1*float64(i%5))
		x.Set(i, 1, 0+0.1*float64(i%3))
	}
	for i := n / 2; i < n; i++ {
		x.Set(i, 0, 10+0.1*float64(i%5))
		x.Set(i, 1, 10+0.1*float64(i%3))
	}
	res := execScript(t, e, `
[C, assign] = kmeans(X, 2, 20)
`, map[string]any{"X": x}, []string{"C", "assign"})
	assign := asMatrix(t, res["assign"])
	// all points in the first half must share a label, all in the second half
	// the other label
	first := assign.Get(0, 0)
	for i := 1; i < n/2; i++ {
		if assign.Get(i, 0) != first {
			t.Fatalf("cluster assignment not consistent in first cluster")
		}
	}
	second := assign.Get(n/2, 0)
	if second == first {
		t.Fatal("clusters collapsed")
	}
	for i := n / 2; i < n; i++ {
		if assign.Get(i, 0) != second {
			t.Fatalf("cluster assignment not consistent in second cluster")
		}
	}
}

func TestClassificationBuiltins(t *testing.T) {
	e := newTestEngine()
	x, y01 := matrix.SyntheticClassification(300, 5, 1.0, 41)
	// l2svm expects -1/+1 labels
	ypm := matrix.ScalarOp(matrix.ScalarOp(y01, 2, matrix.OpMul, false, 1), 1, matrix.OpSub, false, 1)
	res := execScript(t, e, `
w = l2svm(X, ypm, 0.0001, 0.1, 200)
scores = X %*% w
pred = (scores > 0) * 2 - 1
acc = accuracy(pred, ypm)

wl = logRegGD(X, y01, 0.0001, 0.5, 300)
probs = sigmoid(X %*% wl)
predl = probs > 0.5
accl = accuracy(predl, y01)
`, map[string]any{"X": x, "ypm": ypm, "y01": y01}, []string{"acc", "accl"})
	if res["acc"].(float64) < 0.9 {
		t.Errorf("l2svm training accuracy = %v", res["acc"])
	}
	if res["accl"].(float64) < 0.9 {
		t.Errorf("logRegGD training accuracy = %v", res["accl"])
	}
}

func TestDataPrepBuiltins(t *testing.T) {
	e := newTestEngine()
	x := matrix.FromRows([][]float64{{1, 100}, {2, 200}, {3, 300}, {4, 400}})
	withNaN := x.Copy()
	withNaN.Set(1, 0, math.NaN())
	res := execScript(t, e, `
S = scale(X)
N = normalize(X)
I = imputeByMean(Z)
W = winsorize(X, 0.25, 0.75)
O = outlierByIQR(X, 1.5)
`, map[string]any{"X": x, "Z": withNaN}, []string{"S", "N", "I", "W", "O"})
	s := asMatrix(t, res["S"])
	if mean := matrix.Sum(s, 1) / float64(s.Rows()*s.Cols()); math.Abs(mean) > 1e-9 {
		t.Errorf("scaled mean = %v", mean)
	}
	n := asMatrix(t, res["N"])
	if matrix.Min(n, 1) != 0 || matrix.Max(n, 1) != 1 {
		t.Errorf("normalize range [%v, %v]", matrix.Min(n, 1), matrix.Max(n, 1))
	}
	i := asMatrix(t, res["I"])
	// NaN cell replaced by mean of remaining values (1+3+4)/3
	if math.Abs(i.Get(1, 0)-8.0/3.0) > 1e-9 {
		t.Errorf("imputed value = %v", i.Get(1, 0))
	}
	w := asMatrix(t, res["W"])
	if w.Get(0, 0) < 1 || w.Get(3, 0) > 4 {
		t.Error("winsorize out of range")
	}
	if asMatrix(t, res["O"]).Rows() != 4 {
		t.Error("outlierByIQR changed row count")
	}
}

func TestSplitCrossValAndMetrics(t *testing.T) {
	e := newTestEngine()
	x, y := matrix.SyntheticRegression(200, 4, 1.0, 51)
	res := execScript(t, e, `
[Xtr, ytr, Xte, yte] = splitTrainTest(X, y, 0.75)
B = lmDS(Xtr, ytr, 0.0000001)
yhat = lmPredict(Xte, B)
testR2 = r2(yhat, yte)
e1 = rmse(yhat, yte)
[cvErr, meanErr] = crossValLM(X, y, 4, 0.0000001)
`, map[string]any{"X": x, "y": y}, []string{"Xtr", "Xte", "testR2", "e1", "cvErr", "meanErr"})
	if asMatrix(t, res["Xtr"]).Rows() != 150 || asMatrix(t, res["Xte"]).Rows() != 50 {
		t.Error("split sizes wrong")
	}
	if res["testR2"].(float64) < 0.99 {
		t.Errorf("test R2 = %v", res["testR2"])
	}
	if res["e1"].(float64) > 0.1 {
		t.Errorf("rmse = %v", res["e1"])
	}
	cv := asMatrix(t, res["cvErr"])
	if cv.Rows() != 4 {
		t.Errorf("cv errors dims %dx%d", cv.Rows(), cv.Cols())
	}
	if res["meanErr"].(float64) > 0.1 {
		t.Errorf("cv mean error = %v", res["meanErr"])
	}
}

func TestConfusionMatrixAndAccuracy(t *testing.T) {
	e := newTestEngine()
	y := matrix.FromRows([][]float64{{1}, {2}, {1}, {2}})
	yhat := matrix.FromRows([][]float64{{1}, {2}, {2}, {2}})
	res := execScript(t, e, `
CM = confusionMatrix(yhat, y)
acc = accuracy(yhat, y)
`, map[string]any{"y": y, "yhat": yhat}, []string{"CM", "acc"})
	cm := asMatrix(t, res["CM"])
	if cm.Get(0, 0) != 1 || cm.Get(1, 1) != 2 || cm.Get(0, 1) != 1 {
		t.Errorf("confusion matrix = %v", cm)
	}
	if res["acc"].(float64) != 0.75 {
		t.Errorf("accuracy = %v", res["acc"])
	}
}

func TestPrintAndStringConcat(t *testing.T) {
	e := newTestEngine()
	var buf bytes.Buffer
	e.SetOutput(&buf)
	execScript(t, e, `
x = 42
print("the answer is " + x)
`, nil, nil)
	if !strings.Contains(buf.String(), "the answer is 42") {
		t.Errorf("print output = %q", buf.String())
	}
}

func TestStopAndErrors(t *testing.T) {
	e := newTestEngine()
	_, _, err := e.Execute(`stop("boom")`, nil, nil)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("expected stop error, got %v", err)
	}
	_, _, err = e.Execute(`x = undefinedFunction(1)`, nil, nil)
	if err == nil {
		t.Error("expected unknown function error")
	}
	_, _, err = e.Execute(`x = 1 +`, nil, nil)
	if err == nil {
		t.Error("expected parse error")
	}
	_, _, err = e.Execute(`y = X %*% Z`, map[string]any{"X": matrix.NewDense(2, 3), "Z": matrix.NewDense(2, 3)}, []string{"y"})
	if err == nil {
		t.Error("expected dimension mismatch error")
	}
	// missing output
	_, _, err = e.Execute(`x = 1`, nil, []string{"nothere"})
	if err == nil {
		t.Error("expected missing output error")
	}
}

// TestParforMatchesSequential also runs the parfor twice on one engine with
// reuse on: its workers probe and fill one lineage cache concurrently (every
// iteration computes the same t(X) %*% X), and the second run answers the
// column slices from that cache with the same bits.
func TestParforMatchesSequential(t *testing.T) {
	e := newTestEngine()
	x := matrix.RandUniform(50, 8, -1, 1, 1.0, 61)
	script := `
R = matrix(0, 1, ncol(X))
%s (j in 1:ncol(X)) {
  col = X[, j]
  R[1, j] = sum(col * col) + sum(t(X) %*% X)
}
`
	parScript := strings.Replace(script, "%s", "parfor", 1)
	seq := execScript(t, e, strings.Replace(script, "%s", "for", 1), map[string]any{"X": x}, []string{"R"})
	par := execScript(t, e, parScript, map[string]any{"X": x}, []string{"R"})
	if !asMatrix(t, seq["R"]).Equals(asMatrix(t, par["R"]), 1e-12) {
		t.Error("parfor result differs from sequential for")
	}

	cfg := runtime.DefaultConfig()
	cfg.Parallelism = 4
	cfg.ReuseEnabled = true
	re := NewEngine(cfg)
	first := asMatrix(t, execScript(t, re, parScript, map[string]any{"X": x}, []string{"R"})["R"])
	hits := re.CacheStats().Hits
	second := asMatrix(t, execScript(t, re, parScript, map[string]any{"X": x}, []string{"R"})["R"])
	if got := re.CacheStats().Hits - hits; got < int64(x.Cols()) {
		t.Errorf("second parfor run: %d cache hits, want at least %d", got, x.Cols())
	}
	if !first.Equals(second, 0) || !first.Equals(asMatrix(t, par["R"]), 0) {
		t.Error("parfor with reuse differs between runs or from parfor without reuse")
	}
}

// TestParforErrorIsTheLowestWorkers: at P=2 iteration 1 belongs to worker 0
// and iteration 2 to worker 1. Both stop, worker 0 after a multiply, so worker
// 1 usually fails first in time; the loop reports worker 0's error every run.
func TestParforErrorIsTheLowestWorkers(t *testing.T) {
	cfg := runtime.DefaultConfig()
	cfg.Parallelism = 2
	e := NewEngine(cfg)
	script := `
R = matrix(0, 1, 4)
parfor (i in 1:4) {
  if (i == 1) {
    Z = rand(rows=150, cols=150, seed=1) %*% rand(rows=150, cols=150, seed=2)
    stop("iteration 1: " + nrow(Z))
  }
  if (i == 2) {
    stop("iteration 2")
  }
  R[1, i] = i
}
`
	for run := 0; run < 30; run++ {
		_, _, err := e.Execute(script, nil, []string{"R"})
		if err == nil || !strings.Contains(err.Error(), "parfor worker 0 (iteration 1)") ||
			!strings.Contains(err.Error(), "iteration 1: 150") {
			t.Fatalf("run %d: error %v, want worker 0's stop in iteration 1", run, err)
		}
	}
}

func TestPreparedScriptRepeatedExecution(t *testing.T) {
	e := newTestEngine()
	prepared, err := e.Prepare(`
yhat = X %*% B
s = sum(yhat)
`, []string{"s"})
	if err != nil {
		t.Fatal(err)
	}
	b := matrix.FromRows([][]float64{{1}, {1}})
	for i := 1; i <= 3; i++ {
		x := matrix.Fill(2, 2, float64(i))
		out, err := prepared.Execute(map[string]any{"X": x, "B": b})
		if err != nil {
			t.Fatal(err)
		}
		if out["s"].(float64) != float64(4*i) {
			t.Errorf("run %d: s = %v", i, out["s"])
		}
	}
}

func TestEngineExecuteUnsupportedInput(t *testing.T) {
	e := newTestEngine()
	_, _, err := e.Execute(`x = 1`, map[string]any{"bad": struct{}{}}, nil)
	if err == nil {
		t.Error("expected unsupported input type error")
	}
}

// TestNNZCountsNonZeroCells: nnz(X) counts the cells of X that are not 0 —
// 4 here, where lowering nnz to sum once answered 9 — and a NaN counts while
// a -0 does not.
func TestNNZCountsNonZeroCells(t *testing.T) {
	e := NewEngine(runtime.DefaultConfig())
	res := execScript(t, e, `
X = matrix("1 -2 0 4 0 6", rows=3, cols=2)
n = nnz(X)
Y = matrix("1 0 0 0", rows=2, cols=2)
Y[1, 2] = 0/0
Y[2, 1] = -0
m = nnz(Y)
`, nil, []string{"n", "m"})
	if res["n"] != 4.0 || res["m"] != 2.0 {
		t.Errorf("nnz = %v and %v, want 4 and 2", res["n"], res["m"])
	}
}
