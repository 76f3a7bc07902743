package systemds_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	systemds "github.com/systemds/systemds-go"
)

// planGoldenFile was captured at commit 591a7f6, before matrix multiplication
// moved onto one dispatcher. A change that means to alter a plan, a counter or
// an output bit deletes the file and runs the test once: a missing file is
// written from the tree under test (and the test fails, so it cannot pass
// unnoticed).
const planGoldenFile = "testdata/plan_golden.json"

// goldenRun is what one (script, configuration) run must reproduce exactly.
type goldenRun struct {
	// Outputs maps each requested output to the fingerprint of its bits.
	Outputs map[string]string
	// Plans is the executed physical-plan sequence, "opcode|plan string".
	Plans          []string
	CompressedOps  int64
	Decompressions int64
	Partitions     int64
	Collects       int64
	BlockedOps     int64
}

// goldenScripts exercise every row of the matmult family on the shapes the
// representation dispatch distinguishes: matrix-vector, vector-matrix, matrix
// right-hand side, the fused chain, the Gram matrix, and a transpose bound to
// a name and consumed in a later DAG. X holds small integers, so its sums are
// exact in any order; the real-valued Gram script (dense Xr, 5%-dense Xs and
// a parfor over ridge values) is the one whose bits see summation order.
var goldenScripts = []struct {
	name, script string
	outputs      []string
}{
	{"gd chain", `
w = matrix(0, rows=ncol(X), cols=1)
b = t(X) %*% y
for (i in 1:10) {
  g = t(X) %*% (X %*% w) - b
  w = w - lr * g
}
`, []string{"w"}},
	{"lmDS", `
w = lmDS(X, y, 0.001)
`, []string{"w"}},
	{"normal equations loop", `
for (i in 1:10) {
  G = t(X) %*% X
  b = t(X) %*% y
  w = solve(G + diag(matrix(0.001 * i, rows=ncol(X), cols=1)), b)
}
`, []string{"w"}},
	{"l2svm step", `
w = matrix(0, rows=ncol(X), cols=1)
for (i in 1:10) {
  margin = 1 - ys * (X %*% w)
  hinge = ys * margin * (margin > 0)
  w = w - 0.1 * (0.001 * w - (t(X) %*% hinge) / nrow(X))
}
`, []string{"w"}},
	{"u %*% X", `
acc = matrix(0, rows=1, cols=ncol(X))
for (i in 1:10) {
  acc = acc + (u * i) %*% X
}
`, []string{"acc"}},
	{"X %*% B", `
for (i in 1:10) {
  P = X %*% B
  B = B + lr * (t(X) %*% P)
}
s = sum(P)
`, []string{"B", "s"}},
	{"named transpose across DAGs", `
w = matrix(0.5, rows=ncol(X), cols=1)
for (i in 1:10) {
  Xt = t(X)
  if (i > 0) {
    q = X %*% w
    w = w - lr * (Xt %*% q)
    n = nrow(Xt)
  }
}
G = Xt %*% X
`, []string{"w", "n", "G"}},
	{"l2svm in a function", `
svm = function(Matrix[Double] X, Matrix[Double] y) return (Matrix[Double] w) {
  w = l2svm(X, y, 0.001, 0.1, 10)
}
w = svm(X, ys)
`, []string{"w"}},
	{"real-valued Gram", `
Gr = t(Xr) %*% Xr
Gs = t(Xs) %*% Xs
b = t(Xr) %*% y
w = solve(Gr + diag(matrix(0.001, rows=ncol(Xr), cols=1)), b)
R = matrix(0, rows=ncol(Xr), cols=4)
parfor (i in 1:4) {
  R[, i] = solve(Gr + Gs + diag(matrix(0.001 * i, rows=ncol(Xr), cols=1)), b)
}
`, []string{"Gr", "Gs", "w", "R"}},
	{"aggregates", `
for (i in 1:3) {
  s1 = sum(X)
  s2 = mean(X)
  s3 = min(X)
  s4 = max(X)
  s5 = var(X)
  s6 = sd(X)
  s7 = median(X)
  s8 = trace(X)
  s9 = nnz(X)
  n1 = nrow(X)
  n2 = ncol(X)
  n3 = length(X)
  R1 = rowSums(X)
  R2 = rowMeans(X)
  R3 = rowMins(X)
  R4 = rowMaxs(X)
  R5 = rowIndexMax(X)
  C1 = colSums(X)
  C2 = colMeans(X)
  C3 = colMins(X)
  C4 = colMaxs(X)
  C5 = colVars(X)
  C6 = colSds(X)
  S = cumsum(X)
  f1 = sum(X * X)
  f2 = min(X - i)
  f3 = max(X + i)
  F1 = colSums(X * X)
  F2 = rowSums(X * i)
}
`, []string{"s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "n1", "n2", "n3",
		"R1", "R2", "R3", "R4", "R5", "C1", "C2", "C3", "C4", "C5", "C6", "S", "f1", "f2", "f3", "F1", "F2"}},
	{"reorgs", `
for (i in 1:3) {
  Xi = X + i
  T = t(Xi)
  R = rev(Xi)
  D = diag(rowSums(Xi[1:300, ]))
  d = diag(Xi[1:60, ])
  C2 = cbind(X, Xi)
  C3 = cbind(Xi, X, Xi[, 1:7])
  B2 = rbind(X, Xi)
  B3 = rbind(Xi, X[1:7, ], Xi)
  B4 = rbind(X[1:7, ], Xi, X)
  s = sum(T) + sum(R) + sum(C3) + sum(B3)
}
`, []string{"T", "R", "D", "d", "C2", "C3", "B2", "B3", "B4", "s"}},
}

var goldenConfigs = []struct {
	name string
	opts []systemds.Option
}{
	{"local", nil},
	{"compressed", []systemds.Option{systemds.WithCompression(true)}},
	{"dist", []systemds.Option{systemds.WithDistributedBackend(true),
		systemds.WithOperatorMemBudget(64 << 10), systemds.WithDistBlocksize(500)}},
	{"compressed+dist", []systemds.Option{systemds.WithCompression(true), systemds.WithDistributedBackend(true),
		systemds.WithOperatorMemBudget(64 << 10), systemds.WithDistBlocksize(500)}},
}

func fingerprint(v any) string {
	h := fnv.New64a()
	word := func(x uint64) {
		var b [8]byte
		for i := range b {
			b[i] = byte(x >> (8 * i))
		}
		h.Write(b[:])
	}
	switch x := v.(type) {
	case *systemds.Matrix:
		word(uint64(x.Rows()))
		word(uint64(x.Cols()))
		for r := 0; r < x.Rows(); r++ {
			for c := 0; c < x.Cols(); c++ {
				word(math.Float64bits(x.Get(r, c)))
			}
		}
	case float64:
		word(math.Float64bits(x))
	default:
		fmt.Fprintf(h, "%T:%v", v, v)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// goldenInputs are the inputs every golden script runs on.
func goldenInputs() map[string]any {
	const rows, cols = 2000, 60
	noise := systemds.RandMatrix(rows, cols, 1.0, 91)
	X := systemds.NewMatrix(rows, cols, nil)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			X.Set(r, c, math.Floor(noise.Get(r, c)*5))
		}
	}
	X.RecomputeNNZ()
	y := systemds.RandMatrix(rows, 1, 1.0, 92)
	ys := systemds.NewMatrix(rows, 1, nil)
	for r := 0; r < rows; r++ {
		ys.Set(r, 0, 2*math.Round(y.Get(r, 0))-1)
	}
	return map[string]any{
		"X": X, "y": y, "ys": ys, "lr": 1e-7,
		"u":  systemds.RandMatrix(1, rows, 1.0, 93),
		"B":  systemds.RandMatrix(cols, 3, 1.0, 94),
		"Xr": systemds.RandMatrix(rows, cols, 1.0, 95),
		"Xs": systemds.RandMatrix(rows, cols, 0.05, 96),
	}
}

// TestPlansAndOutputsMatchGolden runs the fixed scripts under {local,
// compressed, blocked, compressed + blocked} x fusion {on, off} at 1, 2 and 3
// threads and holds every run to the one recorded entry of its (script,
// configuration, fusion) key: output bits, plan sequence and representation
// counters. A change to how an operator is dispatched must not change what is
// computed, which kernel computes it, or how often data changes
// representation, and the thread count must change none of them.
func TestPlansAndOutputsMatchGolden(t *testing.T) {
	inputs := goldenInputs()
	threads := []int{1, 2, 3}
	got := map[int]map[string]goldenRun{}
	for _, th := range threads {
		got[th] = map[string]goldenRun{}
		for _, sc := range goldenScripts {
			for _, cfg := range goldenConfigs {
				for _, fusion := range []bool{true, false} {
					key := fmt.Sprintf("%s/%s/fusion=%v", sc.name, cfg.name, fusion)
					opts := append([]systemds.Option{systemds.WithParallelism(th), systemds.WithFusion(fusion)}, cfg.opts...)
					ctx := systemds.NewContext(opts...)
					res, err := ctx.Execute(sc.script, inputs, sc.outputs...)
					if err != nil {
						t.Fatalf("%s threads=%d: %v", key, th, err)
					}
					stats := ctx.LastRunStats()
					run := goldenRun{
						Outputs:        map[string]string{},
						Plans:          []string{},
						CompressedOps:  stats.CompressStats.CompressedOps,
						Decompressions: stats.CompressStats.Decompressions,
						Partitions:     stats.DistStats.Partitions,
						Collects:       stats.DistStats.Collects,
						BlockedOps:     stats.DistStats.BlockedOps,
					}
					for _, name := range sc.outputs {
						run.Outputs[name] = fingerprint(res[name])
					}
					for _, pr := range stats.PlanStats {
						run.Plans = append(run.Plans, pr.Op+"|"+pr.Plan)
					}
					got[th][key] = run
				}
			}
		}
	}
	data, err := os.ReadFile(planGoldenFile)
	if errors.Is(err, os.ErrNotExist) {
		if data, err = json.MarshalIndent(got[threads[0]], "", " "); err == nil {
			err = os.WriteFile(planGoldenFile, append(data, '\n'), 0o644)
		}
		t.Fatalf("no golden file; wrote %s from this tree at threads=%d (error: %v)", planGoldenFile, threads[0], err)
	}
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]goldenRun{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, th := range threads {
		if len(got[th]) != len(want) {
			t.Errorf("threads=%d: %d runs, golden file has %d", th, len(got[th]), len(want))
		}
		for _, k := range keys {
			if !reflect.DeepEqual(got[th][k], want[k]) {
				t.Errorf("%s threads=%d:\n got %+v\nwant %+v", k, th, got[th][k], want[k])
			}
		}
	}
}

// placementTwins maps each configuration on the blocked backend to its
// in-process twin.
var placementTwins = map[string]string{"dist": "local", "compressed+dist": "compressed"}

// TestGoldenOutputsIgnoreFusionAndPlacement: every golden key's outputs equal
// its fusion twin's and, on the blocked backend, its placement twin's —
// turning fusion off or placing operators on the blocked backend changes
// which kernels run, never a bit. TestPlansAndOutputsMatchGolden holds the
// runs to the file, so the file is what is compared.
func TestGoldenOutputsIgnoreFusionAndPlacement(t *testing.T) {
	data, err := os.ReadFile(planGoldenFile)
	if err != nil {
		t.Fatal(err)
	}
	runs := map[string]goldenRun{}
	if err := json.Unmarshal(data, &runs); err != nil {
		t.Fatal(err)
	}
	pairs := 0
	compare := func(a, b string) {
		ra, rb := runs[a], runs[b]
		if ra.Outputs == nil || rb.Outputs == nil {
			t.Fatalf("%s or %s: missing from %s", a, b, planGoldenFile)
		}
		pairs++
		if !reflect.DeepEqual(ra.Outputs, rb.Outputs) {
			t.Errorf("%s: %v, %s: %v", a, ra.Outputs, b, rb.Outputs)
		}
	}
	for _, sc := range goldenScripts {
		for _, cfg := range goldenConfigs {
			key := sc.name + "/" + cfg.name
			compare(key+"/fusion=true", key+"/fusion=false")
			if twin, ok := placementTwins[cfg.name]; ok {
				for _, fusion := range []string{"/fusion=true", "/fusion=false"} {
					compare(key+fusion, sc.name+"/"+twin+fusion)
				}
			}
		}
	}
	if pairs != len(goldenScripts)*(len(goldenConfigs)+2*len(placementTwins)) {
		t.Errorf("%d pairs compared", pairs)
	}
}

// TestCompressedKernelsIgnorePlacement holds one rule across the matmult
// family: a compressed operand runs its compressed kernel in-process wherever
// the planner placed the operator, so placing t(X) %*% X, X %*% v and X %*% B
// on the blocked backend changes neither a bit nor a kernel. X is real-valued
// with five levels, so it compresses and the Gram matrix's bits see the
// summation order.
func TestCompressedKernelsIgnorePlacement(t *testing.T) {
	const rows, cols = 2000, 60
	levels := []float64{0.1, 0.37, 1.3, -2.71, 3.14159}
	noise := systemds.RandMatrix(rows, cols, 1.0, 97)
	X := systemds.NewMatrix(rows, cols, nil)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			X.Set(r, c, levels[int(noise.Get(r, c)*5)])
		}
	}
	X.RecomputeNNZ()
	inputs := map[string]any{
		"X": X,
		"v": systemds.RandMatrix(cols, 1, 1.0, 98),
		"B": systemds.RandMatrix(cols, 3, 1.0, 99),
	}
	const script = `
for (i in 1:5) {
  G = t(X) %*% X
  q = X %*% v
  P = X %*% B
}
`
	outputs := []string{"G", "q", "P"}
	for _, th := range []int{1, 2, 3} {
		var want map[string]string
		for _, cfg := range goldenConfigs {
			if cfg.name != "compressed" && cfg.name != "compressed+dist" {
				continue
			}
			ctx := systemds.NewContext(append([]systemds.Option{systemds.WithParallelism(th)}, cfg.opts...)...)
			res, err := ctx.Execute(script, inputs, outputs...)
			if err != nil {
				t.Fatalf("%s threads=%d: %v", cfg.name, th, err)
			}
			stats := ctx.LastRunStats()
			if n := stats.CompressStats.Decompressions; n != 0 {
				t.Errorf("%s threads=%d: %d decompressions", cfg.name, th, n)
			}
			kernels := map[string]int{}
			for _, pr := range stats.PlanStats {
				kernels[pr.Op+"|"+strings.SplitN(pr.Plan, ":", 2)[0]]++
			}
			for _, k := range []string{"tsmm|ctsmm", "ba+*|cmv", "ba+*|cmm"} {
				if kernels[k] == 0 {
					t.Errorf("%s threads=%d: no %s in the plan records %v", cfg.name, th, k, kernels)
				}
			}
			got := map[string]string{}
			for _, name := range outputs {
				got[name] = fingerprint(res[name])
			}
			if want == nil {
				want = got
			} else if !reflect.DeepEqual(got, want) {
				t.Errorf("threads=%d: compressed+dist outputs %v, compressed %v", th, got, want)
			}
		}
	}
}

// TestRecycledArraysAreNeverRead runs every golden script three times on one
// engine, with every array its free list takes back filled with NaN, and
// holds each run to the bits of a fresh engine without the poison: no run
// reads an array after it went back, and no run depends on what the engine
// ran before. Fusion on and off: with it off every cellwise operator is a
// plain one, whose output comes from the free list as a fused chain's does.
func TestRecycledArraysAreNeverRead(t *testing.T) {
	inputs := goldenInputs()
	for _, sc := range goldenScripts {
		for _, cfg := range goldenConfigs {
			for _, fusion := range []bool{true, false} {
				key := fmt.Sprintf("%s/%s/fusion=%v", sc.name, cfg.name, fusion)
				opts := append([]systemds.Option{systemds.WithParallelism(2), systemds.WithFusion(fusion)}, cfg.opts...)
				fresh, err := systemds.NewContext(opts...).Execute(sc.script, inputs, sc.outputs...)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				systemds.PoisonRecycled(true)
				shared := systemds.NewContext(opts...)
				for run := 1; run <= 3; run++ {
					res, err := shared.Execute(sc.script, inputs, sc.outputs...)
					if err != nil {
						systemds.PoisonRecycled(false)
						t.Fatalf("%s run %d: %v", key, run, err)
					}
					for _, name := range sc.outputs {
						if got, want := fingerprint(res[name]), fingerprint(fresh[name]); got != want {
							t.Errorf("%s run %d: %s is %s, a fresh engine computes %s", key, run, name, got, want)
						}
					}
				}
				systemds.PoisonRecycled(false)
			}
		}
	}
}
