package core

import (
	"math"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
)

// intMatrix generates a deterministic integer-valued matrix; integer values
// keep floating-point sums exact under any association, so blocked and local
// results must match bitwise.
func intMatrix(rows, cols int) *matrix.MatrixBlock {
	m := matrix.NewDense(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Set(r, c, float64((r*cols+c)%7-3))
		}
	}
	return m
}

// distEngine builds an engine whose operator budget forces the X-sized
// operators onto the blocked backend while W (90x30 = ~21.6KB) still fits the
// broadcast path.
func distEngine(budget int64) *Engine {
	cfg := runtime.DefaultConfig()
	cfg.DistEnabled = true
	cfg.OperatorMemBudget = budget
	cfg.DistBlocksize = 32
	return NewEngine(cfg)
}

// TestBlockedPipelineStaysBlocked is the acceptance test of the blocked-flow
// design: a chained pipeline Y = (X + X) %*% W; s = sum(Y) with X forced to
// ExecDist must partition X exactly once, execute every operator blocked, and
// never collect an intermediate back into a local matrix.
func TestBlockedPipelineStaysBlocked(t *testing.T) {
	x := intMatrix(120, 90) // 86.4KB > budget
	w := intMatrix(90, 30)  // 21.6KB < budget: broadcast operand
	script := `Y = (X + X) %*% W
s = sum(Y)`
	e := distEngine(25_000)
	res, stats, err := e.Execute(script, map[string]any{"X": x, "W": w}, []string{"s"})
	if err != nil {
		t.Fatalf("blocked pipeline failed: %v", err)
	}
	ds := stats.DistStats
	if ds.Partitions != 1 {
		t.Errorf("partitions = %d, want exactly 1 (X partitioned once, reused across the chain)", ds.Partitions)
	}
	if ds.Collects != 0 {
		t.Errorf("collects = %d, want 0 (no intermediate ToMatrixBlock)", ds.Collects)
	}
	if ds.BlockedOps != 3 {
		t.Errorf("blocked ops = %d, want 3 (binary, matmult, sum)", ds.BlockedOps)
	}

	// bitwise equality against the pure CP execution
	cp := NewEngine(runtime.DefaultConfig())
	cpRes, cpStats, err := cp.Execute(script, map[string]any{"X": x, "W": w}, []string{"s"})
	if err != nil {
		t.Fatalf("CP pipeline failed: %v", err)
	}
	if cpStats.DistStats.BlockedOps != 0 {
		t.Fatalf("CP run unexpectedly used the blocked backend")
	}
	if res["s"].(float64) != cpRes["s"].(float64) {
		t.Errorf("blocked s = %v, CP s = %v (must match bitwise)", res["s"], cpRes["s"])
	}
}

// TestBlockedMatMultBothOperandsLarge checks the grid-join path: when both
// matmult operands exceed the per-operator budget, the right side cannot be
// broadcast and both flow blocked.
func TestBlockedMatMultBothOperandsLarge(t *testing.T) {
	a := intMatrix(100, 80) // 64KB
	b := intMatrix(80, 60)  // 38.4KB
	script := `C = A %*% B
s = sum(C)`
	e := distEngine(25_000)
	res, stats, err := e.Execute(script, map[string]any{"A": a, "B": b}, []string{"s"})
	if err != nil {
		t.Fatalf("blocked x blocked matmult failed: %v", err)
	}
	if ds := stats.DistStats; ds.Partitions != 2 || ds.Collects != 0 {
		t.Errorf("dist stats = %+v, want 2 partitions (A and the over-budget B) and 0 collects", ds)
	}
	cp := NewEngine(runtime.DefaultConfig())
	cpRes, _, err := cp.Execute(script, map[string]any{"A": a, "B": b}, []string{"s"})
	if err != nil {
		t.Fatal(err)
	}
	if res["s"].(float64) != cpRes["s"].(float64) {
		t.Errorf("blocked s = %v, CP s = %v", res["s"], cpRes["s"])
	}
}

// TestBlockedChainWithBlockedRightOperand drives matmult with a blocked right
// operand produced by an upstream blocked operator.
func TestBlockedChainWithBlockedRightOperand(t *testing.T) {
	a := intMatrix(100, 80)
	b := intMatrix(80, 60)
	script := `C = (A + A) %*% (B + B)
s = sum(C)`
	e := distEngine(25_000)
	res, stats, err := e.Execute(script, map[string]any{"A": a, "B": b}, []string{"s"})
	if err != nil {
		t.Fatalf("chained blocked matmult failed: %v", err)
	}
	if ds := stats.DistStats; ds.Partitions != 2 || ds.Collects != 0 || ds.BlockedOps != 4 {
		t.Errorf("dist stats = %+v, want 2 partitions, 0 collects, 4 blocked ops", ds)
	}
	cp := NewEngine(runtime.DefaultConfig())
	cpRes, _, err := cp.Execute(script, map[string]any{"A": a, "B": b}, []string{"s"})
	if err != nil {
		t.Fatal(err)
	}
	if res["s"].(float64) != cpRes["s"].(float64) {
		t.Errorf("blocked s = %v, CP s = %v", res["s"], cpRes["s"])
	}
}

// TestBlockedSinkCollectsOnce verifies the lazy-collect contract at sinks: a
// blocked result requested as an API output is collected exactly once, and
// the collected matrix matches the CP result exactly.
func TestBlockedSinkCollectsOnce(t *testing.T) {
	x := intMatrix(120, 90)
	script := `Y = X + X
Z = t(Y)
r = rowSums(Z)`
	e := distEngine(25_000)
	res, stats, err := e.Execute(script, map[string]any{"X": x}, []string{"r"})
	if err != nil {
		t.Fatalf("blocked sink pipeline failed: %v", err)
	}
	if ds := stats.DistStats; ds.Partitions != 1 || ds.Collects != 1 || ds.BlockedOps != 3 {
		t.Errorf("dist stats = %+v, want 1 partition, 1 collect (the output), 3 blocked ops", ds)
	}
	cp := NewEngine(runtime.DefaultConfig())
	cpRes, _, err := cp.Execute(script, map[string]any{"X": x}, []string{"r"})
	if err != nil {
		t.Fatal(err)
	}
	got := res["r"].(*matrix.MatrixBlock)
	want := cpRes["r"].(*matrix.MatrixBlock)
	if !want.Equals(got, 0) {
		t.Error("blocked rowSums differs from CP result")
	}
}

// TestRandGeneratesBlockedDirectly asserts the distributed-datagen path: a
// rand above the operator budget produces blocked partitions directly — the
// downstream blocked operators consume them with ZERO local-to-blocked
// repartitions — and every cell is the one the local kernel draws from the
// same seed: uniform and normal, dense and sparse, one and several column
// blocks, ragged edges.
func TestRandGeneratesBlockedDirectly(t *testing.T) {
	cfg := runtime.DefaultConfig()
	cfg.DistEnabled = true
	cfg.OperatorMemBudget = 8 * 1024
	cfg.DistBlocksize = 32
	eng := NewEngine(cfg)
	script := `X = rand(rows=96, cols=96, seed=7)
Y = X + X
s = sum(Y)`
	res, stats, err := eng.Execute(script, nil, []string{"s"})
	if err != nil {
		t.Fatalf("execution failed: %v", err)
	}
	if stats.DistStats.Partitions != 0 {
		t.Errorf("partitions = %d, want 0: rand must generate blocked partitions directly", stats.DistStats.Partitions)
	}
	if stats.DistStats.BlockedOps < 2 {
		t.Errorf("blocked ops = %d, want >= 2 (rand and the cellwise add)", stats.DistStats.BlockedOps)
	}
	if rec, ok := planOf(stats, "rand"); !ok {
		t.Errorf("no plan record for blocked rand")
	} else if rec.ActualBytes <= 0 {
		t.Errorf("rand record has actual bytes %d", rec.ActualBytes)
	}
	if s := res["s"].(float64); s <= 0 {
		t.Errorf("sum of uniform rand = %v, want > 0", s)
	}
	for _, gen := range []string{
		`rand(rows=96, cols=96, seed=7)`,
		`rand(rows=100, cols=70, min=-2, max=3, seed=11)`,
		`rand(rows=101, cols=20, seed=5)`,
		`rand(rows=100, cols=70, sparsity=0.2, seed=13)`,
		`rand(rows=100, cols=70, pdf="normal", seed=17)`,
		`rand(rows=100, cols=70, pdf="normal", sparsity=0.3, seed=19)`,
		`rand(rows=101, cols=20, pdf="normal", sparsity=0.3, seed=23)`,
	} {
		script := "X = " + gen
		local, _, err := NewEngine(runtime.DefaultConfig()).Execute(script, nil, []string{"X"})
		if err != nil {
			t.Fatal(err)
		}
		blocked, stats, err := NewEngine(cfg).Execute(script, nil, []string{"X"})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := planOf(stats, "rand"); !ok || stats.DistStats.Partitions != 0 {
			t.Errorf("%s: not generated blocked (partitions %d)", gen, stats.DistStats.Partitions)
		}
		want, got := asMatrix(t, local["X"]), asMatrix(t, blocked["X"])
		if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
			t.Fatalf("%s: %dx%d, want %dx%d", gen, got.Rows(), got.Cols(), want.Rows(), want.Cols())
		}
		for r := 0; r < want.Rows(); r++ {
			for c := 0; c < want.Cols(); c++ {
				if math.Float64bits(got.Get(r, c)) != math.Float64bits(want.Get(r, c)) {
					t.Fatalf("%s: cell (%d,%d) = %v, the local kernel draws %v", gen, r, c, got.Get(r, c), want.Get(r, c))
				}
			}
		}
	}
}

// TestSeqGeneratesBlockedBitwiseEqual asserts a blocked seq matches the local
// kernel bit for bit: the accumulation streams straight into the blocks.
func TestSeqGeneratesBlockedBitwiseEqual(t *testing.T) {
	cfg := runtime.DefaultConfig()
	cfg.DistEnabled = true
	cfg.OperatorMemBudget = 1024
	cfg.DistBlocksize = 32
	script := `v = seq(0.1, 2000.0, 0.25)
w = v * 1.0
s = sum(w)`
	res, stats, err := NewEngine(cfg).Execute(script, nil, []string{"v"})
	if err != nil {
		t.Fatalf("execution failed: %v", err)
	}
	if stats.DistStats.Partitions != 0 {
		t.Errorf("partitions = %d, want 0: seq must generate blocked partitions directly", stats.DistStats.Partitions)
	}
	got := res["v"].(*matrix.MatrixBlock)
	want := matrix.Seq(0.1, 2000.0, 0.25)
	if got.Rows() != want.Rows() {
		t.Fatalf("blocked seq has %d rows, want %d", got.Rows(), want.Rows())
	}
	for r := 0; r < want.Rows(); r++ {
		if got.Get(r, 0) != want.Get(r, 0) {
			t.Fatalf("row %d: blocked seq %v != local seq %v", r, got.Get(r, 0), want.Get(r, 0))
		}
	}
}

// gdSpillScript is the GD loop of the dist.loop.spill benchmark row.
const gdSpillScript = `w = matrix(0, rows=ncol(X), cols=1)
for (i in 1:epochs) {
  q = X %*% w
  g = t(X) %*% (q - y)
  w = w - lr * g
}
s = sum(w)`

// spillRowEngine is the dist.loop.spill configuration: blocked backend, a
// 2 MB operator budget and a 16 MB buffer pool, so the 6.4 MB X and its
// partition run blocked under a pool below the old working set.
func spillRowEngine(dir string, threads int) *Engine {
	cfg := runtime.DefaultConfig()
	cfg.DistEnabled = true
	cfg.OperatorMemBudget = 2 << 20
	cfg.BufferPoolBudget = 16 << 20
	cfg.TempDir = dir
	cfg.Parallelism = threads
	cfg.TraceEnabled = true
	return NewEngine(cfg)
}

// TestGDLoopRunsXtYBlocked: on the dist.loop.spill shape (4000 x 200) every
// epoch's t(X) %*% (q - y) is one xty record on the blocked backend, nothing
// transposes X, and with no t(X) in the working set the 16 MB pool evicts
// nothing.
func TestGDLoopRunsXtYBlocked(t *testing.T) {
	const epochs = 4
	x := matrix.RandUniform(4000, 200, 0, 1, 1.0, 81)
	y := matrix.RandUniform(4000, 1, -1, 1, 1.0, 82)
	inputs := map[string]any{"X": x, "y": y, "epochs": epochs, "lr": 0.4 / (4000 * 200 * 0.25)}
	_, stats, err := spillRowEngine(t.TempDir(), 2).Execute(gdSpillScript, inputs, []string{"w", "s"})
	if err != nil {
		t.Fatal(err)
	}
	xty := 0
	for _, pr := range stats.PlanStats {
		switch {
		case pr.Op == "mmchain" && pr.Plan == "dist":
			xty++
		case pr.Op == "r'":
			t.Errorf("plan record %+v: X was transposed", pr)
		}
	}
	if xty != epochs {
		t.Errorf("xty dist records = %d, want one per epoch (%d)", xty, epochs)
	}
	if n := instrCounts(stats)["r'"]; n != 0 {
		t.Errorf("executed %d transposes, want 0", n)
	}
	if ps := stats.PoolStats; ps.Evictions != 0 {
		t.Errorf("pool evicted %d values (%+v), want 0", ps.Evictions, ps)
	}
}

// TestXtYUnderDistMatchesLocal: t(X) %*% v on the blocked backend has the bits
// of the local run at every thread count, and so has the GD loop around it.
func TestXtYUnderDistMatchesLocal(t *testing.T) {
	x := matrix.RandUniform(4000, 200, 0, 1, 1.0, 83)
	v := matrix.RandUniform(4000, 1, -1, 1, 1.0, 84)
	inputs := map[string]any{"X": x, "y": v, "v": v, "epochs": 3, "lr": 0.4 / (4000 * 200 * 0.25)}
	for _, tc := range []struct {
		script string
		out    string
	}{
		{"g = t(X) %*% v", "g"},
		{gdSpillScript, "w"},
	} {
		local, _, err := NewEngine(runtime.DefaultConfig()).Execute(tc.script, inputs, []string{tc.out})
		if err != nil {
			t.Fatal(err)
		}
		want := local[tc.out].(*matrix.MatrixBlock)
		for _, threads := range []int{1, 2, 3} {
			res, stats, err := spillRowEngine(t.TempDir(), threads).Execute(tc.script, inputs, []string{tc.out})
			if err != nil {
				t.Fatal(err)
			}
			if stats.DistStats.BlockedOps == 0 {
				t.Fatalf("%q: nothing ran blocked", tc.script)
			}
			got := res[tc.out].(*matrix.MatrixBlock)
			for r := 0; r < want.Rows(); r++ {
				if a, b := got.Get(r, 0), want.Get(r, 0); math.Float64bits(a) != math.Float64bits(b) {
					t.Fatalf("%q at T=%d: %s[%d] = %v under dist, %v local", tc.script, threads, tc.out, r, a, b)
				}
			}
		}
	}
}
