package core

import (
	"regexp"
	"strings"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
)

// plannerEngine builds an engine with a small operator budget and block size
// so modest test matrices exercise the blocked backend.
func plannerEngine(budget int64) *Engine {
	cfg := runtime.DefaultConfig()
	cfg.DistEnabled = true
	cfg.OperatorMemBudget = budget
	cfg.DistBlocksize = 32
	return NewEngine(cfg)
}

// planOf returns the first recorded plan for the given opcode.
func planOf(stats *Stats, op string) (runtime.PlanRecord, bool) {
	for _, r := range stats.PlanStats {
		if r.Op == op {
			return r, true
		}
	}
	return runtime.PlanRecord{}, false
}

// TestPlannerGridJoinMatMultAcceptance is the acceptance test of the
// cost-based planner: for a matmult whose operands BOTH exceed the broadcast
// budget, ExplainPlan reports the grid join, the plan statistics confirm the
// grid join ran, and the result is bitwise-equal to the pure CP execution.
func TestPlannerGridJoinMatMultAcceptance(t *testing.T) {
	a := matrix.RandUniform(64, 256, -1, 1, 1.0, 4001) // ~128 KB
	b := matrix.RandUniform(256, 32, -1, 1, 1.0, 4002) // ~64 KB
	inputs := map[string]any{"A": a, "B": b}
	script := `C = A %*% B`
	e := plannerEngine(16_000) // both operands exceed the budget

	explain, err := e.ExplainPlan(script, inputs)
	if err != nil {
		t.Fatalf("ExplainPlan: %v", err)
	}
	if !strings.Contains(explain, "plan=DIST:gj") {
		t.Fatalf("ExplainPlan does not name the grid join:\n%s", explain)
	}

	res, stats, err := e.Execute(script, inputs, []string{"C"})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	rec, ok := planOf(stats, "ba+*")
	if !ok {
		t.Fatal("no plan record for the matmult")
	}
	if rec.Plan != "gj" {
		t.Errorf("executed plan = %q, want \"gj\"", rec.Plan)
	}
	if rec.EstBytes <= 0 || rec.ActualBytes <= 0 {
		t.Errorf("plan record bytes not populated: %+v", rec)
	}
	if stats.DistStats.Partitions != 2 {
		t.Errorf("partitions = %d, want 2 (both operands partitioned)", stats.DistStats.Partitions)
	}

	cp := NewEngine(runtime.DefaultConfig())
	cpRes, _, err := cp.Execute(script, inputs, []string{"C"})
	if err != nil {
		t.Fatal(err)
	}
	got := res["C"].(*matrix.MatrixBlock)
	want := cpRes["C"].(*matrix.MatrixBlock)
	if !want.Equals(got, 0) {
		t.Error("grid-join matmult result is not bitwise-equal to CP")
	}
}

// TestExplainPlanNamesExecutedStrategy cross-checks, per scenario, that the
// strategy ExplainPlan prints is exactly the strategy core.Stats reports as
// executed.
func TestExplainPlanNamesExecutedStrategy(t *testing.T) {
	planRe := regexp.MustCompile(`plan=DIST:(\w+)`)
	for _, tc := range []struct {
		name string
		a, b *matrix.MatrixBlock
	}{
		// small right operand -> broadcast-right
		{"broadcast-right", matrix.RandUniform(120, 90, -1, 1, 1.0, 1), matrix.RandUniform(90, 4, -1, 1, 1.0, 2)},
		// both large -> grid join
		{"grid-join", matrix.RandUniform(64, 256, -1, 1, 1.0, 3), matrix.RandUniform(256, 32, -1, 1, 1.0, 4)},
	} {
		inputs := map[string]any{"A": tc.a, "B": tc.b}
		script := `C = A %*% B`
		e := plannerEngine(16_000)
		explain, err := e.ExplainPlan(script, inputs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		m := planRe.FindStringSubmatch(explain)
		if m == nil {
			t.Fatalf("%s: no distributed matmult plan in explain:\n%s", tc.name, explain)
		}
		_, stats, err := e.Execute(script, inputs, []string{"C"})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		rec, ok := planOf(stats, "ba+*")
		if !ok {
			t.Fatalf("%s: no plan record", tc.name)
		}
		if rec.Plan != m[1] {
			t.Errorf("%s: explain names %q but %q executed", tc.name, m[1], rec.Plan)
		}
	}
}

// TestPartitionedInputCachedAcrossDAGs asserts the partition memo: a named
// input consumed by distributed operators in two different DAGs (split by a
// print barrier) partitions exactly once.
func TestPartitionedInputCachedAcrossDAGs(t *testing.T) {
	x := intMatrix(120, 90) // > budget
	script := `s1 = sum(X + 1)
print(s1)
s2 = sum(X * 2)`
	e := plannerEngine(25_000)
	e.SetOutput(nopWriter{})
	res, stats, err := e.Execute(script, map[string]any{"X": x}, []string{"s1", "s2"})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if stats.DistStats.Partitions != 1 {
		t.Errorf("partitions = %d, want 1 (partitioned form cached on the input object)", stats.DistStats.Partitions)
	}
	cp := NewEngine(runtime.DefaultConfig())
	cp.SetOutput(nopWriter{})
	cpRes, _, err := cp.Execute(script, map[string]any{"X": x}, []string{"s1", "s2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"s1", "s2"} {
		if res[name].(float64) != cpRes[name].(float64) {
			t.Errorf("%s: blocked %v != CP %v", name, res[name], cpRes[name])
		}
	}
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestBlockedBroadcastVectorBinary asserts the blocked kernel for
// matrix±vector: the blocked operand is never collected and the result
// matches the CP broadcast kernel bitwise.
func TestBlockedBroadcastVectorBinary(t *testing.T) {
	x := matrix.RandUniform(120, 90, -1, 1, 1.0, 5001)
	v := matrix.RandUniform(1, 90, -1, 1, 1.0, 5002) // row vector
	script := `Y = X + v`
	e := plannerEngine(25_000)
	res, stats, err := e.Execute(script, map[string]any{"X": x, "v": v}, []string{"Y"})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	// one partition for X, one lazy collect for the API output only
	if ds := stats.DistStats; ds.Partitions != 1 || ds.Collects != 1 || ds.BlockedOps != 1 {
		t.Errorf("dist stats = %+v, want 1 partition (X), 1 output collect, 1 blocked op", ds)
	}
	cp := NewEngine(runtime.DefaultConfig())
	cpRes, _, err := cp.Execute(script, map[string]any{"X": x, "v": v}, []string{"Y"})
	if err != nil {
		t.Fatal(err)
	}
	got := res["Y"].(*matrix.MatrixBlock)
	want := cpRes["Y"].(*matrix.MatrixBlock)
	if !want.Equals(got, 0) {
		t.Error("blocked matrix+vector differs from the CP broadcast kernel")
	}
}

// TestLateBoundStrategyForUnknownSizes covers the compile-time-unknown case:
// a right operand whose size only materializes at runtime must not be blindly
// broadcast. The instruction re-invokes the planner's chooser with the live
// dimensions, so an over-budget operand still lands on a partition-both
// strategy and the result stays bitwise-equal to CP.
func TestLateBoundStrategyForUnknownSizes(t *testing.T) {
	a := matrix.RandUniform(64, 256, -1, 1, 1.0, 6001)
	x := matrix.RandUniform(256, 32, -1, 1, 1.0, 6002)
	// B = X[1:k, ] with a runtime k leaves B's rows unknown at compile time
	script := `B = X[1:k, ]
C = A %*% B`
	inputs := map[string]any{"A": a, "X": x, "k": 256}
	e := plannerEngine(16_000)
	res, stats, err := e.Execute(script, inputs, []string{"C"})
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	rec, ok := planOf(stats, "ba+*")
	if !ok {
		t.Fatal("no plan record for the matmult")
	}
	// both operands exceed the budget at runtime: the late-bound chooser must
	// not broadcast the over-budget right operand
	if rec.Plan == "br" || rec.Plan == "bl" {
		t.Errorf("late-bound plan = %q; an over-budget operand must not be broadcast", rec.Plan)
	}
	cp := NewEngine(runtime.DefaultConfig())
	cpRes, _, err := cp.Execute(script, inputs, []string{"C"})
	if err != nil {
		t.Fatal(err)
	}
	if !cpRes["C"].(*matrix.MatrixBlock).Equals(res["C"].(*matrix.MatrixBlock), 0) {
		t.Error("late-bound distributed matmult differs from CP")
	}
}

// TestPlanRecordsCoverAllBlockedOperators asserts that estimated-vs-actual
// plan tracking is not a matmult-only feature: every blocked operator class —
// cellwise binary, unary, row/column and full aggregates, transpose — leaves
// a record with the compiler's estimate next to the actual output bytes.
func TestPlanRecordsCoverAllBlockedOperators(t *testing.T) {
	x := matrix.RandUniform(64, 64, -1, 1, 1.0, 5001) // 32 KB
	inputs := map[string]any{"X": x}
	script := `a = X + X
b = abs(a)
c = t(b)
r = rowSums(c)
s = sum(b)`
	_, stats, err := plannerEngine(8*1024).Execute(script, inputs, []string{"r", "s"})
	if err != nil {
		t.Fatalf("execution failed: %v", err)
	}
	for _, op := range []string{"+", "abs", "r'", "rowSums", "sum"} {
		rec, ok := planOf(stats, op)
		if !ok {
			t.Errorf("no plan record for blocked operator %q", op)
			continue
		}
		if rec.ActualBytes <= 0 {
			t.Errorf("%q record has actual bytes %d, want > 0", op, rec.ActualBytes)
		}
		if rec.EstBytes <= 0 {
			t.Errorf("%q record has estimated bytes %d, want a known compile-time estimate", op, rec.EstBytes)
		}
	}
}
