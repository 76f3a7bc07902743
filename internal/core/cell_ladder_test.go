package core

import (
	"math"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
)

// sameCells reports the first cell where two matrices' bits differ.
func sameCells(t *testing.T, what string, got, want *matrix.MatrixBlock) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: %dx%d, want %dx%d", what, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for r := 0; r < want.Rows(); r++ {
		for c := 0; c < want.Cols(); c++ {
			if a, b := got.Get(r, c), want.Get(r, c); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: cell (%d,%d) = %v, CP computes %v", what, r, c, a, b)
			}
		}
	}
}

// TestFusedChainOverBlockedOperandRunsBlocked: Y stays blocked across the
// loop's DAG boundary (a transient write of a blocked matmult), and the fused
// chain over it in the loop body fits the budget, so it runs block by block:
// one fused op, recorded as "*|dist", with Y never collected — the only
// collect is the chain's own output — and the bits of the CP run.
func TestFusedChainOverBlockedOperandRunsBlocked(t *testing.T) {
	inputs := map[string]any{
		"X":  matrix.RandUniform(120, 400, -1, 1, 1.0, 7101), // 384 KB: X %*% W runs blocked
		"W":  matrix.RandUniform(400, 10, -1, 1, 1.0, 7102),  // 32 KB: broadcast
		"mu": matrix.RandUniform(1, 10, -1, 1, 1.0, 7103),
	}
	script := `Y = X %*% W
for (i in 1:1) {
  Z = abs(Y - mu) * 2
}`
	res, stats, err := plannerEngine(100_000).Execute(script, inputs, []string{"Z"})
	if err != nil {
		t.Fatal(err)
	}
	if n := stats.FusedStats.FusedCellOps; n != 1 {
		t.Errorf("fused cellwise ops = %d, want 1", n)
	}
	if rec, ok := planOf(stats, "*"); !ok || rec.Plan != "dist" {
		t.Errorf("plan record of the chain = %+v (found %v), want *|dist", rec, ok)
	}
	if ds := stats.DistStats; ds.Partitions != 1 || ds.Collects != 1 {
		t.Errorf("dist stats = %+v, want 1 partition (X) and 1 collect (the chain's output)", ds)
	}
	cp, _, err := NewEngine(runtime.DefaultConfig()).Execute(script, inputs, []string{"Z"})
	if err != nil {
		t.Fatal(err)
	}
	sameCells(t, "Z", res["Z"].(*matrix.MatrixBlock), cp["Z"].(*matrix.MatrixBlock))
}

// TestBlockedVectorBesideLocalMatrixRunsLocally: v = rowSums(X) stays
// blocked, but M + v has one operand of the output's shape, the local M, so
// it runs in CP — v is collected, M is not partitioned — with the bits of
// the CP run.
func TestBlockedVectorBesideLocalMatrixRunsLocally(t *testing.T) {
	inputs := map[string]any{
		"X": matrix.RandUniform(600, 40, -1, 1, 1.0, 7201), // 192 KB: rowSums runs blocked
		"M": matrix.RandUniform(600, 2, -1, 1, 1.0, 7202),  // 9.6 KB: M + v fits the budget
	}
	script := `v = rowSums(X)
Z = M + v`
	res, stats, err := plannerEngine(25_000).Execute(script, inputs, []string{"Z"})
	if err != nil {
		t.Fatal(err)
	}
	if rec, ok := planOf(stats, "rowSums"); !ok || rec.Plan != "dist" {
		t.Fatalf("rowSums plan = %+v (found %v): v must be blocked", rec, ok)
	}
	if rec, ok := planOf(stats, "+"); ok {
		t.Errorf("M + v recorded plan %+v, want a CP run", rec)
	}
	if ds := stats.DistStats; ds.Partitions != 1 || ds.BlockedOps != 1 {
		t.Errorf("dist stats = %+v, want 1 partition (X) and 1 blocked op (rowSums)", ds)
	}
	cp, _, err := NewEngine(runtime.DefaultConfig()).Execute(script, inputs, []string{"Z"})
	if err != nil {
		t.Fatal(err)
	}
	sameCells(t, "Z", res["Z"].(*matrix.MatrixBlock), cp["Z"].(*matrix.MatrixBlock))
}
