package core

import (
	"os"
	"strings"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
)

// spillEngine builds the dist + small-pool scenario: operators over X run on
// the blocked backend and the buffer pool budget is below the working set, so
// a run spills.
func spillEngine(dir string, reuse bool) *Engine {
	cfg := runtime.DefaultConfig()
	cfg.DistEnabled = true
	cfg.OperatorMemBudget = 256 << 10
	cfg.BufferPoolBudget = 1 << 20
	cfg.TempDir = dir
	cfg.ReuseEnabled = reuse
	return NewEngine(cfg)
}

func spillFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// TestRunLeavesNoSpillFiles: whatever a run spilt is gone when Run returns —
// on success and when an instruction fails midway.
func TestRunLeavesNoSpillFiles(t *testing.T) {
	x := matrix.RandUniform(1500, 100, 0, 1, 1.0, 101)
	y := matrix.RandUniform(1500, 1, -1, 1, 1.0, 102)
	inputs := map[string]any{"X": x, "y": y}
	for name, script := range map[string]string{
		"success":           lmLoopScript,
		"instruction error": lmLoopScript + "\nstop(\"injected\")",
	} {
		dir := t.TempDir()
		_, stats, err := spillEngine(dir, false).Execute(script, inputs, []string{"w"})
		if name == "success" {
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if stats.PoolStats.Evictions == 0 {
				t.Fatalf("%s: scenario did not spill; the test checks nothing", name)
			}
		} else if err == nil || !strings.Contains(err.Error(), "injected") {
			t.Fatalf("%s: err = %v, want the injected stop", name, err)
		}
		if left := spillFiles(t, dir); len(left) != 0 {
			t.Errorf("%s: %d spill files outlive the run: %v", name, len(left), left)
		}
	}
}

// TestCachedIntermediateSurvivesRunEnd: with reuse on, an intermediate the
// lineage cache retains keeps its spill file past the end of the run that
// produced it, and the next run on the same engine restores it from there.
func TestCachedIntermediateSurvivesRunEnd(t *testing.T) {
	x := matrix.RandUniform(1500, 100, 0, 1, 1.0, 103)
	y := matrix.RandUniform(1500, 1, -1, 1, 1.0, 104)
	inputs := map[string]any{"X": x, "y": y}
	dir := t.TempDir()
	eng := spillEngine(dir, true)
	first, stats1, err := eng.Execute(lmLoopScript, inputs, []string{"w"})
	if err != nil {
		t.Fatal(err)
	}
	if stats1.PoolStats.Evictions == 0 {
		t.Fatal("scenario did not spill; the test checks nothing")
	}
	second, stats2, err := eng.Execute(lmLoopScript, inputs, []string{"w"})
	if err != nil {
		t.Fatalf("second run over the retained cache failed: %v", err)
	}
	if stats2.CacheStats.Hits <= stats1.CacheStats.Hits {
		t.Errorf("second run reused nothing: hits %d -> %d", stats1.CacheStats.Hits, stats2.CacheStats.Hits)
	}
	if !first["w"].(*matrix.MatrixBlock).Equals(second["w"].(*matrix.MatrixBlock), 0) {
		t.Error("reused run differs from the first")
	}
}
