package core

import (
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
)

// TestReusedValueIsCountedByTheRunThatUsesIt: a value the reuse cache hands
// to a later run is collected or decompressed on that run's account, not on
// the account of the run that created it.
func TestReusedValueIsCountedByTheRunThatUsesIt(t *testing.T) {
	t.Run("blocked collect", func(t *testing.T) {
		cfg := runtime.DefaultConfig()
		cfg.DistEnabled = true
		cfg.OperatorMemBudget = 64 * 1024
		cfg.ReuseEnabled = true
		eng := NewEngine(cfg)
		in := map[string]any{
			"X": matrix.RandUniform(200, 50, 0, 1, 1.0, 1),
			"W": matrix.RandUniform(50, 10, 0, 1, 1.0, 2),
		}
		script := `Y = (X + X) %*% W; s = sum(Y)`
		_, first, err := eng.Execute(script, in, []string{"s"})
		if err != nil {
			t.Fatal(err)
		}
		if want := (runtime.DistStats{Partitions: 1, ViewPartitions: 1, BlockedOps: 3}); first.DistStats != want {
			t.Fatalf("first run: %+v, want %+v", first.DistStats, want)
		}
		// Y is a cache hit and stays blocked until the output sink collects it
		_, second, err := eng.Execute(script, in, []string{"Y"})
		if err != nil {
			t.Fatal(err)
		}
		if second.CacheStats.Hits == 0 {
			t.Fatalf("second run hit nothing in the cache: %+v", second.CacheStats)
		}
		if want := (runtime.DistStats{Collects: 1}); second.DistStats != want {
			t.Errorf("second run: %+v, want %+v", second.DistStats, want)
		}
	})
	t.Run("compressed decompression", func(t *testing.T) {
		cfg := runtime.DefaultConfig()
		cfg.CompressionEnabled = true
		cfg.ReuseEnabled = true
		eng := NewEngine(cfg)
		in := map[string]any{"X": lowCardFeatures(2000, 200, 21), "y": matrix.RandUniform(2000, 1, -1, 1, 1.0, 22)}
		_, first, err := eng.Execute(lmLoopScript, in, []string{"s"})
		if err != nil {
			t.Fatal(err)
		}
		if first.CompressStats.Compressions != 1 || first.CompressStats.Decompressions != 0 {
			t.Fatalf("first run: %+v, want one compression and no decompression", first.CompressStats)
		}
		// the compression of X is a cache hit; the output sink decompresses it
		_, second, err := eng.Execute(lmLoopScript, in, []string{"X"})
		if err != nil {
			t.Fatal(err)
		}
		cs := second.CompressStats
		if cs.Compressions != 0 || cs.Decompressions != 1 || cs.DecompressionsByOp["output"] != 1 {
			t.Errorf("second run: %+v, want no compression and one decompression against \"output\"", cs)
		}
	})
}

// TestLastRunStatsAfterFailedRun: a failed run's statistics, counted up to
// the failure, replace the previous run's.
func TestLastRunStatsAfterFailedRun(t *testing.T) {
	eng := distEngine(64 * 1024)
	in := map[string]any{"X": matrix.RandUniform(200, 50, 0, 1, 1.0, 1)}
	if _, _, err := eng.Execute(`s = sum(X + X)`, in, []string{"s"}); err != nil {
		t.Fatal(err)
	}
	if got := eng.LastRunStats().DistStats.BlockedOps; got != 2 {
		t.Fatalf("first run: %d blocked ops, want 2", got)
	}
	out, stats, err := eng.Execute(`Y = X + X; stop("boom"); s = sum(Y)`, in, []string{"s"})
	if err == nil || out != nil || stats != nil {
		t.Fatalf("failing run returned (%v, %v, %v), want (nil, nil, error)", out, stats, err)
	}
	if got := eng.LastRunStats().DistStats.BlockedOps; got != 1 {
		t.Errorf("LastRunStats after the failed run: %d blocked ops, want 1", got)
	}
}

// TestChildContextsCountIntoTheRun: parfor workers and function scopes count
// into the statistics of the run that started them.
func TestChildContextsCountIntoTheRun(t *testing.T) {
	cfg := runtime.DefaultConfig()
	cfg.Parallelism = 4
	eng := NewEngine(cfg)
	in := map[string]any{"X": matrix.RandUniform(200, 50, 0, 1, 1.0, 1)}
	for _, tc := range []struct {
		name, script string
		want         int64
	}{
		{"parfor", `R = matrix(0, 1, 8)
parfor (j in 1:8) {
  R[1, j] = j * sum(abs(X) + X * X)
}
s = sum(R)`, 8},
		{"function", `f = function(Matrix[Double] A) return (Double s) {
  s = sum(abs(A) + A * A)
}
s = f(X)`, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, stats, err := eng.Execute(tc.script, in, []string{"s"})
			if err != nil {
				t.Fatal(err)
			}
			if got := stats.FusedStats.FusedAggOps; got != tc.want {
				t.Errorf("fused aggregates = %d, want %d", got, tc.want)
			}
		})
	}
}
