package core

import (
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
)

// TestConcurrentParforRecompile: parfor workers recompile the body's blocks
// against their own live sizes at the same time; the compiler state those
// recompiles share (the compressed-variable tracking above all, written by
// every DAG flush) must be synchronized. Run under -race; the results must
// also equal the single-worker run.
func TestConcurrentParforRecompile(t *testing.T) {
	x := lowCardFeatures(400, 12, 91)
	y := matrix.RandUniform(400, 1, -1, 1, 1.0, 92)
	// every iteration slices a different width, so no two recompiles share a
	// size signature and the per-block memo never short-circuits them
	script := `m = ncol(X)
R = matrix(0, rows=m, cols=1)
parfor (i in 1:m) {
  Xi = X[, 1:i]
  w = matrix(0, rows=i, cols=1)
  for (k in 1:3) {
    g = t(Xi) %*% (Xi %*% w - y)
    w = w - 0.0001 * g
  }
  if (i > 0) {
    s = sum(w)
  }
  R[i, 1] = s
}`
	run := func(workers int) *matrix.MatrixBlock {
		cfg := runtime.DefaultConfig()
		cfg.Parallelism = workers
		cfg.CompressionEnabled = true
		res, _, err := NewEngine(cfg).Execute(script, map[string]any{"X": x, "y": y}, []string{"R"})
		if err != nil {
			t.Fatalf("%d workers: %v", workers, err)
		}
		return res["R"].(*matrix.MatrixBlock)
	}
	want := run(1)
	for rep := 0; rep < 3; rep++ {
		if got := run(4); !got.Equals(want, 1e-12) {
			t.Fatalf("4-worker parfor differs from the sequential run")
		}
	}
}
