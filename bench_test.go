// Benchmarks of the public API: fused pipelines and the matmult planner
// measured through Context. Kernel benchmarks live in the internal package
// that owns each kernel, bench/ measures whole scripts, and cmd/sysdsbench
// regenerates the paper's Figure 5.
package systemds_test

import (
	"testing"

	systemds "github.com/systemds/systemds-go"
	"github.com/systemds/systemds-go/internal/matrix"
)

// BenchmarkFusedPipelineEndToEnd measures the DML-level pipeline with fusion
// on and off (compile + execute, fused counters verified in tests).
func benchmarkFusedPipelineEndToEnd(b *testing.B, fusion bool) {
	x := matrix.RandUniform(1024, 256, -1, 1, 1.0, 304)
	y := matrix.RandUniform(1024, 256, -1, 1, 1.0, 305)
	v := matrix.RandUniform(256, 1, -1, 1, 1.0, 306)
	ctx := systemds.NewContext(systemds.WithFusion(fusion), systemds.WithLineage(false))
	prepared, err := ctx.Prepare("s = sum(X * Y)\ng = t(X) %*% (X %*% v)\nq = sum(g)", "s", "q")
	if err != nil {
		b.Fatal(err)
	}
	inputs := map[string]any{"X": x, "Y": y, "v": v}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prepared.Execute(inputs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFusedPipelineEndToEndOn(b *testing.B)  { benchmarkFusedPipelineEndToEnd(b, true) }
func BenchmarkFusedPipelineEndToEndOff(b *testing.B) { benchmarkFusedPipelineEndToEnd(b, false) }

// BenchmarkMatMultStrategyPlanner runs a both-over-budget multiplication
// through the engine, where the cost-based planner picks the grid join;
// BenchmarkMatMultStrategyForced{BR,GJ} in internal/dist time each physical
// strategy on the same operands.

func BenchmarkMatMultStrategyPlanner(b *testing.B) {
	const m, k, n, bs = 128, 2048, 64, 64
	x := matrix.RandUniform(m, k, -1, 1, 1.0, 401)
	y := matrix.RandUniform(k, n, -1, 1, 1.0, 402)
	ctx := systemds.NewContext(
		systemds.WithDistributedBackend(true),
		systemds.WithDistBlocksize(bs),
		systemds.WithOperatorMemBudget(int64(k*n*8/2)),
		systemds.WithLineage(false),
	)
	prepared, err := ctx.Prepare("s = sum(A %*% B)", "s")
	if err != nil {
		b.Fatal(err)
	}
	inputs := map[string]any{"A": x, "B": y}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prepared.Execute(inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreparedScoring is one call of the prepared scoring script of the
// bench row score.prepared (64 x 100 batch, lmPredict after standardizing),
// with its allocations: the call the JMLC-style API exists for.
func BenchmarkPreparedScoring(b *testing.B) {
	ctx := systemds.NewContext(systemds.WithParallelism(1))
	prepared, err := ctx.Prepare("Xs = (X - mu) / sd\nyhat = lmPredict(Xs, B)", "yhat")
	if err != nil {
		b.Fatal(err)
	}
	inputs := map[string]any{
		"X":  matrix.RandUniform(64, 100, -3, 3, 1.0, 501),
		"mu": matrix.RandUniform(1, 100, -1, 1, 1.0, 502),
		"sd": matrix.RandUniform(1, 100, 0.5, 2, 1.0, 503),
		"B":  matrix.RandUniform(100, 1, -1, 1, 1.0, 504),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := prepared.Execute(inputs); err != nil {
			b.Fatal(err)
		}
	}
}
