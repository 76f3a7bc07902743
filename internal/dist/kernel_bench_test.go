package dist

import (
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
)

// The blocked-backend benchmarks (`make bench-kernels`): each forced matmult
// strategy on the shape whose planner-chosen run is
// BenchmarkMatMultStrategyPlanner in the root package.

// benchmarkMatMultStrategyForced times one physical strategy on
// pre-partitioned 128 x 2048 and 2048 x 64 operands (64-blocks).
func benchmarkMatMultStrategyForced(b *testing.B, run func(ba, bb *BlockedMatrix, rb *matrix.MatrixBlock) error) {
	x := matrix.RandUniform(128, 2048, -1, 1, 1.0, 401)
	y := matrix.RandUniform(2048, 64, -1, 1, 1.0, 402)
	ba, err := FromMatrixBlock(x, 64)
	if err != nil {
		b.Fatal(err)
	}
	bb, err := FromMatrixBlock(y, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := run(ba, bb, y); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatMultStrategyForcedBR(b *testing.B) {
	benchmarkMatMultStrategyForced(b, func(ba, _ *BlockedMatrix, rb *matrix.MatrixBlock) error {
		_, err := MatMult(ba, rb, 0)
		return err
	})
}

func BenchmarkMatMultStrategyForcedGJ(b *testing.B) {
	benchmarkMatMultStrategyForced(b, func(ba, bb *BlockedMatrix, _ *matrix.MatrixBlock) error {
		_, err := MatMultBB(ba, bb, 0)
		return err
	})
}

func BenchmarkMatMultStrategyForcedSH(b *testing.B) {
	benchmarkMatMultStrategyForced(b, func(ba, bb *BlockedMatrix, _ *matrix.MatrixBlock) error {
		_, err := MatMultShuffle(ba, bb, 0)
		return err
	})
}

// BenchmarkXtYBlocked times t(X) %*% y over a partitioned X on the
// dist.loop.spill row's shape: 4000 x 200 in 1024-row blocks, a local
// 4000 x 1 y, no transpose.
func BenchmarkXtYBlocked(b *testing.B) {
	x := matrix.RandUniform(4000, 200, 0, 1, 1.0, 403)
	y := matrix.RandUniform(4000, 1, -1, 1, 1.0, 404)
	bx, err := FromMatrixBlock(x, 1024)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(4000 * 200 * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := XtY(bx, y, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}
