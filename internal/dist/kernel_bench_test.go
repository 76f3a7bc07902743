package dist

import (
	"fmt"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
)

// The blocked-backend benchmarks (`make bench-kernels`): each forced matmult
// strategy on the shape whose planner-chosen run is
// BenchmarkMatMultStrategyPlanner in the root package, xty and TSMM.

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

// BenchmarkTSMMBlocked times t(X) %*% X over a partitioned X at two pool
// workers: the row strips added in ascending order into one accumulator, on
// a tall narrow X (100 000 x 60 in 1000-row blocks) and on the
// dist.loop.spill row's shape (4000 x 200 in 1024-row blocks).
func BenchmarkTSMMBlocked(b *testing.B) {
	for _, sh := range []struct{ m, n, bs int }{{100000, 60, 1000}, {4000, 200, 1024}} {
		b.Run(fmt.Sprintf("%dx%d", sh.m, sh.n), func(b *testing.B) {
			x := matrix.RandUniform(sh.m, sh.n, -1, 1, 1.0, 405)
			bx, err := FromMatrixBlock(x, sh.bs)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(int64(sh.m * sh.n * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := TSMM(bx, 2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
