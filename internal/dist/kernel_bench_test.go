package dist

import (
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
)

// The blocked-backend benchmarks (`make bench-kernels`): the partitioned
// compressed MV executor, and each forced matmult strategy on the shape whose
// planner-chosen run is BenchmarkMatMultStrategyPlanner in the root package.

// BenchmarkCompressedDistMV times the partitioned broadcast-right executor on
// the 16384 x 128 DDC matrix of the compress package's MV benchmarks (8
// distinct values per column in random row order), reporting the bytes of
// representation streamed per op and dense-equivalent gflops.
func BenchmarkCompressedDistMV(b *testing.B) {
	noise := matrix.RandUniform(16384, 128, 0, 1, 1.0, 501)
	x := matrix.NewDense(16384, 128)
	for r := 0; r < 16384; r++ {
		for c := 0; c < 128; c++ {
			x.Set(r, c, float64(int(noise.Get(r, c)*8)))
		}
	}
	x.RecomputeNNZ()
	part, err := PartitionCompressed(compressForDist(b, x), 1024)
	if err != nil {
		b.Fatal(err)
	}
	v := matrix.RandUniform(x.Cols(), 1, -1, 1, 1.0, 80)
	dataBytes := part.InMemorySize() + int64(x.Cols()+x.Rows())*8
	flops := 2 * float64(x.Rows()) * float64(x.Cols())
	b.SetBytes(dataBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CompressedMatVec(part, v, 4); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(dataBytes), "databytes/op")
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
}

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
