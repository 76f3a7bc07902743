package compress

import (
	"fmt"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
)

// The compressed kernel benchmarks (`make bench-kernels`), each next to the
// dense or decompress-then-dense baseline it replaces, on 16384 x 128
// low-cardinality matrices. databytes/op is the bytes of matrix
// representation a kernel streams per operation (the quantity compression
// shrinks); gflops is the throughput of the equivalent dense computation.

// ddcBenchMatrix has 8 distinct values per column in random row order: the
// dense-dictionary-coding regime at low cardinality, where the planner
// co-codes adjacent columns in pairs (cc=64).
func ddcBenchMatrix() *matrix.MatrixBlock {
	noise := matrix.RandUniform(16384, 128, 0, 1, 1.0, 501)
	x := matrix.NewDense(16384, 128)
	for r := 0; r < 16384; r++ {
		for c := 0; c < 128; c++ {
			x.Set(r, c, float64(int(noise.Get(r, c)*8)))
		}
	}
	x.RecomputeNNZ()
	return x
}

// wideDictBenchMatrix has 512 distinct values per column in random row order:
// above the co-coding candidate cardinality, so every column stays a
// single-column DDC group with two-byte codes (ddc=128).
func wideDictBenchMatrix() *matrix.MatrixBlock {
	noise := matrix.RandUniform(16384, 128, 0, 1, 1.0, 503)
	x := matrix.NewDense(16384, 128)
	for r := 0; r < 16384; r++ {
		for c := 0; c < 128; c++ {
			x.Set(r, c, float64(int(noise.Get(r, c)*512)))
		}
	}
	x.RecomputeNNZ()
	return x
}

// rleBenchMatrix changes value every 256 rows: the run-length regime.
func rleBenchMatrix() *matrix.MatrixBlock {
	x := matrix.NewDense(16384, 128)
	for r := 0; r < 16384; r++ {
		for c := 0; c < 128; c++ {
			x.Set(r, c, float64(((r/256)+c)%16))
		}
	}
	x.RecomputeNNZ()
	return x
}

// tsmmBenchMatrix is the co-coded regime the compressed TSMM targets: 16
// bands of 8 adjacent columns each derive from one shared 8-valued signal
// (plus a per-column offset), so the greedy co-coding planner collapses each
// band into one tuple-dictionary group and the Gram matrix reduces to a few
// dozen small dictionary cross products instead of a dense O(rows * n^2)
// sweep. Independent-column DDC data (ddcBenchMatrix) stays the driver of the
// MV/MM benchmarks, where per-group pre-aggregation wins on its own.
func tsmmBenchMatrix() *matrix.MatrixBlock {
	const rows, cols, band = 16384, 128, 8
	x := matrix.NewDense(rows, cols)
	noise := matrix.RandUniform(rows, cols/band, 0, 1, 1.0, 502)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			signal := float64(int(noise.Get(r, c/band) * 8))
			x.Set(r, c, signal+float64(c%band))
		}
	}
	x.RecomputeNNZ()
	return x
}

func compressBench(b *testing.B, x *matrix.MatrixBlock) *CompressedMatrix {
	b.Helper()
	cm, plan, ok := Compress(x, PlannerConfig{}, 1)
	if !ok {
		b.Fatalf("benchmark input did not compress: %v", plan)
	}
	return cm
}

// benchKernel times op and reports dataBytes (per op) and, when flops > 0,
// the dense-equivalent throughput.
func benchKernel(b *testing.B, dataBytes int64, flops float64, op func() error) {
	b.Helper()
	b.SetBytes(dataBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := op(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(dataBytes), "databytes/op")
	if flops > 0 {
		b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
	}
}

// BenchmarkCompressedMV{DDC,CoCoded,RLE,Uncompressed} time the matrix-vector
// product on single-column DDC groups, on co-coded pairs, on runs and on the
// dense block of the co-coded input; every path allocates the same output
// vector.
func compressedMVBench(b *testing.B, x *matrix.MatrixBlock) {
	cm := compressBench(b, x)
	v := matrix.RandUniform(x.Cols(), 1, -1, 1, 1.0, 77)
	benchKernel(b, cm.InMemorySize()+int64(x.Cols()+x.Rows())*8, 0, func() error {
		_, err := cm.MatVec(v, 1)
		return err
	})
}

func BenchmarkCompressedMVDDC(b *testing.B) { compressedMVBench(b, wideDictBenchMatrix()) }

func BenchmarkCompressedMVCoCoded(b *testing.B) { compressedMVBench(b, ddcBenchMatrix()) }

func BenchmarkCompressedMVRLE(b *testing.B) { compressedMVBench(b, rleBenchMatrix()) }

func BenchmarkCompressedMVUncompressed(b *testing.B) {
	x := ddcBenchMatrix()
	v := matrix.RandUniform(x.Cols(), 1, -1, 1, 1.0, 77)
	benchKernel(b, x.InMemorySize()+int64(x.Cols()+x.Rows())*8, 0, func() error {
		_, err := matrix.Multiply(x, v, 1)
		return err
	})
}

// BenchmarkCompressedLoopEpoch times one epoch of the compressed gradient
// step (X %*% w, then t(X) %*% r via the vector-matrix kernel) against the
// same epoch on the dense block.
func BenchmarkCompressedLoopEpoch(b *testing.B) {
	x := ddcBenchMatrix()
	cm := compressBench(b, x)
	w := matrix.RandUniform(x.Cols(), 1, -1, 1, 1.0, 78)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := cm.MatVec(w, 1)
		if err == nil {
			q, err = q.Reshape(1, x.Rows(), true)
		}
		if err == nil {
			_, err = cm.VecMat(q, 1)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUncompressedLoopEpoch(b *testing.B) {
	x := ddcBenchMatrix()
	w := matrix.RandUniform(x.Cols(), 1, -1, 1, 1.0, 78)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := []matrix.CellArg{{}}
		if _, err := matrix.RowChain(x, w, &matrix.CellProgram{Instrs: []matrix.CellInstr{{Code: matrix.CellLoad}}, NumArgs: 1}, q, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCompressedTSMM times the Gram matrix t(X) %*% X straight off the
// column-group dictionaries (counts-weighted self products, co-occurrence-
// weighted cross products); the Decompress variant is the fallback it
// replaces, decompress then tiled dense TSMM.
func BenchmarkCompressedTSMM(b *testing.B) {
	x := tsmmBenchMatrix()
	cm := compressBench(b, x)
	benchKernel(b, cm.InMemorySize(), float64(x.Rows())*float64(x.Cols())*float64(x.Cols()), func() error {
		cm.TSMM(1)
		return nil
	})
}

func BenchmarkCompressedTSMMDecompress(b *testing.B) {
	x := tsmmBenchMatrix()
	cm := compressBench(b, x)
	benchKernel(b, x.InMemorySize(), float64(x.Rows())*float64(x.Cols())*float64(x.Cols()), func() error {
		matrix.TSMM(cm.Decompress(), 1)
		return nil
	})
}

// BenchmarkCompressedMMDense times the matrix right-hand-side kernel X %*% B;
// the Decompress variant is decompress then dense multiply.
const mmDenseK = 16

func BenchmarkCompressedMMDense(b *testing.B) {
	x := ddcBenchMatrix()
	cm := compressBench(b, x)
	rhs := matrix.RandUniform(x.Cols(), mmDenseK, -1, 1, 1.0, 79)
	dataBytes := cm.InMemorySize() + int64(x.Cols()*mmDenseK+x.Rows()*mmDenseK)*8
	benchKernel(b, dataBytes, 2*float64(x.Rows())*float64(x.Cols())*mmDenseK, func() error {
		_, err := cm.MatMultDense(rhs, 1)
		return err
	})
}

func BenchmarkCompressedMMDenseDecompress(b *testing.B) {
	x := ddcBenchMatrix()
	cm := compressBench(b, x)
	rhs := matrix.RandUniform(x.Cols(), mmDenseK, -1, 1, 1.0, 79)
	dataBytes := x.InMemorySize() + int64(x.Cols()*mmDenseK+x.Rows()*mmDenseK)*8
	benchKernel(b, dataBytes, 2*float64(x.Rows())*float64(x.Cols())*mmDenseK, func() error {
		_, err := matrix.Multiply(cm.Decompress(), rhs, 1)
		return err
	})
}

// gdBenchMatrix is the loop.gd.compressed input: 60000 x 100 cells, each
// floor(5 * uniform), so every column has five distinct values in random
// row order and the planner co-codes adjacent columns.
func gdBenchMatrix() *matrix.MatrixBlock {
	x := matrix.RandUniform(60000, 100, 0, 5, 1.0, 504)
	v := x.DenseValues()
	for i := range v {
		v[i] = float64(int(v[i]))
	}
	x.RecomputeNNZ()
	return x
}

// gdBenchThreads is the benchmark's T.
const gdBenchThreads = 2

// benchEncodeRate times op over the input and reports gbs, the input bytes
// read per second; -benchmem adds the allocation per op.
func benchEncodeRate(b *testing.B, x *matrix.MatrixBlock, op func()) {
	b.Helper()
	inBytes := float64(x.Rows()) * float64(x.Cols()) * 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.ReportMetric(inBytes*float64(b.N)/b.Elapsed().Seconds()/1e9, "gbs")
}

// BenchmarkCompressEncode times one Compress of the loop.gd.compressed
// input at T = 2: the sample plan plus the exact encode.
func BenchmarkCompressEncode(b *testing.B) {
	x := gdBenchMatrix()
	benchEncodeRate(b, x, func() {
		if _, plan, ok := Compress(x, PlannerConfig{}, gdBenchThreads); !ok {
			b.Fatalf("benchmark input did not compress: %v", plan)
		}
	})
}

// BenchmarkCompressPlan times the sample planner alone on the same input.
func BenchmarkCompressPlan(b *testing.B) {
	x := gdBenchMatrix()
	benchEncodeRate(b, x, func() {
		if plan := EstimatePlan(x, PlannerConfig{}, gdBenchThreads); !plan.Accepted {
			b.Fatalf("benchmark input should be accepted: %v", plan)
		}
	})
}

// BenchmarkCompressedMVGD and BenchmarkCompressedVecMatGD time the two
// kernels of one loop.gd.compressed epoch on its input (34 one-byte-code
// DDC groups), at T = 1 and 2. ns/visit is the time per code read: rows
// times groups per product.
func BenchmarkCompressedMVGD(b *testing.B) {
	cm := compressBench(b, gdBenchMatrix())
	w := matrix.RandUniform(cm.NumCols, 1, -1, 1, 1.0, 78)
	benchCodeVisits(b, cm, func(threads int) error {
		_, err := cm.MatVec(w, threads)
		return err
	})
}

func BenchmarkCompressedVecMatGD(b *testing.B) {
	cm := compressBench(b, gdBenchMatrix())
	u := matrix.RandUniform(1, cm.NumRows, -1, 1, 1.0, 79)
	benchCodeVisits(b, cm, func(threads int) error {
		_, err := cm.VecMat(u, threads)
		return err
	})
}

// benchCodeVisits runs op at T = 1 and 2 and reports ns/visit.
func benchCodeVisits(b *testing.B, cm *CompressedMatrix, op func(threads int) error) {
	visits := float64(cm.NumRows) * float64(len(cm.Groups))
	for _, threads := range []int{1, 2} {
		b.Run(fmt.Sprintf("T=%d", threads), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := op(threads); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/visits, "ns/visit")
		})
	}
}
