package matrix

import "testing"

// The simple-versus-tiled kernel benchmarks name their kernel, so they live
// next to the unexported explicit-kernel entries (`make bench-kernels`, and the
// race smoke in `make race`, run them from this package).

// benchGEMMKernel times m x k %*% k x n on the named kernel and reports
// arithmetic throughput (gflops) alongside ns/op.
func benchGEMMKernel(b *testing.B, m, k, n int, kern gemmKernel) {
	x := RandUniform(m, k, -1, 1, 1.0, 5)
	y := RandUniform(k, n, -1, 1, 1.0, 6)
	threads := DefaultParallelism()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		multDenseDense(x, y, threads, kern)
	}
	flops := 2 * float64(m) * float64(k) * float64(n)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
}

// BenchmarkKernelGEMMStandard pins the simple blocked i-k-j kernel on a shape
// that auto-selects the tiled engine.
func BenchmarkKernelGEMMStandard(b *testing.B)     { benchGEMMKernel(b, 512, 256, 128, gemmSimple) }
func BenchmarkKernelGEMMStandard1024(b *testing.B) { benchGEMMKernel(b, 1024, 1024, 1024, gemmSimple) }
func BenchmarkKernelGEMMTiled512(b *testing.B)     { benchGEMMKernel(b, 512, 512, 512, gemmTiled) }
func BenchmarkKernelGEMMTiled1024(b *testing.B)    { benchGEMMKernel(b, 1024, 1024, 1024, gemmTiled) }
func BenchmarkKernelGEMMTiled2048(b *testing.B)    { benchGEMMKernel(b, 2048, 2048, 2048, gemmTiled) }

// benchMultiplyAccKernel times the accumulate form the blocked dist executors
// run stage-by-stage (acc += a %*% b into a preallocated accumulator).
func benchMultiplyAccKernel(b *testing.B, dim int, kern gemmKernel) {
	x := RandUniform(dim, dim, -1, 1, 1.0, 5)
	y := RandUniform(dim, dim, -1, 1, 1.0, 6)
	acc := NewDense(dim, dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := multiplyAcc(acc, x, y, 0, kern); err != nil {
			b.Fatal(err)
		}
	}
	flops := 2 * float64(dim) * float64(dim) * float64(dim)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
}

func BenchmarkKernelMultiplyAccStandard1024(b *testing.B) {
	benchMultiplyAccKernel(b, 1024, gemmSimple)
}
func BenchmarkKernelMultiplyAccTiled1024(b *testing.B) { benchMultiplyAccKernel(b, 1024, gemmTiled) }

// benchTSMMKernel times t(X) %*% X; flops counts the upper triangle both
// kernels compute (the lower half is mirrored, not recomputed).
func benchTSMMKernel(b *testing.B, rows, cols int, kern gemmKernel) {
	x := RandUniform(rows, cols, -1, 1, 1.0, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tsmm(x, 0, kern)
	}
	flops := float64(rows) * float64(cols+1) * float64(cols)
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
}

func BenchmarkKernelTSMMStandard4096x512(b *testing.B) { benchTSMMKernel(b, 4096, 512, gemmSimple) }
func BenchmarkKernelTSMMTiled4096x512(b *testing.B)    { benchTSMMKernel(b, 4096, 512, gemmTiled) }

// BenchmarkKernelTSMMSparse times the sparse TSMM on a 2000 x 40 CSR block
// at density 0.1.
func BenchmarkKernelTSMMSparse(b *testing.B) {
	x := RandUniform(2000, 40, 0, 1, 0.1, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TSMM(x, 0)
	}
}

// BenchmarkKernelCholesky512 times the blocked Cholesky factor of a 512 x 512
// normal-equations matrix (the lmDS solve); gflops counts n³/3 per factor.
func BenchmarkKernelCholesky512(b *testing.B) {
	const n = 512
	a := normalEquations(n, 9)
	threads := DefaultParallelism()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Cholesky(a, threads); err != nil {
			b.Fatal(err)
		}
	}
	flops := float64(n) * float64(n) * float64(n) / 3
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
}
