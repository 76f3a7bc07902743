package matrix

import "testing"

// Fused-vs-unfused pairs and the kernel-parallelism benchmarks on 2k x 2k
// dense inputs, at 1 and 4 threads. The fused kernels must show a B/op drop
// (no full-size intermediate is materialized) and, with spare cores, a
// wall-clock win from the single pass; run with -benchmem.

const fusedBenchDim = 2048

func fusedBenchData() (x, y, v *MatrixBlock) {
	x = RandUniform(fusedBenchDim, fusedBenchDim, -1, 1, 1.0, 301)
	y = RandUniform(fusedBenchDim, fusedBenchDim, -1, 1, 1.0, 302)
	v = RandUniform(fusedBenchDim, 1, -1, 1, 1.0, 303)
	return
}

// benchmarkFusedSumXY is sum(X * Y) as one fused aggregate.
func benchmarkFusedSumXY(b *testing.B, threads int) {
	x, y, _ := fusedBenchData()
	prog := &CellProgram{
		Instrs: []CellInstr{
			{Code: CellLoad, Arg: 0}, {Code: CellLoad, Arg: 1},
			{Code: CellBinary, Bin: OpMul},
		},
		NumArgs: 2, Annihilating: true,
	}
	args := []CellArg{{Mat: x}, {Mat: y}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FusedAgg(prog, AggSum, args, threads); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkUnfusedSumXY(b *testing.B, threads int) {
	x, y, _ := fusedBenchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prod, err := CellwiseOp(x, y, OpMul, threads)
		if err != nil {
			b.Fatal(err)
		}
		_ = Sum(prod, threads)
	}
}

func BenchmarkFusedSumXYThreads1(b *testing.B)   { benchmarkFusedSumXY(b, 1) }
func BenchmarkFusedSumXYThreads4(b *testing.B)   { benchmarkFusedSumXY(b, 4) }
func BenchmarkUnfusedSumXYThreads1(b *testing.B) { benchmarkUnfusedSumXY(b, 1) }
func BenchmarkUnfusedSumXYThreads4(b *testing.B) { benchmarkUnfusedSumXY(b, 4) }

// benchmarkFusedMMChain is t(X) %*% (X %*% v) in one pass over X.
func benchmarkFusedMMChain(b *testing.B, threads int) {
	x, _, v := fusedBenchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MMChain(x, v, nil, threads); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkUnfusedMMChain(b *testing.B, threads int) {
	x, _, v := fusedBenchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		xv, err := Multiply(x, v, threads)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := Multiply(Transpose(x), xv, threads); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFusedMMChainThreads1(b *testing.B)   { benchmarkFusedMMChain(b, 1) }
func BenchmarkFusedMMChainThreads4(b *testing.B)   { benchmarkFusedMMChain(b, 4) }
func BenchmarkUnfusedMMChainThreads1(b *testing.B) { benchmarkUnfusedMMChain(b, 1) }
func BenchmarkUnfusedMMChainThreads4(b *testing.B) { benchmarkUnfusedMMChain(b, 4) }

// BenchmarkFusedXtY is the transpose-free t(X) %*% y on the tall-skinny shape
// of the iterative scripts (the bench/ l2svm.dense workload's 20 000 x 100).
func BenchmarkFusedXtY(b *testing.B) {
	x := RandUniform(20000, 100, -1, 1, 1.0, 311)
	y := RandUniform(20000, 1, -1, 1, 1.0, 312)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TransposeMultiply(x, y, 2); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkKernelParallelCellwise(b *testing.B, threads int) {
	x, y, _ := fusedBenchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CellwiseOp(x, y, OpAdd, threads); err != nil {
			b.Fatal(err)
		}
	}
}

func benchmarkKernelParallelSum(b *testing.B, threads int) {
	x, _, _ := fusedBenchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Sum(x, threads)
	}
}

func benchmarkKernelParallelColSums(b *testing.B, threads int) {
	x, _, _ := fusedBenchData()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ColSums(x, threads)
	}
}

func BenchmarkKernelParallelCellwiseThreads1(b *testing.B) { benchmarkKernelParallelCellwise(b, 1) }
func BenchmarkKernelParallelCellwiseThreads4(b *testing.B) { benchmarkKernelParallelCellwise(b, 4) }
func BenchmarkKernelParallelSumThreads1(b *testing.B)      { benchmarkKernelParallelSum(b, 1) }
func BenchmarkKernelParallelSumThreads4(b *testing.B)      { benchmarkKernelParallelSum(b, 4) }
func BenchmarkKernelParallelColSumsThreads1(b *testing.B)  { benchmarkKernelParallelColSums(b, 1) }
func BenchmarkKernelParallelColSumsThreads4(b *testing.B)  { benchmarkKernelParallelColSums(b, 4) }
