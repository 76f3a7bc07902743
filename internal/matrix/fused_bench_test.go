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
		if _, err := FusedAgg(prog, mustAgg("sum"), args, threads); err != nil {
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

// l2svmGradient is the row program of l2svm's gradient on its loop body's
// DAG: y * margin * (margin > 0) with margin = 1 - y * q, margin's program
// emitted at each of its two uses. Arguments: q, y, the literals 1 and 0.
func l2svmGradient() *CellProgram {
	margin := []CellInstr{{Code: CellLoad, Arg: 2}, {Code: CellLoad, Arg: 1}, {Code: CellLoad, Arg: 0},
		{Code: CellBinary, Bin: OpMul}, {Code: CellBinary, Bin: OpSub}}
	instrs := []CellInstr{{Code: CellLoad, Arg: 1}}
	instrs = append(instrs, margin...)
	instrs = append(instrs, CellInstr{Code: CellBinary, Bin: OpMul})
	instrs = append(instrs, margin...)
	instrs = append(instrs, CellInstr{Code: CellLoad, Arg: 3}, CellInstr{Code: CellBinary, Bin: OpGreater},
		CellInstr{Code: CellBinary, Bin: OpMul})
	return &CellProgram{Instrs: instrs, NumArgs: 4}
}

// rowChainBenchData is the l2svm.dense shape of bench/: X 20 000 x 100, w and
// labels y in {-1, 1}.
func rowChainBenchData() (x, v, y *MatrixBlock) {
	x = RandUniform(20000, 100, -1, 1, 1.0, 321)
	v = RandUniform(100, 1, -1, 1, 1.0, 322)
	y = RandUniform(20000, 1, -1, 1, 1.0, 323)
	for i, yv := range y.dense {
		y.dense[i] = 1
		if yv < 0 {
			y.dense[i] = -1
		}
	}
	return
}

// benchmarkRowChain is l2svm's t(X) %*% (y * margin * (margin > 0)) in one
// pass over X.
func benchmarkRowChain(b *testing.B, threads int) {
	x, v, y := rowChainBenchData()
	prog, args := l2svmGradient(), []CellArg{{}, {Mat: y}, {Scalar: 1}, {Scalar: 0}}
	b.SetBytes(int64(len(x.dense)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RowChain(x, v, prog, args, threads); err != nil {
			b.Fatal(err)
		}
	}
}

// benchmarkRowChainUnfused is the same gradient as the plan without the Row
// template runs it: MV, the fused cellwise chain, then xty.
func benchmarkRowChainUnfused(b *testing.B, threads int) {
	x, v, y := rowChainBenchData()
	prog := l2svmGradient()
	b.SetBytes(int64(len(x.dense)) * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := Multiply(x, v, threads)
		if err != nil {
			b.Fatal(err)
		}
		f, err := FusedCell(prog, []CellArg{{Mat: q}, {Mat: y}, {Scalar: 1}, {Scalar: 0}}, threads, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := TransposeMultiply(x, f, threads); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRowChainThreads1(b *testing.B)        { benchmarkRowChain(b, 1) }
func BenchmarkRowChainThreads2(b *testing.B)        { benchmarkRowChain(b, 2) }
func BenchmarkRowChainUnfusedThreads1(b *testing.B) { benchmarkRowChainUnfused(b, 1) }
func BenchmarkRowChainUnfusedThreads2(b *testing.B) { benchmarkRowChainUnfused(b, 2) }

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
