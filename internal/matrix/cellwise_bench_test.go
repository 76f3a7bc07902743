package matrix_test

import (
	"fmt"
	"sync"
	"testing"

	"github.com/systemds/systemds-go/internal/hops"
	"github.com/systemds/systemds-go/internal/matrix"
)

// The cellwise kernel benchmarks (`make bench-kernels`): every driver of the
// row-kernel family on the prepared-scoring batch shape (64x100, allocation
// and dispatch bound) and on the L2SVM design-matrix shape (20 000x100,
// memory bound). Throughput is reported as GB/s over the bytes the operator
// has to move — each input cell read once, each output cell written once —
// and as a fraction of the machine's measured copy bandwidth
// (hops.MachineProfile), so a number reads the same on any host. They live in
// the external test package because hops imports matrix.

var cellShapes = [][2]int{{64, 100}, {20000, 100}}

var copyBandwidth = sync.OnceValue(func() float64 { return hops.MeasureMachineProfile().MemBWBytes })

// benchCellwise times op and reports its throughput over bytesPerOp.
func benchCellwise(b *testing.B, bytesPerOp int, op func() *matrix.MatrixBlock) {
	b.Helper()
	bw := copyBandwidth()
	b.ReportAllocs()
	b.ResetTimer()
	var sink *matrix.MatrixBlock
	for i := 0; i < b.N; i++ {
		sink = op()
	}
	_ = sink
	rate := float64(bytesPerOp) * float64(b.N) / b.Elapsed().Seconds()
	b.ReportMetric(rate/1e9, "GB/s")
	if bw > 0 {
		b.ReportMetric(rate/bw, "copybw")
	}
}

func forCellShapes(b *testing.B, run func(b *testing.B, rows, cols int)) {
	for _, sh := range cellShapes {
		b.Run(fmt.Sprintf("%dx%d", sh[0], sh[1]), func(b *testing.B) { run(b, sh[0], sh[1]) })
	}
}

func BenchmarkCellwiseScalar(b *testing.B) {
	forCellShapes(b, func(b *testing.B, rows, cols int) {
		x := matrix.RandUniform(rows, cols, -1, 1, 1.0, 5)
		benchCellwise(b, 16*rows*cols, func() *matrix.MatrixBlock {
			return matrix.ScalarOp(x, 0.5, matrix.OpMul, false, 1)
		})
	})
}

func benchCellwiseBinary(b *testing.B, rows, cols, yRows, yCols int) {
	x := matrix.RandUniform(rows, cols, -1, 1, 1.0, 5)
	y := matrix.RandUniform(yRows, yCols, 1, 2, 1.0, 6)
	benchCellwise(b, 8*(2*rows*cols+yRows*yCols), func() *matrix.MatrixBlock {
		out, err := matrix.CellwiseOp(x, y, matrix.OpSub, 1)
		if err != nil {
			b.Fatal(err)
		}
		return out
	})
}

func BenchmarkCellwiseSameDim(b *testing.B) {
	forCellShapes(b, func(b *testing.B, rows, cols int) { benchCellwiseBinary(b, rows, cols, rows, cols) })
}

func BenchmarkCellwiseBroadcastRow(b *testing.B) {
	forCellShapes(b, func(b *testing.B, rows, cols int) { benchCellwiseBinary(b, rows, cols, 1, cols) })
}

func BenchmarkCellwiseBroadcastCol(b *testing.B) {
	forCellShapes(b, func(b *testing.B, rows, cols int) { benchCellwiseBinary(b, rows, cols, rows, 1) })
}

// standardize is Xs = (X - mu) / sd, the prepared-scoring chain.
var standardize = &matrix.CellProgram{
	Instrs: []matrix.CellInstr{
		{Code: matrix.CellLoad, Arg: 0}, {Code: matrix.CellLoad, Arg: 1}, {Code: matrix.CellBinary, Bin: matrix.OpSub},
		{Code: matrix.CellLoad, Arg: 2}, {Code: matrix.CellBinary, Bin: matrix.OpDiv},
	},
	NumArgs: 3,
}

// benchStandardize times the fused (X - mu) / sd with row vectors mu and sd.
// The output array comes from a free list and goes back to it every
// iteration, as an engine's does, so the ruler reads the kernel and not the
// allocator zeroing a fresh output.
func benchStandardize(b *testing.B, rows, cols int) {
	x := matrix.RandUniform(rows, cols, -3, 3, 1.0, 5)
	mu := matrix.RandUniform(1, cols, -1, 1, 1.0, 6)
	sd := matrix.RandUniform(1, cols, 0.5, 2, 1.0, 7)
	args := []matrix.CellArg{{Mat: x}, {Mat: mu}, {Mat: sd}}
	rec := matrix.NewRecycler()
	benchCellwise(b, 16*rows*cols, func() *matrix.MatrixBlock {
		out, err := matrix.FusedCell(standardize, args, 1, rec)
		if err != nil {
			b.Fatal(err)
		}
		out.Claim()
		out.Recycle()
		return out
	})
}

// BenchmarkFusedCell2Op and BenchmarkUnfusedCell2Op run the same chain as one
// fused instruction and as two operators with a materialized intermediate;
// both report throughput over the bytes the fused form moves.
func BenchmarkFusedCell2Op(b *testing.B) { forCellShapes(b, benchStandardize) }

// BenchmarkCellwiseStandardise is the prepared-scoring chain with the AVX2
// row kernels on ("avx2") and off ("scalar", the loops they must match bit
// for bit): the kernel ruler of the vector lanes. On a machine without AVX2
// both rows run the scalar loops.
func BenchmarkCellwiseStandardise(b *testing.B) {
	forCellShapes(b, func(b *testing.B, rows, cols int) {
		for _, lanes := range []struct {
			name string
			on   bool
		}{{"avx2", true}, {"scalar", false}} {
			b.Run(lanes.name, func(b *testing.B) {
				defer matrix.SetVectorKernels(matrix.SetVectorKernels(lanes.on))
				benchStandardize(b, rows, cols)
			})
		}
	})
}

func BenchmarkUnfusedCell2Op(b *testing.B) {
	forCellShapes(b, func(b *testing.B, rows, cols int) {
		x := matrix.RandUniform(rows, cols, -3, 3, 1.0, 5)
		mu := matrix.RandUniform(1, cols, -1, 1, 1.0, 6)
		sd := matrix.RandUniform(1, cols, 0.5, 2, 1.0, 7)
		benchCellwise(b, 16*rows*cols, func() *matrix.MatrixBlock {
			d, err := matrix.CellwiseOp(x, mu, matrix.OpSub, 1)
			if err != nil {
				b.Fatal(err)
			}
			out, err := matrix.CellwiseOp(d, sd, matrix.OpDiv, 1)
			if err != nil {
				b.Fatal(err)
			}
			return out
		})
	})
}
