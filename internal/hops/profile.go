package hops

import (
	"time"

	"github.com/systemds/systemds-go/internal/matrix"
)

// MachineProfile holds measured hardware characteristics. The planner does
// not read it — its decisions depend on the DAG and the configuration alone —
// it is the ruler benchmarks normalise kernel numbers against (fraction of
// peak GFLOPs, fraction of copy bandwidth). The zero value means the
// measurement failed.
//
// GFLOPS is not the hardware's peak: it is this build's own dense GEMM
// (matrix.Multiply, one thread, on the tiled engine at the detected vector
// level). A faster micro-kernel raises the ruler as well as the kernel it
// measures, so a fraction of it, such as the bench's matrix.tsmm_peak_frac,
// can fall when the kernels speed up: the 8x8 AVX-512 tile moved
// matrix.tsmm_gflops up and matrix.tsmm_peak_frac down. Compare kernel rates
// across builds in GFLOP/s, not as fractions of GFLOPS.
type MachineProfile struct {
	GFLOPS     float64
	MemBWBytes float64
	DispatchNs float64
}

// MeasureMachineProfile runs a short micro-benchmark: a small dense GEMM for
// sustained single-thread GFLOPs, a large memcpy for memory bandwidth, and a
// batch of tiny matmults for per-operation dispatch latency. It takes tens of
// milliseconds.
func MeasureMachineProfile() MachineProfile {
	const n = 256
	a := matrix.NewDense(n, n)
	b := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, float64(i+j%7)+0.5)
			b.Set(i, j, float64(i-j%5)+0.25)
		}
	}
	// best of three: the first iteration pays warm-up (page faults, frequency
	// ramp), later ones reflect sustained throughput
	bestGemm := time.Duration(1 << 62)
	for iter := 0; iter < 3; iter++ {
		start := time.Now()
		if _, err := matrix.Multiply(a, b, 1); err != nil {
			return MachineProfile{}
		}
		if d := time.Since(start); d < bestGemm {
			bestGemm = d
		}
	}
	flops := 2.0 * float64(n) * float64(n) * float64(n)
	gflops := flops / bestGemm.Seconds() / 1e9

	const bwBytes = 16 << 20
	src := make([]byte, bwBytes)
	dst := make([]byte, bwBytes)
	for i := range src {
		src[i] = byte(i)
	}
	bestCopy := time.Duration(1 << 62)
	for iter := 0; iter < 3; iter++ {
		start := time.Now()
		copy(dst, src)
		if d := time.Since(start); d < bestCopy {
			bestCopy = d
		}
	}
	// read + write traffic
	memBW := 2 * float64(bwBytes) / bestCopy.Seconds()

	tiny1 := matrix.NewDense(8, 8)
	tiny2 := matrix.NewDense(8, 8)
	const dispatchIters = 64
	start := time.Now()
	for iter := 0; iter < dispatchIters; iter++ {
		if _, err := matrix.Multiply(tiny1, tiny2, 1); err != nil {
			return MachineProfile{}
		}
	}
	dispatchNs := float64(time.Since(start).Nanoseconds()) / dispatchIters

	if gflops <= 0 || memBW <= 0 {
		return MachineProfile{}
	}
	return MachineProfile{GFLOPS: gflops, MemBWBytes: memBW, DispatchNs: dispatchNs}
}
