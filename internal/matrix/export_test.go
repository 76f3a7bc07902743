package matrix

// detectedLevel is the vector level as the machine set it.
var detectedLevel = vecLevel

// SetVectorKernels runs the vector kernels (GEMM micro-kernel, arithmetic row
// kernels) at the detected level (on) or none of them (off) for the external
// test package's benchmarks, and returns whether they were on; on a machine
// without AVX2 they stay off.
func SetVectorKernels(on bool) (prev bool) {
	prev = vecLevel > vecScalar
	vecLevel = vecScalar
	if on {
		vecLevel = detectedLevel
	}
	return prev
}
