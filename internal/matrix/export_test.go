package matrix

// avx2Detected is the gate as the machine set it.
var avx2Detected = useAVX2

// SetVectorKernels turns the AVX2 kernels (GEMM micro-kernel, arithmetic row
// kernels) on or off for the external test package's benchmarks and returns
// the previous setting; on a machine without AVX2 they stay off.
func SetVectorKernels(on bool) (prev bool) {
	prev, useAVX2 = useAVX2, on && avx2Detected
	return prev
}
