//go:build !amd64

package matrix

// useAVX2 gates the AVX2 kernels (GEMM micro-kernel, arithmetic row
// kernels); without an assembly implementation every path runs its scalar
// loop. A var (not a const) so kernel-equivalence tests can force the scalar
// path on any architecture.
var useAVX2 = false

func gemmMicroAVX2Asm(ap, bp *float64, kc int, c *float64, ldb int) {
	panic("matrix: no assembly GEMM micro-kernel on this architecture")
}
