//go:build !amd64

package matrix

// vecLevel gates the vector kernels (GEMM micro-kernel, arithmetic row
// kernels); without an assembly implementation every path runs its scalar
// loop. A var (not a const) so kernel-equivalence tests can force the scalar
// path on any architecture.
var vecLevel = vecScalar

func gemm8x8AVX512Asm(ap, bp *float64, kc int, c *float64, ldb int) {
	panic("matrix: no assembly GEMM micro-kernel on this architecture")
}

func gemm8x8AVX2Asm(ap, bp *float64, kc int, c *float64, ldb int) {
	panic("matrix: no assembly GEMM micro-kernel on this architecture")
}
