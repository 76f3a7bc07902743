package matrix

// gemmMicroAVX2Asm accumulates one 4x4 output tile from packed micro-panels
// with VMULPD+VADDPD lanes (one output cell per lane, k ascending) — bitwise
// identical to the scalar micro-kernel for the same tile. ldb is the row
// stride of c in bytes. Implemented in gemm_amd64.s.
//
//go:noescape
func gemmMicroAVX2Asm(ap, bp *float64, kc int, c *float64, ldb int)

// x86HasAVX2 reports whether the CPU and OS support AVX2 (CPUID + XGETBV).
// Implemented in gemm_amd64.s.
func x86HasAVX2() bool

// useAVX2 is the one gate of the AVX2 kernels, the GEMM micro-kernel and the
// arithmetic row kernels (cell_amd64.s): when false every path runs its
// bitwise-identical scalar loop. A var, so tests can force the scalar
// reference.
var useAVX2 = x86HasAVX2()
