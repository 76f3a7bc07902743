package matrix

// gemm8x8AVX512Asm accumulates one 8x8 output tile from packed
// micro-panels with eight ZMM accumulators (one output cell per lane,
// VMULPD then VADDPD, k ascending). ldb is the row stride of c in bytes.
// Implemented in gemm_amd64.s.
//
//go:noescape
func gemm8x8AVX512Asm(ap, bp *float64, kc int, c *float64, ldb int)

// gemm8x8AVX2Asm accumulates the same tile as two 8x4 halves, each with
// eight YMM accumulators, in the same per-cell sequence. Implemented in
// gemm_amd64.s.
//
//go:noescape
func gemm8x8AVX2Asm(ap, bp *float64, kc int, c *float64, ldb int)

// x86VectorLevel reports the widest vector unit the CPU and the OS support
// (CPUID + XGETBV). Implemented in gemm_amd64.s.
func x86VectorLevel() vectorLevel

// vecLevel is the one gate of the vector kernels, the GEMM micro-kernel and
// the arithmetic row kernels (cell_amd64.s): at vecScalar every path runs its
// bitwise-identical scalar loop. A var, so tests can force any level up to
// the detected one.
var vecLevel = x86VectorLevel()
