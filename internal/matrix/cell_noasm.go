//go:build !amd64

package matrix

// Without an assembly implementation vecLevel is vecScalar and the row kernels
// run their scalar loops; these stubs only keep the calls compiling.

func cellRowVV(op BinaryOp, dst, a, b *float64, n int, count bool) (nnz int) {
	panic("matrix: no vector row kernels on this architecture")
}

func cellRowVS(op BinaryOp, dst, a *float64, s float64, n int, count bool) (nnz int) {
	panic("matrix: no vector row kernels on this architecture")
}

func cellRowSV(op BinaryOp, dst *float64, s float64, b *float64, n int, count bool) (nnz int) {
	panic("matrix: no vector row kernels on this architecture")
}
