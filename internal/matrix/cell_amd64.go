package matrix

// The AVX2 row kernels of the four arithmetic operators (cell_amd64.s): dst[i]
// = pz(a[i] op b[i]), pz(a[i] op s) and pz(s op b[i]) for i < n, n a
// positive multiple of cellLanes and op one of OpAdd, OpSub, OpMul, OpDiv,
// with the scalar loops' bits; with count set they return the non-zero count
// of what they wrote, else 0.

//go:noescape
func cellRowVV(op BinaryOp, dst, a, b *float64, n int, count bool) (nnz int)

//go:noescape
func cellRowVS(op BinaryOp, dst, a *float64, s float64, n int, count bool) (nnz int)

//go:noescape
func cellRowSV(op BinaryOp, dst *float64, s float64, b *float64, n int, count bool) (nnz int)
