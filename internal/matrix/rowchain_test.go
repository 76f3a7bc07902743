package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameBits reports the first cell at which two blocks differ in their bits
// (NaN payloads and zero signs included), or "" when they are identical.
func sameBits(got, want *MatrixBlock) string {
	if got.rows != want.rows || got.cols != want.cols {
		return fmt.Sprintf("shape %dx%d, want %dx%d", got.rows, got.cols, want.rows, want.cols)
	}
	for r := 0; r < want.rows; r++ {
		for c := 0; c < want.cols; c++ {
			if g, w := got.Get(r, c), want.Get(r, c); math.Float64bits(g) != math.Float64bits(w) {
				return fmt.Sprintf("cell (%d,%d) = %v, want %v", r, c, g, w)
			}
		}
	}
	return ""
}

// genRowProgram generates a random cell program over q (argument 0), an
// m x 1 vector (1), a scalar (2) and a 1 x 1 matrix (3): a postfix tree of
// depth at most three whose leaves are mostly q.
func genRowProgram(rng *rand.Rand) *CellProgram {
	bins := []BinaryOp{OpAdd, OpSub, OpMul, OpDiv, OpMin, OpMax, OpGreater, OpLess, OpEqual}
	uns := []UnaryOp{OpNeg, OpAbs, OpSigmoid, OpExp, OpSqrt, OpSign}
	p := &CellProgram{NumArgs: 4}
	var gen func(depth int)
	gen = func(depth int) {
		switch k := rng.Intn(4); {
		case depth == 0 || k == 0:
			arg := 0
			if rng.Intn(2) == 0 {
				arg = rng.Intn(4)
			}
			p.Instrs = append(p.Instrs, CellInstr{Code: CellLoad, Arg: arg})
		case k == 1:
			gen(depth - 1)
			p.Instrs = append(p.Instrs, CellInstr{Code: CellUnary, Un: uns[rng.Intn(len(uns))]})
		default:
			gen(depth - 1)
			gen(depth - 1)
			p.Instrs = append(p.Instrs, CellInstr{Code: CellBinary, Bin: bins[rng.Intn(len(bins))]})
		}
	}
	gen(3)
	return p
}

// unfusedRowChain is the plan RowChain replaces: MV, the cellwise program
// over the materialized q, then the transpose-free t(X) %*% f.
func unfusedRowChain(t *testing.T, x, v *MatrixBlock, prog *CellProgram, args []CellArg, threads int) *MatrixBlock {
	t.Helper()
	q, err := Multiply(x, v, threads)
	if err != nil {
		t.Fatal(err)
	}
	full := append([]CellArg{{Mat: q}}, args[1:]...)
	f, err := FusedCell(prog, full, threads, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := TransposeMultiply(x, f, threads)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestRowChainBitwiseEqualsUnfused holds the one-pass kernel to the bits of
// MV, then FusedCell, then TransposeMultiply, over generated programs, ragged
// row counts (one below, at and above the 128-row chunk and a 4-row block),
// dense and CSR X, dense, sparse and empty v, and 1, 2, 3 and 7 threads. The
// 9 x 5000 shape has n > 4096, where XtYChunks caps the chunk count below the
// fixed 128-row chunking. The "inf" v stores an Inf where dense X has a zero:
// X %*% v skips the zero, so q stays finite there.
func TestRowChainBitwiseEqualsUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	shapes := [][2]int{{1, 3}, {7, 5}, {127, 13}, {129, 31}, {517, 40}, {9, 5000}, {300, 4500}}
	for si, sh := range shapes {
		m, n := sh[0], sh[1]
		xs := map[string]*MatrixBlock{
			"dense": RandUniform(m, n, -1, 1, 1.0, int64(10+si)),
			"csr":   RandUniform(m, n, -1, 1, 0.1, int64(20+si)).ToSparse(),
		}
		vs := map[string]*MatrixBlock{
			"dense":  RandUniform(n, 1, -1, 1, 1.0, int64(30+si)),
			"sparse": RandUniform(n, 1, -1, 1, 0.2, int64(40+si)).ToSparse(),
			"empty":  NewDense(n, 1).ToSparse(),
		}
		inf := NewDense(n, 1)
		inf.Set(n-1, 0, math.Inf(1))
		vs["inf"] = inf.ToSparse()
		xs["dense"].Set(m-1, n-1, 0)
		y := RandUniform(m, 1, -2, 2, 1.0, int64(50+si))
		for _, xk := range []string{"dense", "csr"} {
			for _, vk := range []string{"dense", "sparse", "empty", "inf"} {
				x, v := xs[xk], vs[vk]
				for p := 0; p < 6; p++ {
					prog := genRowProgram(rng)
					args := []CellArg{{}, {Mat: y}, {Scalar: rng.Float64()*4 - 2}, {Mat: NewDenseFromSlice(1, 1, []float64{0.5})}}
					want := unfusedRowChain(t, x, v, prog, args, 1)
					for _, th := range []int{1, 2, 3, 7} {
						got, err := RowChain(x, v, prog, args, th)
						if err != nil {
							t.Fatal(err)
						}
						if d := sameBits(got, want); d != "" {
							t.Fatalf("%dx%d %s X, %s v, program %s, T=%d: %s", m, n, xk, vk, prog.Signature(), th, d)
						}
					}
				}
			}
		}
	}
}

// oldMultDenseSparse is the dense-sparse multiply as it walked every cell of
// the dense operand, kept as the bitwise reference of the CSR-driven loop.
func oldMultDenseSparse(a, b *MatrixBlock) *MatrixBlock {
	m, k, n := a.rows, a.cols, b.cols
	out := NewDense(m, n)
	s := b.csr()
	for i := 0; i < m; i++ {
		ci := out.dense[i*n : (i+1)*n]
		ai := a.dense[i*k : (i+1)*k]
		for kp := 0; kp < k; kp++ {
			aval := ai[kp]
			if aval == 0 {
				continue
			}
			for p := s.RowPtr[kp]; p < s.RowPtr[kp+1]; p++ {
				ci[s.ColIdx[p]] += float64(aval * s.Values[p])
			}
		}
	}
	out.RecomputeNNZ()
	return out
}

// TestMultDenseSparseVisitsOnlyStoredRows holds the CSR-driven dense-sparse
// multiply to the bits and non-zero count of the full i-k-j loop on ragged
// shapes, with an empty, a one-entry and a dense right-hand side, at 1, 2 and
// 3 threads. A has zeros and an Inf in rows the right-hand side skips.
func TestMultDenseSparseVisitsOnlyStoredRows(t *testing.T) {
	for si, sh := range [][3]int{{1, 1, 1}, {7, 13, 1}, {130, 33, 3}, {517, 70, 5}} {
		m, k, n := sh[0], sh[1], sh[2]
		a := RandUniform(m, k, -1, 1, 0.7, int64(60+si)).ToDense()
		a.Set(m-1, 0, math.Inf(1))
		one := NewDense(k, n)
		one.Set(k-1, n-1, 2.5)
		rhs := map[string]*MatrixBlock{
			"empty": NewDense(k, n).ToSparse(),
			"one":   one.ToSparse(),
			"dense": RandUniform(k, n, -1, 1, 1.0, int64(70+si)).ToSparse(),
		}
		for _, name := range []string{"empty", "one", "dense"} {
			b := rhs[name]
			want := oldMultDenseSparse(a, b)
			for _, th := range []int{1, 2, 3} {
				got := multDenseSparse(a, b, th)
				if d := sameBits(got, want); d != "" {
					t.Fatalf("%dx%dx%d %s b, T=%d: %s", m, k, n, name, th, d)
				}
				if got.NNZ() != want.NNZ() {
					t.Errorf("%dx%dx%d %s b, T=%d: nnz %d, want %d", m, k, n, name, th, got.NNZ(), want.NNZ())
				}
			}
		}
	}
}
