package matrix

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

// tileDims exercises every micro-tile edge class: 1, tile-1, tile, tile+1,
// and sizes that leave ragged tails against the MR/NR (8) and MC/KC panel
// parameters.
var tileDims = []int{1, 3, 4, 5, 7, 8, 9, 67, 129}

func bitwiseEqual(t *testing.T, want, got *MatrixBlock, what string) {
	t.Helper()
	if !want.Equals(got, 0) {
		t.Errorf("%s: tiled result is not bitwise-equal to the simple kernel", what)
	}
	if want.NNZ() != got.NNZ() {
		t.Errorf("%s: nnz = %d, want %d", what, got.NNZ(), want.NNZ())
	}
}

// TestTiledMultiplyBitwiseEqualsSimple is the core property of the tiled
// engine: for every ragged shape and thread count, the tiled kernel is
// bitwise-identical to the simple blocked loop (not just 1e-9), so swapping
// kernels at the crossover can never perturb a result.
func TestTiledMultiplyBitwiseEqualsSimple(t *testing.T) {
	for _, m := range tileDims {
		for _, k := range tileDims {
			for _, n := range tileDims {
				a := RandUniform(m, k, -1, 1, 1.0, int64(m*100+k*10+n))
				b := RandUniform(k, n, -1, 1, 1.0, int64(m+k*10+n*100))
				for _, threads := range []int{1, 4} {
					want := multDenseDense(a, b, threads, gemmSimple)
					got := multDenseDense(a, b, threads, gemmTiled)
					bitwiseEqual(t, want, got, "multiply")
				}
			}
		}
	}
}

// TestTiledMultiplyLarge covers a shape comfortably above the auto crossover
// in one piece, so the production (auto) path is pinned against the simple
// loop at both thread counts.
func TestTiledMultiplyLarge(t *testing.T) {
	a := RandUniform(150, 140, -1, 1, 1.0, 71)
	b := RandUniform(140, 130, -1, 1, 1.0, 72)
	want := multDenseDense(a, b, 1, gemmSimple)
	for _, threads := range []int{1, 4} {
		got, err := Multiply(a, b, threads)
		if err != nil {
			t.Fatal(err)
		}
		bitwiseEqual(t, want, got, "auto multiply")
	}
}

// TestTiledMultiplyAccBitwiseEqualsSimple accumulates onto a non-zero
// accumulator with both kernels across ragged shapes and thread counts.
func TestTiledMultiplyAccBitwiseEqualsSimple(t *testing.T) {
	for _, m := range tileDims {
		for _, k := range tileDims {
			for _, n := range tileDims {
				a := RandUniform(m, k, -1, 1, 1.0, int64(m*7+k+n))
				b := RandUniform(k, n, -1, 1, 1.0, int64(m+k*7+n))
				seed := RandUniform(m, n, -1, 1, 1.0, int64(m+k+n*7))
				for _, threads := range []int{1, 4} {
					accS := seed.Copy()
					accT := seed.Copy()
					err := multiplyAcc(accS, a, b, threads, gemmSimple)
					err2 := multiplyAcc(accT, a, b, threads, gemmTiled)
					if err != nil || err2 != nil {
						t.Fatalf("%dx%dx%d: %v %v", m, k, n, err, err2)
					}
					bitwiseEqual(t, accS, accT, "multiply-acc")
				}
			}
		}
	}
}

// TestTiledMultiplyAccStripesBitwise re-verifies the stripe-accumulation
// legality property of the blocked matmult executors with the
// tiled kernel underneath — including the mixed case where the one-shot
// product selects the tiled engine while the short k-stripes fall back to the
// simple loop.
func TestTiledMultiplyAccStripesBitwise(t *testing.T) {
	const m, k, n, stripe = 37, 200, 23, 48
	a := RandUniform(m, k, -1, 1, 1.0, 61)
	b := RandUniform(k, n, -1, 1, 1.0, 62)
	for _, mode := range []gemmKernel{gemmTiled, gemmAuto} {
		want := multDenseDense(a, b, 1, mode)
		acc := NewDense(m, n)
		for k0 := 0; k0 < k; k0 += stripe {
			k1 := min(k0+stripe, k)
			as, err := Slice(a, 0, m, k0, k1)
			if err != nil {
				t.Fatal(err)
			}
			bs, err := Slice(b, k0, k1, 0, n)
			if err != nil {
				t.Fatal(err)
			}
			if err := MultiplyAcc(acc, as, bs, 2); err != nil {
				t.Fatal(err)
			}
		}
		bitwiseEqual(t, want, acc, "stripe accumulation")
	}
}

// tsmm is TSMM on an explicit dense kernel.
func tsmm(x *MatrixBlock, threads int, kern gemmKernel) *MatrixBlock {
	out := NewDense(x.cols, x.cols)
	tsmmAcc(out, x, threads, kern)
	return out
}

// TestTSMMAccStripesBitwise verifies the contract the blocked TSMM rests
// on: adding X's row stripes in ascending order with TSMMAcc reproduces the
// one-shot TSMM bitwise — dense and ~5%-dense CSR stripes, stripes the simple
// loop runs under a one-shot product on the tiled engine, and 1, 2, 3 and 7
// threads.
func TestTSMMAccStripesBitwise(t *testing.T) {
	for _, x := range []*MatrixBlock{
		RandUniform(1037, 60, -1, 1, 1.0, 71),
		RandUniform(700, 130, -1, 1, 0.05, 72).ToSparse(),
	} {
		want := TSMM(x, 1)
		for _, stripe := range []int{7, 100, 500} {
			for _, threads := range []int{1, 2, 3, 7} {
				acc := NewDense(x.cols, x.cols)
				for r0 := 0; r0 < x.rows; r0 += stripe {
					s, err := Slice(x, r0, min(r0+stripe, x.rows), 0, x.cols)
					if err != nil {
						t.Fatal(err)
					}
					if err := TSMMAcc(acc, s, threads); err != nil {
						t.Fatal(err)
					}
				}
				bitwiseEqual(t, want, acc, fmt.Sprintf("%dx%d stripes of %d, %d threads", x.rows, x.cols, stripe, threads))
			}
		}
	}
	if err := TSMMAcc(NewDense(3, 3), NewDense(5, 4), 1); err == nil {
		t.Error("an accumulator of the wrong shape should error")
	}
}

// TestTiledTSMMBitwiseEqualsSimple pins every TSMM kernel at every thread
// count against the one-thread simple triangular loop, bitwise: a dense X on
// the auto, simple and tiled kernels, and a ~5%-dense CSR X on the sparse
// kernel against the simple loop over its dense copy. The shapes cover ragged
// tiles, more than one gemmKC block of rows and gemmMC block of columns,
// n < threads, n not a multiple of the tile and m < threads; the mirrored
// output must stay symmetric.
func TestTiledTSMMBitwiseEqualsSimple(t *testing.T) {
	for _, m := range []int{1, 3, 4, 5, 129, 300} {
		for _, n := range []int{1, 2, 3, 4, 5, 7, 9, 17, 67, 129} {
			x := RandUniform(m, n, -1, 1, 1.0, int64(m*31+n))
			want := tsmm(x, 1, gemmSimple)
			sx := RandUniform(m, n, -1, 1, 0.05, int64(m*37+n)).ToSparse()
			swant := tsmm(asDense(sx), 1, gemmSimple)
			for _, threads := range []int{1, 2, 3, 4, 7} {
				for _, kern := range []gemmKernel{gemmAuto, gemmSimple, gemmTiled} {
					got := tsmm(x, threads, kern)
					bitwiseEqual(t, want, got, fmt.Sprintf("tsmm %dx%d kernel %d threads %d", m, n, kern, threads))
					for i := 0; i < n; i++ {
						for j := i + 1; j < n; j++ {
							if got.Get(i, j) != got.Get(j, i) {
								t.Fatalf("TSMM %dx%d kernel %d threads %d not symmetric at (%d,%d)", m, n, kern, threads, i, j)
							}
						}
					}
				}
				bitwiseEqual(t, swant, tsmm(sx, threads, gemmAuto), fmt.Sprintf("sparse tsmm %dx%d threads %d", m, n, threads))
			}
		}
	}
}

// TestTiledScalarFallbackBitwise pins the portable scalar micro-kernel
// against every vector kernel the machine has: switching the assembly kernel
// off must not change a single bit, which is what makes results
// architecture-independent.
func TestTiledScalarFallbackBitwise(t *testing.T) {
	for _, dims := range [][3]int{{129, 67, 129}, {4, 256, 4}, {5, 300, 3}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := RandUniform(m, k, -1, 1, 1.0, int64(m+k+n))
		b := RandUniform(k, n, -1, 1, 1.0, int64(m*k+n))
		var want *MatrixBlock
		withVectorLevel(vecScalar, func() { want = multDenseDense(a, b, 2, gemmTiled) })
		for _, l := range vectorLevels() {
			var got *MatrixBlock
			withVectorLevel(l, func() { got = multDenseDense(a, b, 2, gemmTiled) })
			bitwiseEqual(t, want, got, fmt.Sprintf("scalar-fallback multiply at level %d", l))
		}
	}
}

// TestTiledMultiplyAccSparseDensify checks the direct sparse densification
// feeding the tiled kernel (zeros flow through the micro-kernel instead of
// being skipped) still matches the simple kernel bitwise.
func TestTiledMultiplyAccSparseDensify(t *testing.T) {
	a := RandUniform(70, 90, -1, 1, 0.1, 63).ToSparse()
	b := RandUniform(90, 40, -1, 1, 0.1, 64).ToSparse()
	accS, accT := NewDense(70, 40), NewDense(70, 40)
	if err := multiplyAcc(accS, a, b, 2, gemmSimple); err != nil {
		t.Fatal(err)
	}
	if err := multiplyAcc(accT, a, b, 2, gemmTiled); err != nil {
		t.Fatal(err)
	}
	bitwiseEqual(t, accS, accT, "sparse-densified multiply-acc")
}

// TestAsDenseDirect checks the direct densification helper against the
// copy-then-convert path it replaced.
func TestAsDenseDirect(t *testing.T) {
	s := RandUniform(40, 30, -1, 1, 0.15, 65)
	if !s.IsSparse() {
		t.Fatal("expected sparse generated input")
	}
	got := asDense(s)
	want := s.Copy().ToDense()
	bitwiseEqual(t, want, got, "asDense")
	if !s.IsSparse() {
		t.Error("asDense mutated its input representation")
	}
	d := NewDense(3, 3)
	if asDense(d) != d {
		t.Error("asDense copied an already-dense block")
	}
}

// TestParallelRowsEvenDistribution verifies the balanced partition: exactly
// min(threads, rows) contiguous chunks whose sizes differ by at most one.
func TestParallelRowsEvenDistribution(t *testing.T) {
	for _, tc := range []struct{ rows, threads, wantChunks int }{
		{100, 8, 8},  // 100 = 8*12+4: ceil-chunking used to give 13,13,...,9
		{7, 4, 4},    // small row counts used to launch fewer workers
		{16, 16, 16}, // one row each
		{5, 8, 5},    // more threads than rows
		{97, 3, 3},
	} {
		var mu sync.Mutex
		type span struct{ r0, r1 int }
		var spans []span
		parallelRows(tc.rows, tc.threads, func(r0, r1 int) {
			mu.Lock()
			spans = append(spans, span{r0, r1})
			mu.Unlock()
		})
		if len(spans) != tc.wantChunks {
			t.Errorf("rows=%d threads=%d: %d chunks, want %d", tc.rows, tc.threads, len(spans), tc.wantChunks)
			continue
		}
		sort.Slice(spans, func(i, j int) bool { return spans[i].r0 < spans[j].r0 })
		next, minSz, maxSz := 0, tc.rows, 0
		for _, s := range spans {
			if s.r0 != next {
				t.Errorf("rows=%d threads=%d: gap or overlap at %d", tc.rows, tc.threads, s.r0)
			}
			sz := s.r1 - s.r0
			minSz, maxSz = min(minSz, sz), max(maxSz, sz)
			next = s.r1
		}
		if next != tc.rows {
			t.Errorf("rows=%d threads=%d: chunks cover %d rows", tc.rows, tc.threads, next)
		}
		if maxSz-minSz > 1 {
			t.Errorf("rows=%d threads=%d: chunk sizes range %d..%d, want spread <= 1", tc.rows, tc.threads, minSz, maxSz)
		}
	}
}

// TestMMChainBlockedBitwise pins the register-blocked 4-row mmchain dense leg
// against a row-at-a-time reference built from the same chunk structure, and
// checks thread-count reproducibility over a row count that exercises the
// 4-row remainder.
func TestMMChainBlockedBitwise(t *testing.T) {
	x := RandUniform(519, 67, -1, 1, 1.0, 91) // 519 = 4*129+3: ragged everywhere
	v := RandUniform(67, 1, -1, 1, 1.0, 92)
	w := RandUniform(519, 1, -1, 1, 1.0, 93)
	for _, weights := range []*MatrixBlock{nil, w} {
		prog, args := chainProgram(weights)
		t1, err := RowChain(x, v, prog, args, 1)
		if err != nil {
			t.Fatal(err)
		}
		t4, err := RowChain(x, v, prog, args, 4)
		if err != nil {
			t.Fatal(err)
		}
		bitwiseEqual(t, t1, t4, "mmchain threads")
		// reference: explicit two-step chain, tolerance comparison
		xv, err := Multiply(x, v, 1)
		if err != nil {
			t.Fatal(err)
		}
		if weights != nil {
			xv, err = CellwiseOp(weights, xv, OpMul, 1)
			if err != nil {
				t.Fatal(err)
			}
		}
		want, err := Multiply(Transpose(x), xv, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equals(t1, 1e-9) {
			t.Error("blocked mmchain disagrees with the explicit chain")
		}
	}
}
