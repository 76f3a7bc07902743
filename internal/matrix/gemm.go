package matrix

import (
	"math"
	"sync"
	"sync/atomic"
)

// This file implements the register-blocked, cache-tiled dense GEMM engine
// (DESIGN.md, "Dense GEMM micro-kernel"). The engine is a classic three-level
// blocked loop nest over one fixed-size micro-kernel:
//
//   - micro-kernel: a gemmMR x gemmNR (8x8) output tile, with the k loop
//     ascending so every output cell accumulates its contributions in
//     ascending-k order — the same per-cell order as the simple blocked
//     kernel in mult.go, which is what makes the two kernels bitwise
//     interchangeable and preserves the MultiplyAcc stripe-accumulation
//     contract of the blocked matmult executors. It has three
//     implementations, one per vectorLevel, with the same bits.
//   - panel packing: A row panels (gemmMR x kc, k-major) and B column panels
//     (kc x gemmNR, k-major) are copied into contiguous scratch buffers so the
//     micro-kernel streams both operands sequentially. Ragged edges are packed
//     zero-padded to full tile width/height; the padded lanes compute into
//     scratch accumulators that are never stored, so tails need no separate
//     kernel shape.
//   - outer blocking: jc (gemmNC column block) -> pc (gemmKC depth block) ->
//     ic (gemmMC row block) -> jr/ir micro-tiles, so the packed A block stays
//     L2-resident while each kc x gemmNR B micro-panel stays L1-resident
//     across the ir sweep.
//
// Multi-threading partitions output rows across workers (parallelRows for
// GEMM, area-balanced triangle panels for TSMM); output cells are disjoint per
// worker and each cell's accumulation order is fixed, so results are
// identical for every thread count. All pack buffers come from a
// sync.Pool — steady-state operation allocates nothing beyond the output
// block.

// Tile-size parameters of the tiled GEMM engine. gemmMR x gemmNR is the
// register tile: one ZMM accumulator per tile row at vecAVX512. gemmMR ==
// gemmNR, because TSMM reads its A micro-panels out of its B pack and the
// Cholesky prefix packs its B operand with packAPanels. gemmKC is the depth
// of one packed panel pass (A micro-panel gemmMR*gemmKC*8 = 16KB, B
// micro-panel 16KB); gemmMC rows of packed A (gemmMC*gemmKC*8 = 256KB,
// L2-resident); gemmNC bounds the column block streamed per packed-A reuse.
const (
	gemmMR = 8
	gemmNR = 8
	gemmKC = 256
	gemmMC = 128
	gemmNC = 4096
)

// vectorLevel is the widest vector unit the kernels use: the GEMM
// micro-kernel runs one implementation per level, the arithmetic row kernels
// (cell_amd64.s) run their AVX2 lanes at vecAVX2 and above. Every level has
// the scalar loops' bits.
type vectorLevel int

const (
	vecScalar vectorLevel = iota
	vecAVX2
	vecAVX512
)

// gemmPackARows is the padded row capacity of one packed A block.
const gemmPackARows = (gemmMC + gemmMR - 1) / gemmMR * gemmMR

// tiledMinDim is the fewest output rows and columns a product needs to run
// tiled. It is 4, not gemmMR: a product 4 to 7 wide leaves part of each
// padded tile idle, but off the tiled engine a t(X) %*% Y of that width
// would take the row-scatter leg, whose summation order differs, and its
// output bits would move.
const tiledMinDim = 4

// TiledGEMMCrossoverFLOPs is the matmult size (in FLOPs, 2*m*k*n) above which
// the dense kernels switch from the simple blocked loop to the tiled engine;
// below it the packing overhead dominates.
const TiledGEMMCrossoverFLOPs = 2 * 128 * 128 * 128

// gemmKernel names a dense GEMM kernel. Every exported entry point passes
// gemmAuto — the kernel UseTiledGEMM picks from the shape; the two are
// bitwise-interchangeable for finite inputs (identical per-cell accumulation
// order), and the in-package tests pin them against each other at any size by
// naming gemmSimple or gemmTiled.
type gemmKernel int

const (
	gemmAuto gemmKernel = iota
	gemmSimple
	gemmTiled
)

// UseTiledGEMM reports whether a dense m x k %*% k x n multiply runs on the
// tiled engine rather than the simple blocked loop. It is the one kernel
// choice of the dense matmult family and a function of the shape alone: a
// dense-dense Multiply asks it with (m, k, n); for an m x n X, t(X) %*% Y asks
// with (n, m, ncol(Y)) and a dense TSMM with (n, m, n). hops.ExplainPlan asks
// the same question for its kernel=tiled tag.
func UseTiledGEMM(m, k, n int) bool {
	if m < tiledMinDim || n < tiledMinDim {
		// degenerate shapes (vectors, outer products) waste most of every
		// padded tile; the simple loop streams them better
		return false
	}
	return 2*float64(m)*float64(k)*float64(n) >= TiledGEMMCrossoverFLOPs
}

// gemmUseTiled is UseTiledGEMM unless a test names the kernel.
func gemmUseTiled(kern gemmKernel, m, k, n int) bool {
	if kern != gemmAuto {
		return kern == gemmTiled
	}
	return UseTiledGEMM(m, k, n)
}

// --- pooled pack buffers ----------------------------------------------------

// gemmBuf is a pooled float64 scratch buffer for packed panels.
type gemmBuf struct{ f []float64 }

var gemmPool sync.Pool

// gemmGetBuf returns a pooled buffer of exactly size elements. The contents
// are unspecified; pack routines overwrite every element they read back.
func gemmGetBuf(size int) *gemmBuf {
	b, _ := gemmPool.Get().(*gemmBuf)
	if b == nil {
		b = &gemmBuf{}
	}
	if cap(b.f) < size {
		b.f = make([]float64, size)
	}
	b.f = b.f[:size]
	return b
}

// gemmPutBuf returns b to the pool; a nil b is ignored.
func gemmPutBuf(b *gemmBuf) {
	if b != nil {
		gemmPool.Put(b)
	}
}

// gemmZeroBuf returns a pooled buffer of size elements, zeroed.
func gemmZeroBuf(size int) *gemmBuf {
	b := gemmGetBuf(size)
	clear(b.f)
	return b
}

// Scratch is a pooled float64 work buffer handed out by GetScratch. It shares
// the GEMM panel pool, so higher layers (e.g. compressed kernels decompressing
// stripes for a fallback multiply, or pre-scaling dictionaries against a
// matrix right-hand side) reuse warm buffers instead of allocating a fresh
// dense block per call site.
type Scratch struct{ b *gemmBuf }

// Values returns the buffer contents (zeroed, length as requested).
func (s Scratch) Values() []float64 { return s.b.f }

// GetScratch returns a zeroed pooled buffer of n elements. Release it with
// PutScratch when done; the contents are invalid afterwards.
func GetScratch(n int) Scratch { return Scratch{b: gemmZeroBuf(n)} }

// PutScratch returns the buffer to the pool.
func PutScratch(s Scratch) { gemmPutBuf(s.b) }

// --- panel packing ----------------------------------------------------------

// packBPanels packs a rows x cols row-major matrix with leading dimension ldb
// into gemmNR-wide column panels:
// dst[jp*rows*gemmNR + p*gemmNR + jj] = b[p*ldb + jp*gemmNR + jj], with the
// ragged last panel zero-padded to gemmNR. dst must hold
// ceil(cols/gemmNR)*gemmNR*rows elements.
func packBPanels(dst, b []float64, ldb, rows, cols int) {
	full := cols / gemmNR // whole panels
	// one pass over b's rows, each row read once from left to right
	for p := 0; p < rows; p++ {
		src := b[p*ldb : p*ldb+cols]
		for jp := 0; jp < full; jp++ {
			s := src[jp*gemmNR : jp*gemmNR+gemmNR]
			d := dst[(jp*rows+p)*gemmNR : (jp*rows+p)*gemmNR+gemmNR]
			d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
			d[4], d[5], d[6], d[7] = s[4], s[5], s[6], s[7]
		}
	}
	if w := cols - full*gemmNR; w > 0 {
		panel := dst[full*rows*gemmNR : (full+1)*rows*gemmNR]
		for p := 0; p < rows; p++ {
			d := panel[p*gemmNR : p*gemmNR+gemmNR]
			copy(d, b[p*ldb+full*gemmNR:p*ldb+cols])
			clear(d[w:])
		}
	}
}

// packAPanels packs rows [r0, r0+mc) x cols [p0, p0+kc) of the row-major
// m x lda matrix a into gemmMR-high row panels, k-major:
// dst[(ir/gemmMR)*kc*gemmMR + p*gemmMR + rr] = a[(r0+ir+rr)*lda + p0 + p],
// zero-padding the ragged last panel to gemmMR rows.
func packAPanels(dst, a []float64, lda, r0, mc, p0, kc int) {
	for ir := 0; ir < mc; ir += gemmMR {
		h := min(gemmMR, mc-ir)
		panel := dst[(ir/gemmMR)*kc*gemmMR:]
		if h == gemmMR {
			// a full panel: eight row streams in, one sequential stream out
			base := (r0+ir)*lda + p0
			s0 := a[base : base+kc]
			s1 := a[base+lda : base+lda+kc]
			s2 := a[base+2*lda : base+2*lda+kc]
			s3 := a[base+3*lda : base+3*lda+kc]
			s4 := a[base+4*lda : base+4*lda+kc]
			s5 := a[base+5*lda : base+5*lda+kc]
			s6 := a[base+6*lda : base+6*lda+kc]
			s7 := a[base+7*lda : base+7*lda+kc]
			for p := range s0 {
				d := panel[p*gemmMR : p*gemmMR+gemmMR]
				d[0], d[1], d[2], d[3] = s0[p], s1[p], s2[p], s3[p]
				d[4], d[5], d[6], d[7] = s4[p], s5[p], s6[p], s7[p]
			}
			continue
		}
		for rr := 0; rr < h; rr++ {
			src := a[(r0+ir+rr)*lda+p0 : (r0+ir+rr)*lda+p0+kc]
			for p := 0; p < kc; p++ {
				panel[p*gemmMR+rr] = src[p]
			}
		}
		for rr := h; rr < gemmMR; rr++ {
			for p := 0; p < kc; p++ {
				panel[p*gemmMR+rr] = 0
			}
		}
	}
}

// packATPanels packs the transpose of rows [p0, p0+kc) x cols [c0, c0+mc) of
// the row-major matrix x (leading dimension n) into gemmMR-high row panels of
// X^T, k-major — the A-side packing of t(X) %*% Y (gemmTiledRows with
// transA), reading X column panels without materializing the transpose.
func packATPanels(dst, x []float64, n, p0, kc, c0, mc int) {
	for ir := 0; ir < mc; ir += gemmMR {
		h := min(gemmMR, mc-ir)
		panel := dst[(ir/gemmMR)*kc*gemmMR:]
		for p := 0; p < kc; p++ {
			src := x[(p0+p)*n+c0+ir:]
			d := panel[p*gemmMR : p*gemmMR+gemmMR]
			for rr := 0; rr < h; rr++ {
				d[rr] = src[rr]
			}
			for rr := h; rr < gemmMR; rr++ {
				d[rr] = 0
			}
		}
	}
}

// --- micro-kernel -----------------------------------------------------------

// gemmMicroTile accumulates one gemmMR x gemmNR output tile (origin ci, row
// stride ldc) from k-major packed micro-panels, on the kernel of vecLevel:
// eight ZMM accumulators, two 8x4 YMM halves, or the scalar 4x2 pieces. All
// three accumulate every cell in ascending-k order and round after the
// multiply and after the add, with the same operand order, so they are
// bitwise interchangeable.
func gemmMicroTile(ap, bp []float64, kc int, cv []float64, ci, ldc int) {
	switch vecLevel {
	case vecAVX512:
		gemm8x8AVX512Asm(&ap[0], &bp[0], kc, &cv[ci], ldc*8)
	case vecAVX2:
		gemm8x8AVX2Asm(&ap[0], &bp[0], kc, &cv[ci], ldc*8)
	default:
		gemm8x8Scalar(ap, bp, kc, cv, ci, ldc)
	}
}

// gemm8x8Scalar is the portable micro-kernel: the 8x8 tile is computed as
// eight sequential 4x2 pieces so the eight live accumulators fit the 16 SSE
// registers. Each output cell still sees its contributions in ascending-k
// order, so the split does not perturb any bit of the result.
func gemm8x8Scalar(ap, bp []float64, kc int, cv []float64, ci, ldc int) {
	for r := 0; r < gemmMR; r += 4 {
		for c := 0; c < gemmNR; c += 2 {
			gemmMicro4x2(ap[r:], bp[c:], kc, cv, ci+r*ldc+c, ldc)
		}
	}
}

// gemmMicro4x2 accumulates a 4-row x 2-col piece; ap and bp point at its
// first packed A row and B column (panel strides stay gemmMR and gemmNR).
func gemmMicro4x2(ap, bp []float64, kc int, cv []float64, ci, ldc int) {
	r1, r2, r3 := ci+ldc, ci+2*ldc, ci+3*ldc
	c00, c01 := cv[ci], cv[ci+1]
	c10, c11 := cv[r1], cv[r1+1]
	c20, c21 := cv[r2], cv[r2+1]
	c30, c31 := cv[r3], cv[r3+1]
	before := [8]float64{c00, c01, c10, c11, c20, c21, c30, c31}
	for p := 0; p < kc; p++ {
		av := ap[p*gemmMR : p*gemmMR+4]
		bv := bp[p*gemmNR : p*gemmNR+2]
		a0, a1, a2, a3 := av[0], av[1], av[2], av[3]
		b0, b1 := bv[0], bv[1]
		c00 += float64(a0 * b0)
		c01 += float64(a0 * b1)
		c10 += float64(a1 * b0)
		c11 += float64(a1 * b1)
		c20 += float64(a2 * b0)
		c21 += float64(a2 * b1)
		c30 += float64(a3 * b0)
		c31 += float64(a3 * b1)
	}
	cv[ci], cv[ci+1] = c00, c01
	cv[r1], cv[r1+1] = c10, c11
	cv[r2], cv[r2+1] = c20, c21
	cv[r3], cv[r3+1] = c30, c31
	// a NaN cell may hold either payload where two NaNs met: replay it
	for i, v := range before {
		r, col := i/2, i%2
		if cell := ci + r*ldc + col; cv[cell] != cv[cell] {
			cv[cell] = gemmNaNCell(v, ap[r:], bp[col:], kc)
		}
	}
}

// gemmNaNCell recomputes one cell of gemmMicro4x2 from its value c before
// the k loop, with the NaN rule of the vector kernels: a product of two NaNs
// keeps A's payload and a sum of two NaNs the accumulator's, both quieted.
// Go does not say which operand of a commutative + or * an instruction gets
// first — the compiler may swap them — so the scalar loop pins the payloads
// here; every other value is the same in either order.
func gemmNaNCell(c float64, ap, bp []float64, kc int) float64 {
	for p := 0; p < kc; p++ {
		a, b := ap[p*gemmMR], bp[p*gemmNR]
		prod := float64(a * b)
		if a != a && b != b {
			prod = quietNaN(a)
		}
		if c != c && prod != prod {
			c = quietNaN(c)
		} else {
			c += prod
		}
	}
	return c
}

// quietNaN returns the NaN v with its quiet bit set, as an x86 arithmetic
// instruction returns a NaN operand.
func quietNaN(v float64) float64 { return math.Float64frombits(math.Float64bits(v) | 1<<51) }

// gemmMicroEdge handles ragged tiles (h < gemmMR rows and/or w < gemmNR
// cols): the live h x w corner of the output is staged into a full stack
// tile, the unrolled micro-kernel runs on it (padded pack lanes contribute
// only to discarded scratch cells), and the live corner is stored back. The
// staged cells see exactly the same load-accumulate-store sequence as an
// interior tile, so edges are bitwise-identical to a non-tiled evaluation.
func gemmMicroEdge(ap, bp []float64, kc int, cv []float64, ci, ldc, h, w int) {
	var tile [gemmMR * gemmNR]float64
	for r := 0; r < h; r++ {
		for c := 0; c < w; c++ {
			tile[r*gemmNR+c] = cv[ci+r*ldc+c]
		}
	}
	gemmMicroTile(ap, bp, kc, tile[:], 0, gemmNR)
	for r := 0; r < h; r++ {
		for c := 0; c < w; c++ {
			cv[ci+r*ldc+c] = tile[r*gemmNR+c]
		}
	}
}

// --- tiled GEMM driver ------------------------------------------------------

// gemmTiledRows accumulates rows [r0, r1) of a %*% b into cv through the
// jc/pc/ic blocked loop nest. bpack is the fully packed B (k-high gemmNR
// panels), apack the caller's packed-A scratch (gemmPackARows*gemmKC). Every
// output cell is visited once per pc block with pc ascending, so its
// contributions arrive in ascending-k order. With transA, av holds the
// row-major k x m matrix X (leading dimension lda) and the product is
// t(X) %*% b: only the A-side packing changes, reading X column panels in
// place, so the transpose never materializes.
func gemmTiledRows(cv, av, bpack, apack []float64, lda int, transA bool, k, n, r0, r1 int) {
	for jc := 0; jc < n; jc += gemmNC {
		nc := min(gemmNC, n-jc)
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(gemmKC, k-pc)
			for ic := r0; ic < r1; ic += gemmMC {
				mc := min(gemmMC, r1-ic)
				if transA {
					packATPanels(apack, av, lda, pc, kc, ic, mc)
				} else {
					packAPanels(apack, av, lda, ic, mc, pc, kc)
				}
				for jr := jc; jr < jc+nc; jr += gemmNR {
					w := min(gemmNR, n-jr)
					bpanel := bpack[(jr/gemmNR)*k*gemmNR+pc*gemmNR:]
					for ir := 0; ir < mc; ir += gemmMR {
						h := min(gemmMR, mc-ir)
						apanel := apack[(ir/gemmMR)*kc*gemmMR:]
						ci := (ic+ir)*n + jr
						if h == gemmMR && w == gemmNR {
							gemmMicroTile(apanel, bpanel, kc, cv, ci, n)
						} else {
							gemmMicroEdge(apanel, bpanel, kc, cv, ci, n, h, w)
						}
					}
				}
			}
		}
	}
}

// accDenseDenseTiled accumulates dense(a) %*% dense(b) — or, with transA,
// t(dense(a)) %*% dense(b) — into the dense accumulator via the tiled engine
// and returns the recounted non-zero total. Bitwise-interchangeable with
// accDenseDense for finite inputs: both add each cell's contributions one at
// a time in ascending k (the simple kernel skips a==0 terms, which cannot
// change a finite running sum).
func accDenseDenseTiled(acc, a, b *MatrixBlock, threads int, transA bool) int64 {
	m, k, n := a.rows, a.cols, b.cols
	if transA {
		m, k = k, m
	}
	av, bv, cv := a.dense, b.dense, acc.dense
	if m == 0 || n == 0 {
		return 0
	}
	np := (n + gemmNR - 1) / gemmNR
	bbuf := gemmGetBuf(np * gemmNR * k)
	packBPanels(bbuf.f, bv, n, k, n)
	var nnz atomic.Int64
	parallelRows(m, threads, func(r0, r1 int) {
		abuf := gemmGetBuf(gemmPackARows * gemmKC)
		gemmTiledRows(cv, av, bbuf.f, abuf.f, a.cols, transA, k, n, r0, r1)
		gemmPutBuf(abuf)
		nnz.Add(countRowRangeNNZ(cv, n, r0, r1))
	})
	gemmPutBuf(bbuf)
	return nnz.Load()
}

// tsmmTiledRows adds rows [i0, i1) of the upper triangle of t(X) %*% X into
// cv, for the row-major m x n matrix x — the tiled counterpart of
// tsmmSimpleRows, with the same per-cell ascending-row accumulation order
// (tsmmDense rounds i0 to a multiple of gemmMR, so tiles meet the diagonal
// at their corners). Per gemmKC block of X's rows it packs the B panels of
// columns [i0, n) only. Because gemmMR == gemmNR, the A micro-panel of output
// rows [i, i+gemmMR) — X^T's rows, k-major — is exactly the packed B panel of
// columns [i, i+gemmNR), so the A side reads the B pack and packs nothing.
// Tiles entirely below the diagonal are skipped; tiles straddling it are
// computed in full, and their below-diagonal cells hold garbage that the
// caller's mirror pass overwrites. Every cell written lies in rows [i0, i1).
func tsmmTiledRows(cv, x []float64, m, n, i0, i1 int) {
	nb := n - i0
	buf := gemmGetBuf((nb + gemmNR - 1) / gemmNR * gemmNR * gemmKC)
	for pc := 0; pc < m; pc += gemmKC {
		kc := min(gemmKC, m-pc)
		packBPanels(buf.f, x[pc*n+i0:], n, kc, nb)
		for ic := i0; ic < i1; ic += gemmMC {
			mc := min(gemmMC, i1-ic)
			// columns left of ic are below the diagonal for every row here
			for jr := ic; jr < n; jr += gemmNR {
				w := min(gemmNR, n-jr)
				irLim := min(mc, jr+w-ic)
				bpanel := buf.f[(jr-i0)/gemmNR*kc*gemmNR:]
				for ir := 0; ir < irLim; ir += gemmMR {
					h := min(gemmMR, mc-ir)
					apanel := buf.f[(ic+ir-i0)/gemmNR*kc*gemmNR:]
					ci := (ic+ir)*n + jr
					if h == gemmMR && w == gemmNR {
						gemmMicroTile(apanel, bpanel, kc, cv, ci, n)
					} else {
						gemmMicroEdge(apanel, bpanel, kc, cv, ci, n, h, w)
					}
				}
			}
		}
	}
	gemmPutBuf(buf)
}
