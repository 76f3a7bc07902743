package matrix

import (
	"fmt"
	"runtime"
	"sync/atomic"
)

// DefaultParallelism is the degree of parallelism used by multi-threaded
// kernels when the caller passes threads <= 0.
func DefaultParallelism() int { return runtime.NumCPU() }

func resolveThreads(threads int) int {
	if threads <= 0 {
		return DefaultParallelism()
	}
	return threads
}

// Multiply computes the matrix product a %*% b using the kernel matching the
// operand representations (dense-dense, sparse-dense, dense-sparse or
// sparse-sparse). The dense-dense kernel is the multi-threaded,
// cache-conscious kernel referred to as the "Java-like" kernel in DESIGN.md.
func Multiply(a, b *MatrixBlock, threads int) (*MatrixBlock, error) {
	if a.cols != b.rows {
		return nil, fmt.Errorf("matrix: multiply dimension mismatch %dx%d %%*%% %dx%d", a.rows, a.cols, b.rows, b.cols)
	}
	threads = resolveThreads(threads)
	var out *MatrixBlock
	switch {
	case a.IsSparse() && b.IsSparse():
		out = multSparseSparse(a, b, threads)
	case a.IsSparse():
		out = multSparseDense(a, b, threads)
	case b.IsSparse():
		out = multDenseSparse(a, b, threads)
	default:
		out = multDenseDense(a, b, threads, gemmAuto)
	}
	return out, nil
}

// asDense returns m itself when already dense, or a fresh dense block
// densified directly from the sparse structure — no intermediate sparse copy.
func asDense(m *MatrixBlock) *MatrixBlock {
	if !m.IsSparse() {
		return m
	}
	out := NewDense(m.rows, m.cols)
	s := m.csr()
	for r := 0; r < m.rows; r++ {
		base := r * m.cols
		for p := s.RowPtr[r]; p < s.RowPtr[r+1]; p++ {
			out.dense[base+s.ColIdx[p]] = s.Values[p]
		}
	}
	out.nnz = m.nnz
	return out
}

// parallelRows partitions [0, rows) into min(threads, rows) contiguous chunks
// and runs fn on each through ParallelFor. Chunk sizes differ by at most one
// row, so no worker receives a short or empty chunk. Chunk boundaries depend
// only on (rows, threads); every kernel built on parallelRows writes disjoint
// output cells with a fixed per-cell order, so results do not depend on the
// partition at all.
func parallelRows(rows, threads int, fn func(r0, r1 int)) {
	n := max(1, min(threads, rows))
	base, rem := rows/n, rows%n
	_ = ParallelFor(n, n, func(_, t int) error {
		r0 := t*base + min(t, rem)
		r1 := r0 + base
		if t < rem {
			r1++
		}
		fn(r0, r1)
		return nil
	})
}

// countRowRangeNNZ counts the non-zeros of rows [r0, r1) of a dense n-column
// output while the range is still cache-hot, so kernels can set the tracked
// nnz during their final write loop instead of re-scanning the whole output.
func countRowRangeNNZ(cv []float64, n, r0, r1 int) int64 {
	var cnt int64
	for i := r0 * n; i < r1*n; i++ {
		if cv[i] != 0 {
			cnt++
		}
	}
	return cnt
}

// multDenseDense is the dense GEMM kernel: one accumulate pass into a zeroed
// output. Sharing gemmAcc keeps its per-cell accumulation order structurally
// identical to MultiplyAcc (the bitwise-equality contract of the blocked
// matmult executors).
func multDenseDense(a, b *MatrixBlock, threads int, kern gemmKernel) *MatrixBlock {
	out := NewDense(a.rows, b.cols)
	out.nnz = gemmAcc(out, a, b, threads, kern)
	return out
}

// gemmAcc accumulates dense(a) %*% dense(b) into the dense accumulator with
// the kernel matching the problem size — the tiled engine (gemm.go) above
// TiledGEMMCrossoverFLOPs, the simple blocked loop below it — and returns the
// recounted non-zero total. It is the single dispatch behind the standard
// Multiply dense path and MultiplyAcc. Both kernels add each output cell's
// contributions one at a time in ascending-k order, so they are bitwise
// interchangeable for finite inputs and the stripe-accumulation contract
// holds across the crossover (a stripe small enough for the simple loop
// accumulates onto a tiled full product without any drift).
func gemmAcc(acc, a, b *MatrixBlock, threads int, kern gemmKernel) int64 {
	if gemmUseTiled(kern, a.rows, a.cols, b.cols) {
		return accDenseDenseTiled(acc, a, b, threads, false)
	}
	return accDenseDense(acc, a, b, threads)
}

// accDenseDense accumulates dense(a) %*% dense(b) into the dense accumulator
// with i-k-j loop order, cache blocking over k and j, and contributions
// arriving in ascending k order per output cell. It is the below-crossover
// kernel behind gemmAcc, and returns the recounted non-zero total of the
// accumulator.
func accDenseDense(acc, a, b *MatrixBlock, threads int) int64 {
	m, k, n := a.rows, a.cols, b.cols
	if n == 1 {
		return accDenseMV(acc, a, b, threads)
	}
	av, bv, cv := a.dense, b.dense, acc.dense
	var nnz atomic.Int64
	const blkK, blkJ = 64, 512
	parallelRows(m, threads, func(r0, r1 int) {
		for kk := 0; kk < k; kk += blkK {
			kmax := min(kk+blkK, k)
			for jj := 0; jj < n; jj += blkJ {
				jmax := min(jj+blkJ, n)
				for i := r0; i < r1; i++ {
					ci := cv[i*n : (i+1)*n]
					ai := av[i*k : (i+1)*k]
					for kp := kk; kp < kmax; kp++ {
						aval := ai[kp]
						if aval == 0 {
							continue
						}
						brow := bv[kp*n : (kp+1)*n]
						for j := jj; j < jmax; j++ {
							ci[j] += float64(aval * brow[j])
						}
					}
				}
			}
		}
		nnz.Add(countRowRangeNNZ(cv, n, r0, r1))
	})
	return nnz.Load()
}

// accDenseMV is the n == 1 leg of accDenseDense: acc += dense(a) %*% v for a
// column vector v. The generic i-k-j loop degenerates to one dot product per
// row whose single accumulator serializes on FP-add latency, far below memory
// bandwidth; dotRows shares one pass over v between four rows. Every row still
// adds its products one at a time in ascending k, starting from the
// accumulator's value, so the result is bitwise-equal to the generic loop for
// finite inputs and the MultiplyAcc stripe contract holds unchanged.
func accDenseMV(acc, a, v *MatrixBlock, threads int) int64 {
	m, k := a.rows, a.cols
	av, vv, cv := a.dense, v.dense[:k], acc.dense
	var nnz atomic.Int64
	parallelRows(m, threads, func(r0, r1 int) {
		dotRows(cv[r0:r1], av[r0*k:r1*k], vv)
		nnz.Add(countRowRangeNNZ(cv, 1, r0, r1))
	})
	return nnz.Load()
}

// dotRows adds a's rows (len(v) values each, len(dst) rows) times v onto dst:
// four rows per step share one pass over v with four independent
// accumulators, and each row adds its products one at a time in ascending k.
// It is the dense matrix-vector order that MV and RowChain share.
func dotRows(dst, a, v []float64) {
	k := len(v)
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		row0 := a[i*k : (i+1)*k]
		row1 := a[(i+1)*k : (i+2)*k]
		row2 := a[(i+2)*k : (i+3)*k]
		row3 := a[(i+3)*k : (i+4)*k]
		d0, d1, d2, d3 := dst[i], dst[i+1], dst[i+2], dst[i+3]
		for p, vp := range v {
			d0 += float64(row0[p] * vp)
			d1 += float64(row1[p] * vp)
			d2 += float64(row2[p] * vp)
			d3 += float64(row3[p] * vp)
		}
		dst[i], dst[i+1], dst[i+2], dst[i+3] = d0, d1, d2, d3
	}
	for ; i < len(dst); i++ {
		row := a[i*k : (i+1)*k]
		d := dst[i]
		for p, vp := range v {
			d += float64(row[p] * vp)
		}
		dst[i] = d
	}
}

// multSparseDense computes sparse(a) %*% dense(b).
func multSparseDense(a, b *MatrixBlock, threads int) *MatrixBlock {
	m, n := a.rows, b.cols
	out := NewDense(m, n)
	s := a.csr()
	bv, cv := b.dense, out.dense
	var nnz atomic.Int64
	parallelRows(m, threads, func(r0, r1 int) {
		for i := r0; i < r1; i++ {
			ci := cv[i*n : (i+1)*n]
			for p := s.RowPtr[i]; p < s.RowPtr[i+1]; p++ {
				kp, aval := s.ColIdx[p], s.Values[p]
				brow := bv[kp*n : (kp+1)*n]
				for j := 0; j < n; j++ {
					ci[j] += float64(aval * brow[j])
				}
			}
		}
		nnz.Add(countRowRangeNNZ(cv, n, r0, r1))
	})
	out.nnz = nnz.Load()
	return out
}

// multDenseSparse computes dense(a) %*% sparse(b), driven from the CSR side:
// each row of a visits only b's non-empty rows, in ascending order, so an
// empty or nearly empty b costs a pass over its row pointers, not over a. The
// contributions of every output cell arrive in the order of the full i-k-j
// loop (a zero of a is skipped either way), so the bits are that loop's.
func multDenseSparse(a, b *MatrixBlock, threads int) *MatrixBlock {
	m, k, n := a.rows, a.cols, b.cols
	out := NewDense(m, n)
	s := b.csr()
	ks := nonEmptyRows(s, k)
	av, cv := a.dense, out.dense
	var nnz atomic.Int64
	parallelRows(m, threads, func(r0, r1 int) {
		for i := r0; i < r1; i++ {
			ci := cv[i*n : (i+1)*n]
			ai := av[i*k : (i+1)*k]
			for _, kp := range ks {
				aval := ai[kp]
				if aval == 0 {
					continue
				}
				for p := s.RowPtr[kp]; p < s.RowPtr[kp+1]; p++ {
					ci[s.ColIdx[p]] += float64(aval * s.Values[p])
				}
			}
		}
		nnz.Add(countRowRangeNNZ(cv, n, r0, r1))
	})
	out.nnz = nnz.Load()
	return out
}

// nonEmptyRows lists, ascending, the rows of a rows-row CSR that hold at least
// one stored entry.
func nonEmptyRows(s *CSR, rows int) []int {
	var ks []int
	for r := 0; r < rows; r++ {
		if s.RowPtr[r+1] > s.RowPtr[r] {
			ks = append(ks, r)
		}
	}
	return ks
}

// multSparseSparse computes sparse(a) %*% sparse(b) into a dense output
// (products of moderately sparse matrices are typically much denser).
func multSparseSparse(a, b *MatrixBlock, threads int) *MatrixBlock {
	m, n := a.rows, b.cols
	out := NewDense(m, n)
	sa, sb := a.csr(), b.csr()
	cv := out.dense
	var nnz atomic.Int64
	parallelRows(m, threads, func(r0, r1 int) {
		for i := r0; i < r1; i++ {
			ci := cv[i*n : (i+1)*n]
			for p := sa.RowPtr[i]; p < sa.RowPtr[i+1]; p++ {
				kp, aval := sa.ColIdx[p], sa.Values[p]
				for q := sb.RowPtr[kp]; q < sb.RowPtr[kp+1]; q++ {
					ci[sb.ColIdx[q]] += float64(aval * sb.Values[q])
				}
			}
		}
		nnz.Add(countRowRangeNNZ(cv, n, r0, r1))
	})
	out.nnz = nnz.Load()
	out.ExamineAndApplySparsity()
	return out
}

// MultiplyAcc accumulates a %*% b into acc (acc += a %*% b). The kernel
// mirrors the dense GEMM loop order exactly, so for every output cell the
// contributions arrive in ascending k order: splitting the common dimension
// into stripes and accumulating them with MultiplyAcc in ascending stripe
// order is bitwise-identical to one Multiply over the full common dimension.
// This is the legality property the blocked matmult executors rely on.
// The accumulator is densified in place; sparse inputs are multiplied through
// densified copies so the accumulation order stays the same.
func MultiplyAcc(acc, a, b *MatrixBlock, threads int) error {
	return multiplyAcc(acc, a, b, threads, gemmAuto)
}

// multiplyAcc is MultiplyAcc on an explicit dense kernel; only the in-package
// simple-versus-tiled tests pass anything but gemmAuto.
func multiplyAcc(acc, a, b *MatrixBlock, threads int, kern gemmKernel) error {
	if a.cols != b.rows {
		return fmt.Errorf("matrix: multiply-acc dimension mismatch %dx%d %%*%% %dx%d", a.rows, a.cols, b.rows, b.cols)
	}
	if acc.rows != a.rows || acc.cols != b.cols {
		return fmt.Errorf("matrix: multiply-acc accumulator is %dx%d, want %dx%d", acc.rows, acc.cols, a.rows, b.cols)
	}
	acc.ToDense()
	ad, bd := asDense(a), asDense(b)
	acc.nnz = gemmAcc(acc, ad, bd, resolveThreads(threads), kern)
	return nil
}

// TSMM computes t(X) %*% X directly without materializing the transpose.
// This is the fused operator the HOP rewrite t(X)%*%X -> tsmm maps to, and
// the operation at the heart of the paper's lmDS workload. Workers own
// disjoint row panels of the output and every cell adds X's rows in ascending
// order, so the result is the same for every thread count.
func TSMM(x *MatrixBlock, threads int) *MatrixBlock {
	out := NewDense(x.cols, x.cols)
	tsmmAcc(out, x, threads, gemmAuto)
	return out
}

// TSMMAcc adds t(X) %*% X onto acc, the n x n symmetric accumulator (zeros,
// or what TSMMAcc left) of an n-column X: the kernels add onto its upper
// triangle, which is then mirrored. Every cell adds X's rows in ascending
// order, so adding X's row stripes in ascending order has the bits of one
// TSMM over X, whatever each stripe's representation and kernel — what the
// blocked backend's TSMM rests on. acc is densified in place.
func TSMMAcc(acc, x *MatrixBlock, threads int) error {
	if acc.rows != x.cols || acc.cols != x.cols {
		return fmt.Errorf("matrix: tsmm-acc accumulator is %dx%d, want %dx%d", acc.rows, acc.cols, x.cols, x.cols)
	}
	acc.ToDense()
	tsmmAcc(acc, x, threads, gemmAuto)
	return nil
}

// tsmmAcc is TSMMAcc on an explicit dense kernel; only the in-package
// simple-versus-tiled tests pass anything but gemmAuto.
func tsmmAcc(acc, x *MatrixBlock, threads int, kern gemmKernel) {
	threads = resolveThreads(threads)
	n := x.cols
	if x.IsSparse() {
		tsmmSparse(x, acc, threads)
	} else {
		tsmmDense(x, acc, threads, kern)
	}
	// mirror the upper triangle into the lower triangle, counting non-zeros
	// in the same pass (each off-diagonal non-zero appears twice)
	cv := acc.dense
	var nnz int64
	for i := 0; i < n; i++ {
		if cv[i*n+i] != 0 {
			nnz++
		}
		for j := i + 1; j < n; j++ {
			cv[j*n+i] = cv[i*n+j]
			if cv[i*n+j] != 0 {
				nnz += 2
			}
		}
	}
	acc.nnz = nnz
}

// tsmmPanels splits the n rows of a TSMM's upper triangle into at most parts
// panels of about equal area (row i holds n-i cells) and returns the
// boundaries 0 = b[0] < b[1] < ... < b[len(b)-1] = n. With align > 1 every
// inner boundary is rounded to a multiple of align. The boundaries depend on
// parts, but no bit of the result does: each worker writes its own rows.
func tsmmPanels(n, parts, align int) []int {
	bounds := []int{0}
	total := n * (n + 1) / 2
	area := 0 // cells in rows [0, i+1)
	for i := 0; i < n && len(bounds) < parts; i++ {
		area += n - i
		if area*parts < len(bounds)*total {
			continue
		}
		if b := (i + 1 + align/2) / align * align; b > bounds[len(bounds)-1] && b < n {
			bounds = append(bounds, b)
		}
	}
	return append(bounds, n)
}

func tsmmDense(x, out *MatrixBlock, threads int, kern gemmKernel) {
	m, n := x.rows, x.cols
	xv, cv := x.dense, out.dense
	// one kernel for the whole shape: the tiled engine above the crossover,
	// the simple triangular loop below it, with the same per-cell order
	tiled := gemmUseTiled(kern, n, m, n)
	align := 1
	if tiled {
		align = gemmMR
	}
	b := tsmmPanels(n, threads, align)
	_ = ParallelFor(len(b)-1, threads, func(_, t int) error {
		if tiled {
			tsmmTiledRows(cv, xv, m, n, b[t], b[t+1])
		} else {
			tsmmSimpleRows(cv, xv, m, n, b[t], b[t+1])
		}
		return nil
	})
}

// tsmmSimpleRows adds rows [i0, i1) of the upper triangle of t(X) %*% X into
// cv: per row of X, every pairwise column product with i in [i0, i1) and
// j >= i, X's rows ascending — the per-cell order the tiled kernel reproduces
// exactly.
func tsmmSimpleRows(cv, xv []float64, m, n, i0, i1 int) {
	for r := 0; r < m; r++ {
		row := xv[r*n : (r+1)*n]
		for i := i0; i < i1; i++ {
			vi := row[i]
			if vi == 0 {
				continue
			}
			ci := cv[i*n:]
			for j := i; j < n; j++ {
				ci[j] += float64(vi * row[j])
			}
		}
	}
}

// tsmmSparse is TSMM of a CSR X over the same panels: each worker walks every
// row of X and takes only the entries whose column lies in its panel (ColIdx
// is sorted, so a row stops at the first column past the panel).
func tsmmSparse(x, out *MatrixBlock, threads int) {
	m, n := x.rows, x.cols
	s := x.csr()
	cv := out.dense
	b := tsmmPanels(n, threads, 1)
	_ = ParallelFor(len(b)-1, threads, func(_, t int) error {
		i0, i1 := b[t], b[t+1]
		for r := 0; r < m; r++ {
			hi := s.RowPtr[r+1]
			for p := s.RowPtr[r]; p < hi; p++ {
				ci := s.ColIdx[p]
				if ci < i0 {
					continue
				}
				if ci >= i1 {
					break
				}
				vi, bi := s.Values[p], cv[ci*n:]
				for q := p; q < hi; q++ {
					bi[s.ColIdx[q]] += float64(vi * s.Values[q])
				}
			}
		}
		return nil
	})
}

// MatVec computes the matrix-vector product a %*% v where v is a column
// vector (cols == 1).
func MatVec(a, v *MatrixBlock, threads int) (*MatrixBlock, error) {
	if v.cols != 1 || a.cols != v.rows {
		return nil, fmt.Errorf("matrix: matvec dimension mismatch %dx%d %%*%% %dx%d", a.rows, a.cols, v.rows, v.cols)
	}
	return Multiply(a, v, threads)
}
