package matrix

import (
	"fmt"
	"math"
)

// This file holds the dense factorisations behind solve, inv and cholesky
// (DESIGN.md, "Factorisations"). Every routine reproduces the per-cell
// operation sequence of the textbook unblocked loops — a Cholesky cell is
// s = 0 + Σ_{k<j} l[i][k]·l[j][k] with k ascending, then (a[i][j] − s) /
// l[j][j]; a substitution cell starts at its right-hand side and subtracts
// its terms in ascending column order — so blocking, the tiled GEMM prefix
// and the thread count change no bit of any result.

// cholBlock is the column-block width of the blocked Cholesky factor.
const cholBlock = 32

// Solve solves the linear system A %*% x = b for x, where A is square and b
// has matching rows. Symmetric positive definite systems (such as the normal
// equations t(X)%*%X + lambda*I built by lmDS) are solved with a Cholesky
// factorization; other systems fall back to LU decomposition with partial
// pivoting. Neither operand is copied or modified: dense cells are read in
// place, a sparse operand is densified once into pooled scratch, and the
// factor lives in pooled scratch, so x is the only allocation.
func Solve(a, b *MatrixBlock, threads int) (*MatrixBlock, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("matrix: solve requires a square matrix, got %dx%d", a.rows, a.cols)
	}
	if b.rows != a.rows {
		return nil, fmt.Errorf("matrix: solve rhs rows %d do not match matrix size %d", b.rows, a.rows)
	}
	av, abuf := denseCells(a)
	defer gemmPutBuf(abuf)
	bv, bbuf := denseCells(b)
	defer gemmPutBuf(bbuf)
	return solveDense(av, bv, a.rows, b.cols, resolveThreads(threads))
}

// Inverse computes the matrix inverse of a square matrix: one factorisation
// (Cholesky when symmetric positive definite, LU otherwise) and one
// multi-right-hand-side solve against the identity.
func Inverse(a *MatrixBlock, threads int) (*MatrixBlock, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("matrix: inverse requires a square matrix, got %dx%d", a.rows, a.cols)
	}
	av, abuf := denseCells(a)
	defer gemmPutBuf(abuf)
	return solveDense(av, nil, a.rows, a.rows, resolveThreads(threads))
}

// Cholesky computes the lower-triangular Cholesky factor L of a symmetric
// positive definite matrix A such that L %*% t(L) == A. Only the lower
// triangle of A is read.
func Cholesky(a *MatrixBlock, threads int) (*MatrixBlock, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("matrix: cholesky requires a square matrix, got %dx%d", a.rows, a.cols)
	}
	av, abuf := denseCells(a)
	defer gemmPutBuf(abuf)
	l := NewDense(a.rows, a.rows)
	if err := cholFactor(l.dense, av, a.rows, resolveThreads(threads)); err != nil {
		return nil, err
	}
	l.RecomputeNNZ()
	return l, nil
}

// denseCells returns the row-major cells of m: a dense block's own array,
// read in place, or a sparse block densified once into pooled scratch, which
// the caller hands back with gemmPutBuf (the buffer is nil for a dense block).
func denseCells(m *MatrixBlock) ([]float64, *gemmBuf) {
	if !m.IsSparse() {
		return m.dense, nil
	}
	buf := gemmGetBuf(m.rows * m.cols)
	for r := 0; r < m.rows; r++ {
		m.CopyRow(buf.f[r*m.cols:(r+1)*m.cols], r, 0)
	}
	return buf.f, buf
}

// solveDense solves the n x n system av against the n x k right-hand side bv
// (the identity when bv is nil) and returns the new n x k solution.
func solveDense(av, bv []float64, n, k, threads int) (*MatrixBlock, error) {
	x := NewDense(n, k)
	fbuf := gemmGetBuf(n * n)
	defer gemmPutBuf(fbuf)
	f := fbuf.f
	if isSymmetric(av, n, 1e-10) && cholFactor(f, av, n, threads) == nil {
		// the factor's upper triangle is unused scratch: mirror L into it, so
		// the backward pass reads t(L)'s rows contiguously
		mirrorLower(f, n)
		loadRHS(x.dense, bv, nil, n, k)
		forwardSubst(x.dense, f, n, k, false)
	} else {
		copy(f, av)
		perm, err := luFactor(f, n)
		if err != nil {
			return nil, err
		}
		loadRHS(x.dense, bv, perm, n, k)
		forwardSubst(x.dense, f, n, k, true)
	}
	backSubst(x.dense, f, n, k)
	x.RecomputeNNZ()
	return x, nil
}

// isSymmetric reports whether every pair of mirrored cells of the n x n
// row-major av differs by at most tol, in one pass over square tiles so both
// the row and the column side of a tile stay cache-resident.
func isSymmetric(av []float64, n int, tol float64) bool {
	const tile = 64
	for i0 := 0; i0 < n; i0 += tile {
		i1 := min(i0+tile, n)
		for j0 := i0; j0 < n; j0 += tile {
			j1 := min(j0+tile, n)
			for i := i0; i < i1; i++ {
				for j := max(j0, i+1); j < j1; j++ {
					if math.Abs(av[i*n+j]-av[j*n+i]) > tol {
						return false
					}
				}
			}
		}
	}
	return true
}

// mirrorLower copies the strict lower triangle of the n x n row-major f into
// its upper triangle (f[i][j] = f[j][i] for j > i), tile by tile.
func mirrorLower(f []float64, n int) {
	const tile = 64
	for i0 := 0; i0 < n; i0 += tile {
		i1 := min(i0+tile, n)
		for j0 := i0; j0 < n; j0 += tile {
			j1 := min(j0+tile, n)
			for i := i0; i < i1; i++ {
				for j := max(j0, i+1); j < j1; j++ {
					f[i*n+j] = f[j*n+i]
				}
			}
		}
	}
}

// cholFactor writes the Cholesky factor of the n x n row-major av (lower
// triangle read) into the lower triangle and diagonal of l; l's strict upper
// triangle is neither read nor written. It is blocked and left-looking, over
// column blocks [j0, j1) of width cholBlock:
//
//  1. the prefix S = L[j0:n, 0:j0] %*% t(L[j0:j1, 0:j0]) — for every cell the
//     first j0 terms of its dot product, added in ascending k to a zeroed
//     accumulator — runs on the tiled GEMM engine;
//  2. the diagonal block finishes column by column, each cell continuing its
//     accumulator over k in [j0, j);
//  3. the rows below it finish in ParallelFor row panels, each panel first
//     computing its own rows of S.
//
// Both GEMM kernels add each cell's products one at a time in ascending k
// from the accumulator's value, so every cell sees exactly the unblocked
// sequence, whatever the block width or thread count. The error names the
// first column whose pivot is not positive.
func cholFactor(l, av []float64, n, threads int) error {
	w := min(cholBlock, n)
	sbuf := gemmGetBuf(n * w)
	bbuf := gemmGetBuf(n * w)
	defer gemmPutBuf(sbuf)
	defer gemmPutBuf(bbuf)
	for j0 := 0; j0 < n; j0 += cholBlock {
		j1 := min(j0+cholBlock, n)
		bw := j1 - j0
		s := sbuf.f[:(n-j0)*bw] // row i-j0, column j-j0 of S
		if j0 > 0 {
			// t(L[j0:j1, 0:j0]) as the packed B operand: B's gemmNR-column
			// panels, k-major, are L's rows packed like an A operand
			packAPanels(bbuf.f, l, n, j0, bw, 0, j0)
		}
		cholPrefix(s, l, bbuf.f, n, j0, bw, 0, bw)
		if err := cholDiag(l, av, s, n, j0, j1); err != nil {
			return err
		}
		if rows := n - j1; rows > 0 {
			parallelRows(rows, min(threads, rows/cholBlock), func(r0, r1 int) {
				cholPrefix(s, l, bbuf.f, n, j0, bw, bw+r0, bw+r1)
				cholRows(l, av, s, n, j0, j1, j1+r0, j1+r1)
			})
		}
	}
	return nil
}

// cholPrefix fills rows [r0, r1) of the (n-j0) x bw prefix s with
// L[j0+r0:j0+r1, 0:j0] %*% t(L[j0:j0+bw, 0:j0]) from bpack (the packed right
// operand). The shapes straddle the crossover, and the simple loop streams a
// cholBlock-wide output several times slower, so the tiled engine is named
// here; the two are bitwise interchangeable, so the choice changes no bit.
func cholPrefix(s, l, bpack []float64, n, j0, bw, r0, r1 int) {
	clear(s[r0*bw : r1*bw])
	if j0 == 0 {
		return
	}
	abuf := gemmGetBuf(gemmPackARows * gemmKC)
	gemmTiledRows(s, l[j0*n:], bpack, abuf.f, n, false, j0, bw, r0, r1)
	gemmPutBuf(abuf)
}

// cholDiag finishes the diagonal block [j0, j1) x [j0, j1) column by column.
func cholDiag(l, av, s []float64, n, j0, j1 int) error {
	bw := j1 - j0
	for j := j0; j < j1; j++ {
		lj := l[j*n : j*n+j]
		d := s[(j-j0)*bw+j-j0]
		for _, v := range lj[j0:] {
			d += float64(v * v)
		}
		d = av[j*n+j] - d
		if d <= 0 {
			return fmt.Errorf("matrix: cholesky failed, matrix not positive definite at column %d", j)
		}
		ljj := math.Sqrt(d)
		l[j*n+j] = ljj
		for i := j + 1; i < j1; i++ {
			li := l[i*n+j0 : i*n+j]
			acc := s[(i-j0)*bw+j-j0]
			for k, v := range lj[j0:] {
				acc += float64(li[k] * v)
			}
			l[i*n+j] = (av[i*n+j] - acc) / ljj
		}
	}
	return nil
}

// cholRows finishes columns [j0, j1) of rows [r0, r1), all at or below j1.
// Four rows share each pass over L[j, j0:j], with four independent
// accumulators, so the inner loop is not bound by the FP-add latency; each
// row still adds its own terms one at a time in ascending k.
func cholRows(l, av, s []float64, n, j0, j1, r0, r1 int) {
	bw := j1 - j0
	i := r0
	for ; i+4 <= r1; i += 4 {
		l0, l1, l2, l3 := l[i*n:], l[(i+1)*n:], l[(i+2)*n:], l[(i+3)*n:]
		a0, a1, a2, a3 := av[i*n:], av[(i+1)*n:], av[(i+2)*n:], av[(i+3)*n:]
		sc := s[(i-j0)*bw:]
		for j := j0; j < j1; j++ {
			lj := l[j*n+j0 : j*n+j]
			c := j - j0
			s0, s1, s2, s3 := sc[c], sc[bw+c], sc[2*bw+c], sc[3*bw+c]
			q0, q1, q2, q3 := l0[j0:j], l1[j0:j], l2[j0:j], l3[j0:j]
			for k, v := range lj {
				s0 += float64(q0[k] * v)
				s1 += float64(q1[k] * v)
				s2 += float64(q2[k] * v)
				s3 += float64(q3[k] * v)
			}
			ljj := l[j*n+j]
			l0[j] = (a0[j] - s0) / ljj
			l1[j] = (a1[j] - s1) / ljj
			l2[j] = (a2[j] - s2) / ljj
			l3[j] = (a3[j] - s3) / ljj
		}
	}
	for ; i < r1; i++ {
		li := l[i*n:]
		for j := j0; j < j1; j++ {
			lj := l[j*n+j0 : j*n+j]
			acc := s[(i-j0)*bw+j-j0]
			for k, v := range li[j0:j] {
				acc += float64(v * lj[k])
			}
			li[j] = (av[i*n+j] - acc) / l[j*n+j]
		}
	}
}

// luFactor overwrites the n x n row-major f with its LU decomposition under
// partial pivoting (unit-lower L below the diagonal, U on and above it) and
// returns the row permutation.
func luFactor(f []float64, n int) ([]int, error) {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for col := 0; col < n; col++ {
		pivot, pivotVal := col, math.Abs(f[col*n+col])
		for r := col + 1; r < n; r++ {
			if v := math.Abs(f[r*n+col]); v > pivotVal {
				pivot, pivotVal = r, v
			}
		}
		if pivotVal < 1e-14 {
			return nil, fmt.Errorf("matrix: solve failed, matrix is singular at column %d", col)
		}
		if pivot != col {
			for c := 0; c < n; c++ {
				f[col*n+c], f[pivot*n+c] = f[pivot*n+c], f[col*n+c]
			}
			perm[col], perm[pivot] = perm[pivot], perm[col]
		}
		inv := 1 / f[col*n+col]
		for r := col + 1; r < n; r++ {
			g := f[r*n+col] * inv
			f[r*n+col] = g
			for c := col + 1; c < n; c++ {
				f[r*n+c] -= float64(g * f[col*n+c])
			}
		}
	}
	return perm, nil
}

// loadRHS writes row perm[i] (row i without a permutation) of the n x k
// right-hand side bv into row i of x, or of the identity when bv is nil; x
// is zero on entry.
func loadRHS(x, bv []float64, perm []int, n, k int) {
	for i := 0; i < n; i++ {
		p := i
		if perm != nil {
			p = perm[i]
		}
		if bv == nil {
			x[i*k+p] = 1
		} else {
			copy(x[i*k:(i+1)*k], bv[p*k:(p+1)*k])
		}
	}
}

// forwardSubst solves L y = x in place for the lower triangle of the n x n
// row-major f (unit diagonal when unit), over all k right-hand-side columns
// row by row: row i subtracts l[i][j]·y[j][:] for j ascending, then divides
// by l[i][i], so every cell sees the column-at-a-time sequence.
func forwardSubst(x, f []float64, n, k int, unit bool) {
	for i := 0; i < n; i++ {
		xi := x[i*k : (i+1)*k]
		for j, v := range f[i*n : i*n+i] {
			for c, y := range x[j*k : (j+1)*k] {
				xi[c] -= float64(v * y)
			}
		}
		if !unit {
			d := f[i*n+i]
			for c := range xi {
				xi[c] /= d
			}
		}
	}
}

// backSubst solves U x = y in place for the upper triangle and diagonal of
// the n x n row-major f, rows descending: row i subtracts u[i][j]·x[j][:] for
// j ascending from i+1, then divides by u[i][i].
func backSubst(x, f []float64, n, k int) {
	for i := n - 1; i >= 0; i-- {
		xi := x[i*k : (i+1)*k]
		for j := i + 1; j < n; j++ {
			v := f[i*n+j]
			for c, y := range x[j*k : (j+1)*k] {
				xi[c] -= float64(v * y)
			}
		}
		d := f[i*n+i]
		for c := range xi {
			xi[c] /= d
		}
	}
}

// EigenSym computes the eigenvalues and eigenvectors of a symmetric matrix
// using the cyclic Jacobi rotation method. It returns the eigenvalues as a
// column vector (descending) and the corresponding eigenvectors as columns.
// It is used by the pca builtin.
func EigenSym(a *MatrixBlock) (values, vectors *MatrixBlock, err error) {
	if a.rows != a.cols {
		return nil, nil, fmt.Errorf("matrix: eigen requires a square matrix, got %dx%d", a.rows, a.cols)
	}
	n := a.rows
	m := append([]float64(nil), a.Copy().ToDense().dense...)
	v := Identity(n).dense
	const maxSweeps = 100
	for sweep := 0; sweep < maxSweeps; sweep++ {
		var off float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				off += float64(m[i*n+j] * m[i*n+j])
			}
		}
		if off < 1e-20 {
			break
		}
		for p := 0; p < n; p++ {
			for q := p + 1; q < n; q++ {
				apq := m[p*n+q]
				if math.Abs(apq) < 1e-18 {
					continue
				}
				app, aqq := m[p*n+p], m[q*n+q]
				theta := (aqq - app) / (2 * apq)
				t := math.Copysign(1, theta) / (math.Abs(theta) + math.Sqrt(float64(theta*theta)+1))
				c := 1 / math.Sqrt(float64(t*t)+1)
				s := t * c
				for k := 0; k < n; k++ {
					mkp, mkq := m[k*n+p], m[k*n+q]
					m[k*n+p] = float64(c*mkp) - float64(s*mkq)
					m[k*n+q] = float64(s*mkp) + float64(c*mkq)
				}
				for k := 0; k < n; k++ {
					mpk, mqk := m[p*n+k], m[q*n+k]
					m[p*n+k] = float64(c*mpk) - float64(s*mqk)
					m[q*n+k] = float64(s*mpk) + float64(c*mqk)
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v[k*n+p], v[k*n+q]
					v[k*n+p] = float64(c*vkp) - float64(s*vkq)
					v[k*n+q] = float64(s*vkp) + float64(c*vkq)
				}
			}
		}
	}
	// extract and sort eigenvalues descending
	type pair struct {
		val float64
		idx int
	}
	pairs := make([]pair, n)
	for i := 0; i < n; i++ {
		pairs[i] = pair{m[i*n+i], i}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if pairs[j].val > pairs[i].val {
				pairs[i], pairs[j] = pairs[j], pairs[i]
			}
		}
	}
	values = NewDense(n, 1)
	vectors = NewDense(n, n)
	for i, p := range pairs {
		values.dense[i] = p.val
		for r := 0; r < n; r++ {
			vectors.dense[r*n+i] = v[r*n+p.idx]
		}
	}
	values.RecomputeNNZ()
	vectors.RecomputeNNZ()
	return values, vectors, nil
}
