package matrix

import (
	"math"
	"math/bits"
	"sort"
	"sync"
)

// The plain aggregates are the drivers of fused.go over m's own walk, which
// never fails.

// ReduceAll folds op over every cell of m.
func ReduceAll(op Reduction, m *MatrixBlock, threads int) float64 {
	v, _ := walkFull(op, m.rows, m.walk(threads))
	return v
}

// Sum returns the sum of all cells, accumulated multi-threaded over fixed row
// chunks (reproducible across thread counts).
func Sum(m *MatrixBlock, threads int) float64 {
	return ReduceAll(ReduceSum, m, threads)
}

// SumSq returns the sum of squared cells.
func SumSq(m *MatrixBlock, threads int) float64 {
	return ReduceAll(ReduceSumSq, m, threads)
}

// Variance returns the sample variance over all cells.
func Variance(m *MatrixBlock) float64 {
	cells := float64(m.rows * m.cols)
	if cells <= 1 {
		return math.NaN()
	}
	mu := Sum(m, 1) / cells
	var s float64
	for r := 0; r < m.rows; r++ {
		for c := 0; c < m.cols; c++ {
			d := m.Get(r, c) - mu
			s += float64(d * d)
		}
	}
	return s / (cells - 1)
}

// Min returns the minimum cell value.
func Min(m *MatrixBlock, threads int) float64 {
	return ReduceAll(ReduceMin, m, threads)
}

// Max returns the maximum cell value.
func Max(m *MatrixBlock, threads int) float64 {
	return ReduceAll(ReduceMax, m, threads)
}

// Trace returns the sum of diagonal cells of a square matrix.
func Trace(m *MatrixBlock) float64 {
	n := m.rows
	if m.cols < n {
		n = m.cols
	}
	var s float64
	for i := 0; i < n; i++ {
		s += m.Get(i, i)
	}
	return s
}

// ColSums returns a 1 x cols row vector with the per-column sums.
func ColSums(m *MatrixBlock, threads int) *MatrixBlock {
	out := NewDense(1, m.cols)
	_ = walkCols(ReduceSum, out.dense, m.rows, m.walk(threads))
	out.RecomputeNNZ()
	return out
}

// RowSums returns a rows x 1 column vector with the per-row sums.
func RowSums(m *MatrixBlock, threads int) *MatrixBlock {
	out := NewDense(m.rows, 1)
	_ = walkRows(ReduceSum, out.dense, m.walk(threads))
	out.RecomputeNNZ()
	return out
}

// RowIndexMax returns, per row, the 1-based column index of the maximum
// value (DML rowIndexMax semantics).
func RowIndexMax(m *MatrixBlock) *MatrixBlock {
	out := NewDense(m.rows, 1)
	for r := 0; r < m.rows; r++ {
		best := math.Inf(-1)
		idx := 1
		for c := 0; c < m.cols; c++ {
			if v := m.Get(r, c); v > best {
				best = v
				idx = c + 1
			}
		}
		out.dense[r] = float64(idx)
	}
	out.RecomputeNNZ()
	return out
}

// ColVars returns the per-column sample variances as a 1 x cols vector.
func ColVars(m *MatrixBlock) *MatrixBlock {
	out := NewDense(1, m.cols)
	if m.rows <= 1 {
		return out
	}
	sums := ColSums(m, 1)
	for c := 0; c < m.cols; c++ {
		var s float64
		mu := sums.dense[c] / float64(m.rows)
		for r := 0; r < m.rows; r++ {
			d := m.Get(r, c) - mu
			s += float64(d * d)
		}
		out.dense[c] = s / float64(m.rows-1)
	}
	out.RecomputeNNZ()
	return out
}

// ColSds returns the per-column sample standard deviations as a 1 x cols
// vector.
func ColSds(m *MatrixBlock) *MatrixBlock {
	out := ColVars(m)
	for i := range out.dense {
		out.dense[i] = math.Sqrt(out.dense[i])
	}
	out.RecomputeNNZ()
	return out
}

// Quantile returns the p-quantile (0 <= p <= 1) of the cells of v by nearest
// rank: the element at index ceil(p*n)-1 (0 for p <= 0, n-1 for p >= 1) of
// the cells in the order of sort.Float64s, NaN lowest. It selects that
// element in O(n) expected time over one copy of the cells instead of sorting
// them; the copy lives in a pooled scratch buffer.
func Quantile(v *MatrixBlock, p float64) float64 {
	n := v.rows * v.cols
	if n == 0 {
		return math.NaN()
	}
	k := n - 1
	if p < 1 {
		k = max(int(math.Ceil(p*float64(n)))-1, 0)
	}
	bp, _ := quantilePool.Get().(*[]float64)
	if bp == nil || cap(*bp) < n {
		bp = new([]float64)
		*bp = make([]float64, n)
	}
	vals := (*bp)[:n]
	if v.sparse == nil {
		copy(vals, v.dense)
	} else {
		s := v.csr()
		nz := copy(vals, s.Values[:s.RowPtr[v.rows]])
		clear(vals[nz:])
	}
	q := selectNearestRank(vals, k)
	quantilePool.Put(bp)
	return q
}

// quantilePool recycles Quantile's scratch copies.
var quantilePool sync.Pool

// selectNearestRank returns the element sort.Float64s would put at index k
// of a, permuting a: the NaNs first, then a quickselect with three-way
// partitions (a run of duplicates is one step) around a median-of-three
// pivot. A range that does not shrink fast enough is sorted instead, which
// bounds the worst case by O(n log n). Elements equal under == are
// interchangeable here, as they are to sort.Float64s, which does not order
// -0 and +0 either.
func selectNearestRank(a []float64, k int) float64 {
	nan := 0
	for i, x := range a {
		if x != x {
			a[i], a[nan] = a[nan], x
			nan++
		}
	}
	if k < nan {
		return math.NaN()
	}
	lo, hi := nan, len(a)
	for budget := 2 * bits.Len(uint(hi-lo)); hi-lo > 16 && budget > 0; budget-- {
		pivot := median3(a[lo], a[lo+(hi-lo)/2], a[hi-1])
		// [lo, lt) < pivot, [lt, i) == pivot, [gt, hi) > pivot
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch x := a[i]; {
			case x < pivot:
				a[lt], a[i] = x, a[lt]
				lt++
				i++
			case x > pivot:
				gt--
				a[i], a[gt] = a[gt], x
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return a[k]
		}
	}
	sort.Float64s(a[lo:hi])
	return a[k]
}

// median3 returns the median of three non-NaN values.
func median3(x, y, z float64) float64 {
	if x > y {
		x, y = y, x
	}
	if y > z {
		y = z
	}
	return max(x, y)
}

// Median returns the 0.5-quantile of a vector.
func Median(v *MatrixBlock) float64 { return Quantile(v, 0.5) }

// CumSumCols returns the column-wise cumulative sums (DML cumsum semantics).
func CumSumCols(m *MatrixBlock) *MatrixBlock {
	out := NewDense(m.rows, m.cols)
	for c := 0; c < m.cols; c++ {
		var acc float64
		for r := 0; r < m.rows; r++ {
			acc += m.Get(r, c)
			out.dense[r*m.cols+c] = acc
		}
	}
	out.RecomputeNNZ()
	return out
}

// Table computes a contingency table over two column vectors of positive
// integer codes: out[i,j] counts rows where a==i+1 and b==j+1 (DML table).
func Table(a, b *MatrixBlock) *MatrixBlock {
	maxA, maxB := 0, 0
	n := a.rows
	for r := 0; r < n; r++ {
		if v := int(a.Get(r, 0)); v > maxA {
			maxA = v
		}
		if v := int(b.Get(r, 0)); v > maxB {
			maxB = v
		}
	}
	out := NewDense(maxA, maxB)
	for r := 0; r < n; r++ {
		i, j := int(a.Get(r, 0))-1, int(b.Get(r, 0))-1
		if i >= 0 && j >= 0 {
			out.dense[i*maxB+j]++
		}
	}
	out.RecomputeNNZ()
	return out
}
