package matrix

import (
	"math"
	"math/rand"
)

// Identity returns the n x n identity matrix.
func Identity(n int) *MatrixBlock {
	out := NewDense(n, n)
	for i := 0; i < n; i++ {
		out.dense[i*n+i] = 1
	}
	out.nnz = int64(n)
	return out
}

// Fill returns a rows x cols matrix with every cell set to value.
func Fill(rows, cols int, value float64) *MatrixBlock {
	out := NewDense(rows, cols)
	if value != 0 {
		for i := range out.dense {
			out.dense[i] = value
		}
		out.nnz = int64(rows * cols)
	}
	return out
}

// RandUniform generates a rows x cols matrix with values drawn uniformly from
// [minV, maxV). Cells are zeroed with probability 1-sparsity. The generator
// is seeded deterministically so runs are reproducible and lineage traces can
// record the seed (Section 3.1: tracing of non-determinism).
func RandUniform(rows, cols int, minV, maxV, sparsity float64, seed int64) *MatrixBlock {
	return NewRandGen(minV, maxV, sparsity, false, seed).Band(rows, []int{cols})[0]
}

// RandNormal generates a rows x cols matrix with standard normal values,
// zeroed with probability 1-sparsity.
func RandNormal(rows, cols int, sparsity float64, seed int64) *MatrixBlock {
	return NewRandGen(0, 0, sparsity, true, seed).Band(rows, []int{cols})[0]
}

// RandGen draws the cells of one random matrix from one seeded source in
// row-major order: per cell, below sparsity 1, a uniform draw that keeps the
// cell with probability sparsity, then the value — uniform in [minV, maxV),
// or standard normal. A matrix drawn band by band, each band cut into column
// blocks, so has the cells of RandUniform or RandNormal over the same seed.
type RandGen struct {
	rng                  *rand.Rand
	minV, maxV, sparsity float64
	normal               bool
}

// NewRandGen returns the generator of RandUniform(rows, cols, minV, maxV,
// sparsity, seed) or, normal, of RandNormal(rows, cols, sparsity, seed).
func NewRandGen(minV, maxV, sparsity float64, normal bool, seed int64) *RandGen {
	return &RandGen{rng: rand.New(rand.NewSource(seed)), minV: minV, maxV: maxV, sparsity: sparsity, normal: normal}
}

// Band draws the matrix's next rows rows, cut into blocks of the given
// widths, left to right.
func (g *RandGen) Band(rows int, widths []int) []*MatrixBlock {
	out := make([]*MatrixBlock, len(widths))
	if g.sparsity < 1.0 {
		bs := make([]*Builder, len(widths))
		for j, w := range widths {
			bs[j] = NewBuilder(rows, w)
		}
		for r := 0; r < rows; r++ {
			for j, w := range widths {
				for c := 0; c < w; c++ {
					if g.rng.Float64() < g.sparsity {
						bs[j].Add(r, c, g.value())
					}
				}
			}
		}
		for j, b := range bs {
			out[j] = b.Build()
			out[j].ExamineAndApplySparsity()
		}
		return out
	}
	for j, w := range widths {
		out[j] = NewDense(rows, w)
	}
	for r := 0; r < rows; r++ {
		for j, w := range widths {
			row := out[j].dense[r*w : (r+1)*w]
			for c := range row {
				row[c] = g.value()
			}
		}
	}
	for _, b := range out {
		b.RecomputeNNZ()
	}
	return out
}

// value draws one kept cell's value.
func (g *RandGen) value() float64 {
	if g.normal {
		return g.rng.NormFloat64()
	}
	return g.minV + float64(g.rng.Float64()*(g.maxV-g.minV))
}

// Seq returns the column vector (from, from+incr, ..., to) following DML seq
// semantics.
// SeqLength returns the number of values of seq(from, to, incr) — the single
// definition shared by the local kernel and the blocked generator, so the two
// can never disagree on boundary cases.
func SeqLength(from, to, incr float64) int {
	if incr == 0 {
		incr = 1
	}
	n := int(math.Floor((to-from)/incr)) + 1
	if n < 0 {
		n = 0
	}
	return n
}

func Seq(from, to, incr float64) *MatrixBlock {
	if incr == 0 {
		incr = 1
	}
	n := SeqLength(from, to, incr)
	out := NewDense(n, 1)
	v := from
	for i := 0; i < n; i++ {
		out.dense[i] = v
		v += incr
	}
	out.RecomputeNNZ()
	return out
}

// Sample returns n values sampled from 1..population (without replacement
// when replace is false) as a column vector.
func Sample(population, n int, replace bool, seed int64) *MatrixBlock {
	rng := rand.New(rand.NewSource(seed))
	out := NewDense(n, 1)
	if replace {
		for i := 0; i < n; i++ {
			out.dense[i] = float64(rng.Intn(population) + 1)
		}
	} else {
		perm := rng.Perm(population)
		if n > population {
			n = population
		}
		for i := 0; i < n; i++ {
			out.dense[i] = float64(perm[i] + 1)
		}
	}
	out.RecomputeNNZ()
	return out
}

// SyntheticRegression generates a synthetic regression dataset: an n x m
// feature matrix X with the given sparsity and a response y = X %*% w + noise
// where w is a dense weight vector. It is the data generator used by the
// benchmark harness for the Figure 5 workloads.
func SyntheticRegression(n, m int, sparsity float64, seed int64) (x, y *MatrixBlock) {
	x = RandUniform(n, m, 0, 1, sparsity, seed)
	w := RandUniform(m, 1, -1, 1, 1.0, seed+1)
	noise := RandNormal(n, 1, 1.0, seed+2)
	xw, err := Multiply(x, w, 0)
	if err != nil {
		panic(err)
	}
	y = NewDense(n, 1)
	for i := 0; i < n; i++ {
		y.dense[i] = xw.Get(i, 0) + float64(0.01*noise.Get(i, 0))
	}
	y.RecomputeNNZ()
	return x, y
}

// SyntheticClassification generates a synthetic binary classification
// dataset with labels in {0, 1} determined by a random linear separator.
func SyntheticClassification(n, m int, sparsity float64, seed int64) (x, y *MatrixBlock) {
	x = RandUniform(n, m, -1, 1, sparsity, seed)
	w := RandUniform(m, 1, -1, 1, 1.0, seed+1)
	xw, err := Multiply(x, w, 0)
	if err != nil {
		panic(err)
	}
	y = NewDense(n, 1)
	for i := 0; i < n; i++ {
		if xw.Get(i, 0) > 0 {
			y.dense[i] = 1
		}
	}
	y.RecomputeNNZ()
	return x, y
}
