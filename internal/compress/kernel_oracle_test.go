package compress

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
)

// The matrix-vector, vector-matrix and matrix right-hand-side kernels
// against the loops they replaced: one group at a time, every dictionary
// pre-scaled again in every 1024-row chunk. The kernels must give every
// output cell the same additions in the same order, so the comparison is by
// bits (a NaN matches any NaN), at T = 1, 2 and 3.

// refMatVec is MatVec one group at a time: per chunk, each group in order
// pre-scales its dictionary and adds into the chunk's rows.
func refMatVec(c *CompressedMatrix, v []float64) []float64 {
	out := make([]float64, c.NumRows)
	nChunks, size := rowChunks(c.NumRows)
	for ci := 0; ci < nChunks; ci++ {
		r0, r1 := ci*size, min(ci*size+size, c.NumRows)
		for _, g := range c.Groups {
			refMatVecAccum(g, out[r0:r1], v, r0, r1)
		}
	}
	return out
}

// refMatVecAccum is one group's former MatVecAccum; RLE and uncompressed
// groups run their own method, whose loop is unchanged.
func refMatVecAccum(g ColGroup, out, v []float64, r0, r1 int) {
	switch t := g.(type) {
	case *DDCGroup:
		live := false
		for _, c := range t.Cols {
			if v[c] != 0 {
				live = true
			}
		}
		if !live {
			return
		}
		w, nv := len(t.Cols), t.numVals()
		pre := make([]float64, nv)
		for j, c := range t.Cols {
			x := v[c]
			if x == 0 {
				continue
			}
			for k := 0; k < nv; k++ {
				pre[k] += float64(t.Dict[k*w+j] * x)
			}
		}
		for r := r0; r < r1; r++ {
			out[r-r0] += pre[t.code(r)]
		}
	case *SDCGroup:
		x := v[t.Col]
		if x == 0 {
			return
		}
		pd := float64(t.Default * x)
		if pd != 0 {
			for r := r0; r < r1; r++ {
				out[r-r0] += pd
			}
		}
		pre := make([]float64, len(t.Dict))
		for k, d := range t.Dict {
			pre[k] = float64(d*x) - pd
		}
		lo, hi := t.posRange(r0, r1)
		for i := lo; i < hi; i++ {
			out[int(t.Pos[i])-r0] += pre[t.Codes[i]]
		}
	default:
		g.MatVecAccum(out, v, r0, r1)
	}
}

// refVecMat is VecMat one group at a time: a DDC group sums v per code in
// its own pass, then combines with its dictionary.
func refVecMat(c *CompressedMatrix, u []float64) []float64 {
	out := make([]float64, c.NumCols)
	for _, g := range c.Groups {
		t, ok := g.(*DDCGroup)
		if !ok {
			g.VecMatAccum(out, u)
			continue
		}
		w, nv := len(t.Cols), t.numVals()
		agg := make([]float64, nv)
		for r := range u {
			agg[t.code(r)] += u[r]
		}
		for j, col := range t.Cols {
			var s float64
			for k := 0; k < nv; k++ {
				s += float64(agg[k] * t.Dict[k*w+j])
			}
			out[col] += s
		}
	}
	return out
}

// refMatMultDense is X %*% B per chunk: for every column block, each group
// in order pre-scales its dictionary against the block again and adds into
// the chunk's rows.
func refMatMultDense(c *CompressedMatrix, bd []float64, k int) []float64 {
	dst := make([]float64, c.NumRows*k)
	nChunks, size := rowChunks(c.NumRows)
	for ci := 0; ci < nChunks; ci++ {
		r0, r1 := ci*size, min(ci*size+size, c.NumRows)
		for j0 := 0; j0 < k; j0 += rhsColBlock {
			j1 := min(j0+rhsColBlock, k)
			for _, g := range c.Groups {
				refAccumRHS(g, dst, bd, k, r0, r1, j0, j1)
			}
		}
	}
	return dst
}

// refAccumRHS is one group's former per-chunk accumRHS; RLE and
// uncompressed groups use the unchanged loop of accumRHS itself.
func refAccumRHS(g ColGroup, dst, bd []float64, k, r0, r1, j0, j1 int) {
	blk := j1 - j0
	switch t := g.(type) {
	case *DDCGroup:
		w, nv := len(t.Cols), t.numVals()
		pre := make([]float64, nv*blk)
		for kk := 0; kk < nv; kk++ {
			for a, gc := range t.Cols {
				d := t.Dict[kk*w+a]
				if d == 0 {
					continue
				}
				for jj := 0; jj < blk; jj++ {
					pre[kk*blk+jj] += float64(d * bd[gc*k+j0+jj])
				}
			}
		}
		gatherRHS(dst, pre, t.Codes8, t.Codes16, k, r0, r1, j0, blk)
	case *SDCGroup:
		brow := bd[t.Col*k+j0:]
		dv := make([]float64, blk)
		for jj := range dv {
			dv[jj] = float64(t.Default * brow[jj])
		}
		if t.Default != 0 {
			for r := r0; r < r1; r++ {
				for jj := 0; jj < blk; jj++ {
					dst[r*k+j0+jj] += dv[jj]
				}
			}
		}
		pre := make([]float64, len(t.Dict)*blk)
		for kk, d := range t.Dict {
			for jj := 0; jj < blk; jj++ {
				pre[kk*blk+jj] = float64(d*brow[jj]) - dv[jj]
			}
		}
		lo, hi := t.posRange(r0, r1)
		for i := lo; i < hi; i++ {
			for jj := 0; jj < blk; jj++ {
				dst[int(t.Pos[i])*k+j0+jj] += pre[int(t.Codes[i])*blk+jj]
			}
		}
	default:
		accumRHS(g, nil, dst, bd, k, r0, r1, j0, j1)
	}
}

// Group kinds of the oracle fixtures.
const (
	kindDDC1 = iota // one column, one-byte codes
	kindDDC2        // one column, two-byte codes
	kindCC          // two or three columns, one-byte codes
	kindRLE         // runs over a few values, zero runs included
	kindSDC         // a default and about 10% exceptions
	kindUnc         // plain columns
	kindHuge        // one column, 20 000 tuples: an X %*% B table alone in its batch
	numKinds
)

// oracleGroups interleaves every kind, with runs of one-byte-code groups of
// 1, 2, 3, 5 and 9, so that fused runs end off the fused width.
var oracleGroups = []int{
	kindDDC1, kindCC, kindCC, kindDDC1, kindDDC1, kindRLE,
	kindCC, kindDDC2, kindDDC1, kindDDC1, kindDDC1, kindSDC, kindUnc,
	kindDDC1, kindCC, kindDDC1, kindDDC1, kindDDC1, kindCC, kindDDC1, kindDDC1, kindDDC1,
	kindSDC, kindRLE, kindCC, kindDDC1, kindHuge, kindUnc, kindDDC1,
}

// specials are the non-finite and signed-zero values the fixtures and
// vectors sprinkle in.
var specials = []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN()}

// oracleMatrix builds a compressed matrix of rows rows with one group per
// kind, in order. Dictionaries hold 0, −0 and, where nonFinite is set, an
// occasional ±Inf or NaN.
func oracleMatrix(rng *rand.Rand, rows int, kinds []int, nonFinite bool) *CompressedMatrix {
	cm := &CompressedMatrix{NumRows: rows}
	value := func(i int) float64 {
		switch {
		case i == 0:
			return 0
		case i == 1:
			return math.Copysign(0, -1)
		case nonFinite && rng.Intn(12) == 0:
			return specials[1+rng.Intn(3)]
		}
		return math.Round(rng.NormFloat64()*8) / 4
	}
	cols := func(w int) []int {
		c := make([]int, w)
		for j := range c {
			c[j] = cm.NumCols + j
		}
		cm.NumCols += w
		return c
	}
	ddc := func(w, nv int, wide bool) ColGroup {
		dict := make([]float64, nv*w)
		for i := range dict {
			dict[i] = value(i)
		}
		codes := make([]int, rows)
		for r := range codes {
			codes[r] = rng.Intn(nv)
		}
		return ddcGroup(cols(w), dict, codes, wide)
	}
	for _, kind := range kinds {
		var g ColGroup
		switch kind {
		case kindDDC1:
			g = ddc(1, 1+rng.Intn(256), false)
		case kindDDC2:
			g = ddc(1, 257+rng.Intn(300), true)
		case kindCC:
			g = ddc(2+rng.Intn(2), 1+rng.Intn(125), false)
		case kindHuge:
			g = ddc(1, 20000, true)
		case kindRLE:
			vals := []float64{0, value(2), value(3)}
			rle := &RLEGroup{Col: cols(1)[0]}
			for r := 0; r < rows; {
				n := min(1+rng.Intn(700), rows-r)
				rle.Values = append(rle.Values, vals[rng.Intn(len(vals))])
				rle.Starts, rle.Lens = append(rle.Starts, int32(r)), append(rle.Lens, int32(n))
				r += n
			}
			g = rle
		case kindSDC:
			sdc := &SDCGroup{Col: cols(1)[0], N: rows, Default: value(2 + rng.Intn(3)),
				Dict: []float64{value(2), value(0), value(3)}, Counts: make([]int32, 3)}
			for r := 0; r < rows; r++ {
				if rng.Intn(10) == 0 {
					k := rng.Intn(3)
					sdc.Pos, sdc.Codes = append(sdc.Pos, int32(r)), append(sdc.Codes, uint16(k))
					sdc.Counts[k]++
				}
			}
			g = sdc
		case kindUnc:
			w := 1 + rng.Intn(2)
			data := matrix.NewDense(rows, w)
			for i := range data.DenseValues() {
				data.DenseValues()[i] = value(2 + rng.Intn(9))
			}
			data.RecomputeNNZ()
			g = &UncompressedGroup{ColIdx: cols(w), Data: data}
		}
		cm.Groups = append(cm.Groups, g)
	}
	return cm
}

// oracleVectors returns the vectors of length n the kernels are checked on:
// random, with ±0, ±Inf and NaN entries, every column of every third group
// zero (dead groups, some inside fused runs), and all zero.
func oracleVectors(rng *rand.Rand, n int, groupCols [][]int) map[string][]float64 {
	random := func() []float64 {
		v := make([]float64, n)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		return v
	}
	special := random()
	for i := range special {
		if rng.Intn(7) == 0 {
			special[i] = specials[rng.Intn(len(specials))]
		}
	}
	dead := random()
	for gi, cols := range groupCols {
		for _, c := range cols {
			if gi%3 == 1 {
				dead[c] = 0
				if gi%2 == 1 {
					dead[c] = specials[0]
				}
			}
		}
	}
	return map[string][]float64{"random": random(), "special": special, "dead-groups": dead, "zero": make([]float64, n)}
}

// bitsEqual reports the first cell whose bits differ. Any two NaNs are equal:
// which operand's payload an addition of two NaNs keeps is the compiler's
// choice of operand order, which Go leaves open.
func bitsEqual(t *testing.T, got *matrix.MatrixBlock, want []float64, what string) {
	t.Helper()
	vals := got.DenseValues()
	if len(vals) != len(want) {
		t.Fatalf("%s: %d cells, want %d", what, len(vals), len(want))
	}
	for i := range want {
		if math.Float64bits(vals[i]) != math.Float64bits(want[i]) && !(math.IsNaN(vals[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: cell %d = %v (%#x), want %v (%#x)", what, i, vals[i], math.Float64bits(vals[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// checkKernelsAgainstReference runs MatVec, VecMat and, for each k, X %*% B
// on cm at T = 1, 2 and 3 against the one-group-at-a-time loops.
func checkKernelsAgainstReference(t *testing.T, rng *rand.Rand, cm *CompressedMatrix, ks ...int) {
	t.Helper()
	groupCols := make([][]int, len(cm.Groups))
	for i, g := range cm.Groups {
		groupCols[i] = g.Columns()
	}
	vs := oracleVectors(rng, cm.NumCols, groupCols)
	us := oracleVectors(rng, cm.NumRows, nil)
	for _, name := range []string{"random", "special", "dead-groups", "zero"} {
		v, u := vs[name], us[name]
		wantMV, wantVM := refMatVec(cm, v), refVecMat(cm, u)
		for _, threads := range []int{1, 2, 3} {
			mv, err := cm.MatVec(vecBlock(v, cm.NumCols, 1), threads)
			if err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, mv, wantMV, name+" matvec")
			vm, err := cm.VecMat(vecBlock(u, 1, cm.NumRows), threads)
			if err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, vm, wantVM, name+" vecmat")
		}
	}
	for _, k := range ks {
		b := make([]float64, cm.NumCols*k)
		for i := range b {
			if b[i] = rng.NormFloat64(); rng.Intn(11) == 0 {
				b[i] = specials[rng.Intn(len(specials))]
			}
		}
		want := refMatMultDense(cm, b, k)
		for _, threads := range []int{1, 2, 3} {
			got, err := cm.MatMultDense(vecBlock(b, cm.NumCols, k), threads)
			if err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, got, want, "matmult")
		}
	}
}

// TestKernelsMatchOneGroupAtATime: on row counts around the chunk size, on
// groups of every kind, and on vectors with dead groups, ±0, ±Inf and NaN,
// MatVec, VecMat and X %*% B give the bits of the one-group-at-a-time loops.
func TestKernelsMatchOneGroupAtATime(t *testing.T) {
	for _, rows := range []int{0, 1, 1023, 1024, 1025, 60001} {
		for _, nonFinite := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(rows)*2 + 1))
			cm := oracleMatrix(rng, rows, oracleGroups, nonFinite)
			ks := []int{1, 3, 70}
			if rows > 2000 {
				ks = []int{5}
			}
			checkKernelsAgainstReference(t, rng, cm, ks...)
		}
	}
}

// TestReadRefusesOneByteCodesPastTheirRange: one-byte codes address at most
// 256 tuples (the fused kernels' 256-slot tables rely on it), so Read
// refuses a larger dictionary with them.
func TestReadRefusesOneByteCodesPastTheirRange(t *testing.T) {
	data := hostileSpills(t)["one-byte-codes-for-257-tuples"]
	if cm, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatalf("decoded %v", cm)
	}
}

// FuzzCompressedKernels builds a matrix from a list of group kinds, a row
// count and a seed, and checks MatVec, VecMat and X %*% B against the
// one-group-at-a-time loops by bits.
func FuzzCompressedKernels(f *testing.F) {
	kinds := make([]byte, len(oracleGroups))
	for i, k := range oracleGroups {
		kinds[i] = byte(k)
	}
	f.Add(uint16(1025), kinds, int64(1), true)
	f.Add(uint16(0), []byte{kindDDC1, kindDDC1, kindDDC1, kindDDC1, kindDDC1}, int64(2), false)
	f.Add(uint16(2049), []byte{kindCC, kindRLE, kindDDC2, kindSDC, kindUnc}, int64(3), true)
	f.Fuzz(func(t *testing.T, rows uint16, kindBytes []byte, seed int64, nonFinite bool) {
		var kinds []int
		for _, b := range kindBytes[:min(len(kindBytes), 24)] {
			if k := int(b) % numKinds; k != kindHuge {
				kinds = append(kinds, k)
			}
		}
		rng := rand.New(rand.NewSource(seed))
		cm := oracleMatrix(rng, int(rows)%3000, kinds, nonFinite)
		checkKernelsAgainstReference(t, rng, cm, 2, 65)
	})
}
