package compress

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
)

// Tests for the one dictionary-coded group type: single-column DDC is the
// width-one case of co-coding and must compute the bits the dedicated
// single-column kernels computed, and the zero-operand rules of the kernels
// are pinned on non-finite dictionaries.

// ddcGroup builds a DDC group over cols from a tuple-major dictionary and one
// code per row, with two-byte codes when wide is set.
func ddcGroup(cols []int, dict []float64, codes []int, wide bool) *DDCGroup {
	g := &DDCGroup{Cols: cols, Dict: dict, Counts: make([]int32, len(dict)/len(cols))}
	if wide {
		g.Codes16 = make([]uint16, len(codes))
	} else {
		g.Codes8 = make([]uint8, len(codes))
	}
	for r, k := range codes {
		g.Counts[k]++
		if wide {
			g.Codes16[r] = uint16(k)
		} else {
			g.Codes8[r] = uint8(k)
		}
	}
	return g
}

// refCol is one width-1 group as the reference kernels read it.
type refCol struct {
	col   int
	dict  []float64
	codes []int
}

func (c refCol) counts() []float64 {
	cnt := make([]float64, len(c.dict))
	for _, k := range c.codes {
		cnt[k]++
	}
	return cnt
}

// widthOneFixture builds a matrix of width-1 DDC groups only: one- and
// two-byte codes, dictionaries holding 0 and -0, and more rows than one
// parallel chunk.
func widthOneFixture(rows int) (*CompressedMatrix, []refCol) {
	rng := rand.New(rand.NewSource(41))
	sizes := []int{7, 300, 256, 1000}
	cm := &CompressedMatrix{NumRows: rows, NumCols: len(sizes)}
	var ref []refCol
	for c, nv := range sizes {
		dict := make([]float64, nv)
		for k := range dict {
			dict[k] = rng.NormFloat64() * 3
		}
		dict[1] = 0
		if c == 2 {
			dict[2] = math.Copysign(0, -1)
		}
		codes := make([]int, rows)
		for r := range codes {
			codes[r] = rng.Intn(nv)
		}
		cm.Groups = append(cm.Groups, ddcGroup([]int{c}, dict, codes, nv > 256))
		ref = append(ref, refCol{col: c, dict: dict, codes: codes})
	}
	return cm, ref
}

// The reference kernels below compute row by row with the arithmetic of the
// former single-column DDC kernels.

func refMV(ref []refCol, v []float64, rows int) []float64 {
	out := make([]float64, rows)
	for r := range out {
		for _, c := range ref {
			if x := v[c.col]; x != 0 {
				out[r] += float64(c.dict[c.codes[r]] * x)
			}
		}
	}
	return out
}

func refVM(ref []refCol, u []float64, cols int) []float64 {
	out := make([]float64, cols)
	for _, c := range ref {
		agg := make([]float64, len(c.dict))
		for r, k := range c.codes {
			agg[k] += u[r]
		}
		var s float64
		for k, d := range c.dict {
			s += float64(agg[k] * d)
		}
		out[c.col] += s
	}
	return out
}

func refTSMM(ref []refCol, n, rows int) []float64 {
	out := make([]float64, n*n)
	for i, a := range ref {
		var self float64
		for k, cnt := range a.counts() {
			if cnt != 0 {
				self += float64(cnt * a.dict[k] * a.dict[k])
			}
		}
		out[a.col*n+a.col] = self
		for _, b := range ref[i+1:] {
			cooc := make([]float64, len(a.dict)*len(b.dict))
			for r := 0; r < rows; r++ {
				cooc[a.codes[r]*len(b.dict)+b.codes[r]]++
			}
			var s float64
			for ka, da := range a.dict {
				if da == 0 {
					continue
				}
				for kb, db := range b.dict {
					if cnt := cooc[ka*len(b.dict)+kb]; cnt != 0 {
						s += float64(cnt * da * db)
					}
				}
			}
			out[a.col*n+b.col], out[b.col*n+a.col] = s, s
		}
	}
	return out
}

func refMMDense(ref []refCol, b []float64, rows, k int) []float64 {
	out := make([]float64, rows*k)
	for r := 0; r < rows; r++ {
		for _, c := range ref {
			d := c.dict[c.codes[r]]
			for j := 0; j < k; j++ {
				out[r*k+j] += float64(d * b[c.col*k+j])
			}
		}
	}
	return out
}

func refTransMMDense(ref []refCol, b []float64, cols, k int) []float64 {
	out := make([]float64, cols*k)
	for _, c := range ref {
		agg := make([]float64, len(c.dict)*k)
		for r, kk := range c.codes {
			for j := 0; j < k; j++ {
				agg[kk*k+j] += b[r*k+j]
			}
		}
		for kk, d := range c.dict {
			if d == 0 {
				continue
			}
			for j := 0; j < k; j++ {
				out[c.col*k+j] += float64(d * agg[kk*k+j])
			}
		}
	}
	return out
}

func refCells(ref []refCol, cols, r0, r1 int) []float64 {
	out := make([]float64, (r1-r0)*cols)
	for r := r0; r < r1; r++ {
		for _, c := range ref {
			out[(r-r0)*cols+c.col] = c.dict[c.codes[r]]
		}
	}
	return out
}

// assertBits fails unless got and want hold the same float64 bit patterns.
func assertBits(t *testing.T, got *matrix.MatrixBlock, want []float64, what string) {
	t.Helper()
	if got.Rows()*got.Cols() != len(want) {
		t.Fatalf("%s: got %dx%d, want %d cells", what, got.Rows(), got.Cols(), len(want))
	}
	for i, w := range want {
		r, c := i/got.Cols(), i%got.Cols()
		if g := got.Get(r, c); math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: cell (%d,%d) = %v (%#x), want %v (%#x)", what, r, c, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

func vecBlock(vals []float64, rows, cols int) *matrix.MatrixBlock {
	return matrix.NewDenseFromSlice(rows, cols, append([]float64(nil), vals...))
}

// TestWidthOneDDCMatchesSingleColumnFormulas: on finite data every kernel over
// width-1 groups, with one- and two-byte codes, computes the bits of a
// row-by-row reference that uses the single-column DDC formulas, at any
// thread count.
func TestWidthOneDDCMatchesSingleColumnFormulas(t *testing.T) {
	const rows, k = 2500, 70
	cm, ref := widthOneFixture(rows)
	n := cm.NumCols
	if got := cm.EncodingSummary(); got != "ddc=4,rle=0,sdc=0,cc=0,unc=0" {
		t.Fatalf("fixture encodes to %s", got)
	}
	if cm.Groups[0].(*DDCGroup).Codes8 == nil || cm.Groups[1].(*DDCGroup).Codes16 == nil {
		t.Fatal("fixture lacks one- or two-byte codes")
	}
	rng := rand.New(rand.NewSource(43))
	fill := func(m int) []float64 {
		vals := make([]float64, m)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		return vals
	}
	v := fill(n)
	v[1] = 0 // a zero entry skips its group
	u := fill(rows)
	b, bt := fill(n*k), fill(rows*k)

	wantMV := refMV(ref, v, rows)
	for _, threads := range []int{1, 2, 3} {
		mv, err := cm.MatVec(vecBlock(v, n, 1), threads)
		if err != nil {
			t.Fatal(err)
		}
		assertBits(t, mv, wantMV, "matvec")
		vm, err := cm.VecMat(vecBlock(u, 1, rows), threads)
		if err != nil {
			t.Fatal(err)
		}
		assertBits(t, vm, refVM(ref, u, n), "vecmat")
		assertBits(t, cm.TSMM(threads), refTSMM(ref, n, rows), "tsmm")
		mm, err := cm.MatMultDense(vecBlock(b, n, k), threads)
		if err != nil {
			t.Fatal(err)
		}
		assertBits(t, mm, refMMDense(ref, b, rows, k), "X %*% B")
		tmm, err := cm.TransMatMultDense(vecBlock(bt, rows, k), threads)
		if err != nil {
			t.Fatal(err)
		}
		assertBits(t, tmm, refTransMMDense(ref, bt, n, k), "t(X) %*% B")
		rs := make([]float64, rows)
		for r := range rs {
			for _, c := range ref {
				rs[r] += c.dict[c.codes[r]]
			}
		}
		assertBits(t, cm.RowSums(threads), rs, "rowSums")
	}

	var sum float64
	colSums := make([]float64, n)
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, c := range ref {
		var s float64
		for kk, cnt := range c.counts() {
			s += float64(cnt * c.dict[kk])
			mn, mx = math.Min(mn, c.dict[kk]), math.Max(mx, c.dict[kk])
		}
		sum += s
		colSums[c.col] += s
	}
	assertBits(t, vecBlock([]float64{cm.Sum(), compressedValue(t, cm, "min"), compressedValue(t, cm, "max")}, 1, 3),
		[]float64{sum, mn, mx}, "sum, min, max")
	assertBits(t, cm.ColSums(), colSums, "colSums")
	assertBits(t, cm.Decompress(), refCells(ref, n, 0, rows), "decompress")

	var buf bytes.Buffer
	if err := cm.Write(&buf); err != nil {
		t.Fatal(err)
	}
	written := append([]byte(nil), buf.Bytes()...)
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.EncodingSummary() != cm.EncodingSummary() {
		t.Fatalf("encodings changed across the spill: %s -> %s", cm.EncodingSummary(), back.EncodingSummary())
	}
	assertBits(t, back.Decompress(), refCells(ref, n, 0, rows), "spill round trip")
	var again bytes.Buffer
	if err := back.Write(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), written) {
		t.Fatal("a restored matrix writes different bytes")
	}
}

// TestDDCZeroOperandRule pins what the kernels do with a zero operand against
// a non-finite one, at widths 1 and 3. MV skips a zero vector entry, so the
// product with an infinite or NaN dictionary value never forms; X %*% B skips
// a zero dictionary value, so it never meets an infinite B. VM skips nothing:
// a code whose rows carry zero vector weight still multiplies its values.
func TestDDCZeroOperandRule(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	same := func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
	}
	check := func(t *testing.T, what string, got *matrix.MatrixBlock, want []float64) {
		t.Helper()
		for i, w := range want {
			if g := got.Get(i/got.Cols(), i%got.Cols()); !same(g, w) {
				t.Errorf("%s: cell %d = %v, want %v", what, i, g, w)
			}
		}
	}
	mv := func(cm *CompressedMatrix, v ...float64) *matrix.MatrixBlock {
		out, err := cm.MatVec(vecBlock(v, len(v), 1), 1)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	vm := func(cm *CompressedMatrix, u ...float64) *matrix.MatrixBlock {
		out, err := cm.VecMat(vecBlock(u, 1, len(u)), 1)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	mm := func(cm *CompressedMatrix, b []float64, k int) *matrix.MatrixBlock {
		out, err := cm.MatMultDense(vecBlock(b, len(b)/k, k), 1)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}

	t.Run("width1", func(t *testing.T) {
		// column values by row: Inf, 0, -2, 0
		g := ddcGroup([]int{0}, []float64{inf, 0, -2}, []int{0, 1, 2, 1}, false)
		cm := &CompressedMatrix{NumRows: 4, NumCols: 1, Groups: []ColGroup{g}}
		check(t, "mv zero entry", mv(cm, 0), []float64{0, 0, 0, 0})
		check(t, "mv", mv(cm, 0.5), []float64{inf, 0, -1, 0})
		check(t, "vm zero weight on Inf", vm(cm, 0, 1, 1, 1), []float64{nan})
		check(t, "vm", vm(cm, 1, 1, 0, 1), []float64{inf})
		// the zero cells meet Inf in B and contribute 0, not NaN
		check(t, "X %*% B", mm(cm, []float64{inf, 1}, 2), []float64{inf, inf, 0, 0, -inf, -2, 0, 0})
	})
	t.Run("width3", func(t *testing.T) {
		// tuples (Inf, 1, 0), (5, 0, 2), (NaN, -Inf, 3); rows use 0, 1, 2, 0
		g := ddcGroup([]int{0, 1, 2}, []float64{inf, 1, 0, 5, 0, 2, nan, -inf, 3}, []int{0, 1, 2, 0}, false)
		cm := &CompressedMatrix{NumRows: 4, NumCols: 3, Groups: []ColGroup{g}}
		// v[0] = 0 never meets Inf or NaN
		check(t, "mv zero entry", mv(cm, 0, 1, 2), []float64{1, 4, -inf, 1})
		check(t, "mv all zero", mv(cm, 0, 0, 0), []float64{0, 0, 0, 0})
		check(t, "vm", vm(cm, 1, 1, 1, 1), []float64{nan, -inf, 5})
		check(t, "vm zero weight", vm(cm, 0, 1, 0, 0), []float64{nan, nan, 2})
		// B = [1; Inf; 2]: the zero in tuple 1's middle column skips Inf
		check(t, "X %*% B", mm(cm, []float64{1, inf, 2}, 1), []float64{inf, 9, nan, inf})
	})
}
