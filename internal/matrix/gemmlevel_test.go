package matrix

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// vectorLevels returns every vector level this machine can run, vecScalar
// first.
func vectorLevels() []vectorLevel {
	var ls []vectorLevel
	for l := vecScalar; l <= detectedLevel; l++ {
		ls = append(ls, l)
	}
	return ls
}

// withVectorLevel runs fn with the kernels forced to level l.
func withVectorLevel(l vectorLevel, fn func()) {
	prev := vecLevel
	vecLevel = l
	defer func() { vecLevel = prev }()
	fn()
}

// requireSameBits fails unless got holds want's shape, cell bits (NaN
// payloads and zero signs included) and non-zero count.
func requireSameBits(t testing.TB, got, want *MatrixBlock, what string) {
	t.Helper()
	if got.rows != want.rows || got.cols != want.cols {
		t.Fatalf("%s: %dx%d, want %dx%d", what, got.rows, got.cols, want.rows, want.cols)
	}
	for i := range want.dense {
		if g, w := math.Float64bits(got.dense[i]), math.Float64bits(want.dense[i]); g != w {
			t.Fatalf("%s: cell (%d,%d) = %#016x, want %#016x", what, i/want.cols, i%want.cols, g, w)
		}
	}
	if got.nnz != want.nnz {
		t.Fatalf("%s: nnz %d, want %d", what, got.nnz, want.nnz)
	}
}

// tileCorners are the operand values besides uniform ones: signed zeros,
// subnormals, the smallest normal and values whose products overflow, and —
// unless only finite ones are asked for — ±Inf and two NaN payloads.
func tileCorners(finite bool) []float64 {
	var cs []float64
	for _, b := range cellCorners {
		v := math.Float64frombits(b)
		if finite && (math.IsInf(v, 0) || math.IsNaN(v)) {
			continue
		}
		cs = append(cs, v)
	}
	return cs
}

// tileOperand returns a dense r x c block of uniform values in [-1, 1) with
// every fifth cell (from a seed-dependent offset) a corner value.
func tileOperand(r, c int, seed int64, corners []float64) *MatrixBlock {
	m := RandUniform(r, c, -1, 1, 1.0, seed)
	m.ToDense()
	for i := int(seed % 5); i < len(m.dense); i += 5 {
		m.dense[i] = corners[(i/5+int(seed))%len(corners)]
	}
	m.RecomputeNNZ()
	return m
}

// tileStripe is the row count of one TSMMAcc stripe in tileForms.
const tileStripe = 100

// tileForms runs the operands through every dense form of the tiled engine
// and returns the outputs in a fixed order: a %*% b, acc + a %*% b,
// t(x) %*% b, t(a) %*% a, and t(a) %*% a added over row stripes of a with
// TSMMAcc. kern is gemmTiled, or gemmSimple for the reference loops (the
// striped TSMM then is one simple TSMM).
func tileForms(a, b, acc, x *MatrixBlock, threads int, kern gemmKernel) []*MatrixBlock {
	sum := acc.Copy()
	if err := multiplyAcc(sum, a, b, threads, kern); err != nil {
		panic(err)
	}
	var xtb *MatrixBlock
	if kern == gemmSimple {
		xtb = multDenseDense(Transpose(x), b, threads, gemmSimple)
	} else {
		xtb = NewDense(x.cols, b.cols)
		xtb.nnz = accDenseDenseTiled(xtb, x, b, threads, true)
	}
	var striped *MatrixBlock
	if kern == gemmSimple {
		striped = tsmm(a, threads, gemmSimple)
	} else {
		striped = NewDense(a.cols, a.cols)
		for r0 := 0; r0 < a.rows; r0 += tileStripe {
			s, err := Slice(a, r0, min(r0+tileStripe, a.rows), 0, a.cols)
			if err != nil {
				panic(err)
			}
			if err := TSMMAcc(striped, s, threads); err != nil {
				panic(err)
			}
		}
	}
	return []*MatrixBlock{
		multDenseDense(a, b, threads, kern),
		sum,
		xtb,
		tsmm(a, threads, kern),
		striped,
	}
}

var tileFormNames = []string{"a %*% b", "acc + a %*% b", "t(x) %*% b", "tsmm(a)", "tsmm-acc stripes(a)"}

// TestGEMMTileLevelsAgreeBitwise holds every vector level the CPU has to
// every other, bit for bit, over every dense form of the tiled engine — the
// multiply, its accumulate form, t(X) %*% Y with the transposed A pack, TSMM
// and TSMMAcc over row stripes — and the Cholesky prefix of solve. Dimensions
// straddle the 8x8 tile and the panel sizes, T rotates through 1, 2 and 3
// (solve runs all three), and the operands hold signed zeros, subnormals,
// overflowing products, ±Inf and two NaN payloads, so NaN payloads must
// agree too. Over finite operands every
// level must also match the simple loops (with an accumulator free of -0,
// the one value the simple loop's skipped zero terms would keep).
func TestGEMMTileLevelsAgreeBitwise(t *testing.T) {
	dims := []int{1, 7, 8, 9, 15, 16, 17, 255, 257}
	var shapes [][3]int
	for _, m := range dims {
		for _, k := range dims {
			for _, n := range dims {
				// a second panel-sized dimension only multiplies the time:
				// one at a time covers their tails, 255 x 257 x 257 the rest
				if big := btoi(m > 200) + btoi(k > 200) + btoi(n > 200); big < 2 {
					shapes = append(shapes, [3]int{m, k, n})
				}
			}
		}
	}
	shapes = append(shapes, [3]int{255, 257, 257})
	levels := vectorLevels()
	finite, all := tileCorners(true), tileCorners(false)
	var finiteAcc []float64
	for _, v := range finite {
		if math.Float64bits(v) != 1<<63 {
			finiteAcc = append(finiteAcc, v)
		}
	}
	for i, sh := range shapes {
		m, k, n := sh[0], sh[1], sh[2]
		seed := int64(m*1000000 + k*1000 + n)
		for _, corners := range [][]float64{finite, all} {
			isFinite := len(corners) == len(finite)
			accCorners := corners
			if isFinite {
				accCorners = finiteAcc
			}
			a := tileOperand(m, k, seed, corners)
			b := tileOperand(k, n, seed+1, corners)
			x := tileOperand(k, m, seed+2, corners)
			acc := tileOperand(m, n, seed+3, accCorners)
			var want []*MatrixBlock
			if isFinite {
				want = tileForms(a, b, acc, x, 1, gemmSimple)
			}
			for _, l := range levels {
				// every level meets every T over the shapes; that no output
				// depends on T is pinned by TestTiled*BitwiseEqualsSimple
				threads := 1 + (i+int(l))%3
				var got []*MatrixBlock
				withVectorLevel(l, func() { got = tileForms(a, b, acc, x, threads, gemmTiled) })
				if want == nil {
					want = got
					continue
				}
				for f := range got {
					what := fmt.Sprintf("%s, m=%d k=%d n=%d finite=%v T=%d level %d", tileFormNames[f], m, k, n, isFinite, threads, l)
					requireSameBits(t, got[f], want[f], what)
				}
			}
		}
	}
	for _, n := range []int{33, 257} {
		a := normalEquations(n, int64(n))
		rhs := tileOperand(n, 3, int64(n), []float64{0, 5e-324, -1e-300})
		refL, err := refCholesky(a)
		if err != nil {
			t.Fatal(err)
		}
		var wantX *MatrixBlock
		for _, l := range levels {
			for _, threads := range []int{1, 2, 3} {
				var gotX, gotL *MatrixBlock
				var errX, errL error
				withVectorLevel(l, func() {
					gotX, errX = Solve(a, rhs, threads)
					gotL, errL = Cholesky(a, threads)
				})
				if errX != nil || errL != nil {
					t.Fatalf("n=%d level %d T=%d: %v %v", n, l, threads, errX, errL)
				}
				if wantX == nil {
					wantX = gotX
				}
				what := fmt.Sprintf("n=%d level %d T=%d", n, l, threads)
				requireSameBits(t, gotX, wantX, "solve "+what)
				requireSameBits(t, gotL, refL, "cholesky "+what)
			}
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// gemmTileInput decodes fuzzer bytes into m, k, n (1–20 each), a thread
// count (1–3) and the raw bits of the operands of tileForms, eight bytes a
// value; once the bytes run out the corner values cycle.
func gemmTileInput(data []byte) (a, b, acc, x *MatrixBlock, threads int) {
	dim := func(i int) int {
		if i < len(data) {
			return 1 + int(data[i])%20
		}
		return 1 + i
	}
	m, k, n := dim(0), dim(1), dim(2)
	threads = 1
	if len(data) > 3 {
		threads = 1 + int(data[3])%3
	}
	data = data[min(4, len(data)):]
	i := 0
	block := func(r, c int) *MatrixBlock {
		vals := make([]float64, r*c)
		for j := range vals {
			if len(data) >= 8 {
				vals[j] = math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
			} else {
				vals[j] = math.Float64frombits(cellCorners[i%len(cellCorners)])
				i += 3
			}
		}
		return NewDenseFromSlice(r, c, vals)
	}
	return block(m, k), block(k, n), block(m, n), block(k, m), threads
}

// FuzzGEMMTile: every vector level gives the scalar kernel's bits
// (math.Float64bits) for every dense form of the tiled engine (tileForms) on
// small shapes with operands of any bits.
func FuzzGEMMTile(f *testing.F) {
	f.Add([]byte{7, 8, 9, 1})
	f.Add([]byte{16, 3, 17, 2})
	f.Add([]byte{1, 20, 1, 0})
	nan := make([]byte, 8)
	binary.LittleEndian.PutUint64(nan, 0x7ff8000000000001)
	f.Add(append([]byte{8, 2, 8, 2}, append(nan, nan...)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if detectedLevel == vecScalar {
			t.Skip("no vector GEMM kernel on this machine")
		}
		a, b, acc, x, threads := gemmTileInput(data)
		var want []*MatrixBlock
		withVectorLevel(vecScalar, func() { want = tileForms(a, b, acc, x, threads, gemmTiled) })
		for _, l := range vectorLevels()[1:] {
			var got []*MatrixBlock
			withVectorLevel(l, func() { got = tileForms(a, b, acc, x, threads, gemmTiled) })
			for i := range got {
				requireSameBits(t, got[i], want[i], fmt.Sprintf("%s, %dx%dx%d T=%d level %d", tileFormNames[i], a.rows, a.cols, b.cols, threads, l))
			}
		}
	})
}
