package matrix

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// cellCorners are the float64 bit patterns the vector-lane checks draw cells
// from: signed zeros, subnormals, the smallest normal, ±Inf, two quiet NaNs
// with different payloads and signs, a signalling NaN, and ordinary values
// whose sums, products and quotients overflow, underflow and round.
var cellCorners = []uint64{
	0x0000000000000000, // +0
	0x8000000000000000, // -0
	0x0000000000000001, // smallest subnormal
	0x800fffffffffffff, // largest negative subnormal
	0x0010000000000000, // smallest normal
	0x7ff0000000000000, // +Inf
	0xfff0000000000000, // -Inf
	0x7ff8000000000001, // quiet NaN, payload 1
	0xfff800000000abcd, // negative quiet NaN, another payload
	0x7ff0000000000002, // signalling NaN
	math.Float64bits(1),
	math.Float64bits(-1),
	math.Float64bits(0.1),
	math.Float64bits(3),
	math.Float64bits(-1e-300),
	math.Float64bits(1e300),
	math.Float64bits(math.MaxFloat64),
}

// cellRowInput decodes fuzzer bytes into a row length n (0–67), a scalar s
// and two rows a, b. Each value is a corner (a byte below 0x80 picks one) or
// eight raw bytes of bits (a byte from 0x80 on, then the bits); once the
// bytes run out the corners cycle, at different strides for a and b.
func cellRowInput(data []byte) (s float64, a, b []float64) {
	next := func(fallback int) float64 {
		if len(data) == 0 {
			return math.Float64frombits(cellCorners[fallback%len(cellCorners)])
		}
		sel := data[0]
		data = data[1:]
		if sel < 0x80 || len(data) < 8 {
			return math.Float64frombits(cellCorners[int(sel)%len(cellCorners)])
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		return v
	}
	n := 0
	if len(data) > 0 {
		n = int(data[0]) % 68
		data = data[1:]
	}
	s = next(7)
	a, b = make([]float64, n), make([]float64, n)
	for i := range a {
		a[i] = next(i)
	}
	for i := range b {
		b[i] = next(3*i + 1)
	}
	return s, a, b
}

// cellRowKernel runs one form of the row kernels: "vv" dst = a op b, "vs"
// dst = a op s, "sv" dst = s op b. With inPlace set dst is the vector
// operand (a, or b for "sv"), as when eval writes into an operand's scratch
// row; otherwise a fresh row.
func cellRowKernel(form string, op BinaryOp, s float64, a, b []float64, count, inPlace bool) ([]float64, int) {
	a, b = append([]float64(nil), a...), append([]float64(nil), b...)
	dst := make([]float64, len(a))
	switch form {
	case "vv":
		if inPlace {
			dst = a
		}
		return dst, binaryRowVV(op, dst, a, b, count)
	case "vs":
		if inPlace {
			dst = a
		}
		return dst, binaryRowVS(op, dst, a, s, count)
	default:
		if inPlace {
			dst = b
		}
		return dst, binaryRowSV(op, dst, s, b, count)
	}
}

// quietBits is v's bits with the quiet bit set, what an arithmetic
// instruction returns for a NaN operand.
func quietBits(v float64) uint64 { return math.Float64bits(v) | 1<<51 }

// checkCellRowKernels holds every vector kernel to its scalar loop over one
// input: all 24 variants (+ - * / in the VV, VS and SV forms, with and
// without the count), each into a fresh row and in place, compared by
// math.Float64bits and by the non-zero count.
//
// One case is compared by a weaker rule: + and * with a NaN in both operands.
// The scalar loop does not pin which payload wins there: Go does not define
// it, the compiler may commute a + b, and binaryRowSV commutes s + b into
// b + s. The vector lane keeps the first source's, the scalar loop whatever
// its instruction order gives; both must be one of the two operands' quiet
// NaNs. Every other cell, - and / included, must match to the bit.
func checkCellRowKernels(t *testing.T, s float64, a, b []float64) {
	t.Helper()
	prev := vecLevel
	defer func() { vecLevel = prev }()
	for _, form := range []string{"vv", "vs", "sv"} {
		for _, op := range []BinaryOp{OpAdd, OpSub, OpMul, OpDiv} {
			for _, count := range []bool{false, true} {
				for _, inPlace := range []bool{false, true} {
					vecLevel = vecScalar
					want, wantNNZ := cellRowKernel(form, op, s, a, b, count, inPlace)
					vecLevel = vecAVX2
					got, gotNNZ := cellRowKernel(form, op, s, a, b, count, inPlace)
					what := fmt.Sprintf("%s %s count=%v inPlace=%v n=%d", form, op, count, inPlace, len(a))
					if gotNNZ != wantNNZ {
						t.Fatalf("%s: nnz %d, scalar loop %d", what, gotNNZ, wantNNZ)
					}
					for i := range want {
						x, y := a[i], b[i]
						switch form {
						case "vs":
							y = s
						case "sv":
							x = s
						}
						gb, wb := math.Float64bits(got[i]), math.Float64bits(want[i])
						if gb == wb {
							continue
						}
						if (op == OpAdd || op == OpMul) && math.IsNaN(x) && math.IsNaN(y) {
							ok := func(v uint64) bool { return v == quietBits(x) || v == quietBits(y) }
							if ok(gb) && ok(wb) {
								continue
							}
						}
						t.Fatalf("%s: cell %d: %v %s %v = %#016x, scalar loop %#016x", what, i, x, op, y, gb, wb)
					}
				}
			}
		}
	}
}

// cellRowSeed encodes a row of length n whose a and b cells are the corner
// pairs from pair on (pair k = corners k / len, k % len) and whose scalar is
// corner si.
func cellRowSeed(n, si, pair int) []byte {
	k := len(cellCorners)
	data := []byte{byte(n), byte(si)}
	for i := 0; i < n; i++ {
		data = append(data, byte((pair+i)/k%k))
	}
	for i := 0; i < n; i++ {
		data = append(data, byte((pair+i)%k))
	}
	return data
}

// FuzzCellRowKernels: the AVX2 row kernels of + - * / compute the scalar
// loops' bits and non-zero counts on any row (checkCellRowKernels). The seeds
// put every pair of corners against each other at length 67 (16 whole
// vectors and a ragged tail of 3) with every corner as the scalar, and the
// lengths around one vector.
func FuzzCellRowKernels(f *testing.F) {
	k := len(cellCorners)
	for si := 0; si < k; si++ {
		for pair := 0; pair < k*k; pair += 67 {
			f.Add(cellRowSeed(67, si, pair))
		}
	}
	for _, n := range []int{0, 1, 3, 4, 5, 8, 9} {
		f.Add(cellRowSeed(n, n, 8*n))
	}
	f.Add([]byte{12, 0x80, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if vecLevel < vecAVX2 {
			t.Skip("no AVX2 row kernels on this machine")
		}
		s, a, b := cellRowInput(data)
		checkCellRowKernels(t, s, a, b)
	})
}

// TestFusedCellVectorLanesMatchScalar: FusedCell has the same bits, non-zero
// count and representation with the vector kernels on and off, at T = 1, 2
// and 3, over rows whose lengths leave every ragged tail, dense and sparse
// drivers, row and column vectors and scalars on either side, and cells
// holding signed zeros, subnormals, ±Inf and NaNs.
func TestFusedCellVectorLanesMatchScalar(t *testing.T) {
	if vecLevel < vecAVX2 {
		t.Skip("no AVX2 row kernels on this machine")
	}
	prev := vecLevel
	defer func() { vecLevel = prev }()
	seedCorners := func(m *MatrixBlock, stride int) *MatrixBlock {
		m = m.Copy()
		m.ToDense()
		for i := 0; i < len(m.dense); i += stride {
			m.dense[i] = math.Float64frombits(cellCorners[(i/stride)%len(cellCorners)])
		}
		m.RecomputeNNZ()
		return m
	}
	standardize := standardizeProgram()
	affine := &CellProgram{ // s - (X * y + v) / c
		Instrs: []CellInstr{
			{Code: CellLoad, Arg: 0}, {Code: CellLoad, Arg: 1}, {Code: CellLoad, Arg: 2},
			{Code: CellBinary, Bin: OpMul}, {Code: CellLoad, Arg: 3}, {Code: CellBinary, Bin: OpAdd},
			{Code: CellLoad, Arg: 4}, {Code: CellBinary, Bin: OpDiv}, {Code: CellBinary, Bin: OpSub},
		},
		NumArgs: 5,
	}
	annihilating := &CellProgram{ // S * y * k
		Instrs: []CellInstr{
			{Code: CellLoad, Arg: 0}, {Code: CellLoad, Arg: 1}, {Code: CellBinary, Bin: OpMul},
			{Code: CellLoad, Arg: 2}, {Code: CellBinary, Bin: OpMul},
		},
		NumArgs: 3, Annihilating: true,
	}
	for _, sh := range [][2]int{{150, 67}, {90, 100}, {40, 3}, {33, 9}} {
		rows, cols := sh[0], sh[1]
		x := seedCorners(RandUniform(rows, cols, -3, 3, 1.0, 71), 5)
		xs := RandUniform(rows, cols, -3, 3, 0.1, 72)
		y := seedCorners(RandUniform(rows, cols, -2, 2, 1.0, 73), 7)
		mu := seedCorners(RandUniform(1, cols, -1, 1, 1.0, 74), 3)
		sd := seedCorners(RandUniform(1, cols, 0.5, 2, 1.0, 75), 4)
		cv := seedCorners(RandUniform(rows, 1, -2, 2, 1.0, 76), 6)
		cases := []struct {
			name string
			prog *CellProgram
			args []CellArg
		}{
			{"(X - mu) / sd", standardize, []CellArg{{Mat: x}, {Mat: mu}, {Mat: sd}}},
			{"(S - mu) / sd", standardize, []CellArg{{Mat: xs}, {Mat: mu}, {Mat: sd}}},
			{"(mu - X) / cv", standardize, []CellArg{{Mat: mu}, {Mat: x}, {Mat: cv}}},
			{"0.5 - (X * Y + mu) / -0", affine, []CellArg{{Scalar: 0.5}, {Mat: x}, {Mat: y}, {Mat: mu}, {Scalar: math.Copysign(0, -1)}}},
			{"NaN - (2 * X + cv) / Y", affine, []CellArg{{Scalar: math.NaN()}, {Scalar: 2}, {Mat: x}, {Mat: cv}, {Mat: y}}},
			{"S * Y * 3", annihilating, []CellArg{{Mat: xs}, {Mat: y}, {Scalar: 3}}},
			{"S * mu * Inf", annihilating, []CellArg{{Mat: xs}, {Mat: mu}, {Scalar: math.Inf(1)}}},
		}
		for _, c := range cases {
			for _, threads := range []int{1, 2, 3} {
				vecLevel = vecScalar
				want, err := FusedCell(c.prog, c.args, threads, nil)
				if err != nil {
					t.Fatal(err)
				}
				vecLevel = vecAVX2
				got, err := FusedCell(c.prog, c.args, threads, nil)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("%s on %dx%d, threads %d", c.name, rows, cols, threads)
				if got.NNZ() != want.NNZ() || got.IsSparse() != want.IsSparse() {
					t.Fatalf("%s: nnz %d sparse %v, scalar loops nnz %d sparse %v", what, got.NNZ(), got.IsSparse(), want.NNZ(), want.IsSparse())
				}
				for r := 0; r < rows; r++ {
					for col := 0; col < cols; col++ {
						if g, w := math.Float64bits(got.Get(r, col)), math.Float64bits(want.Get(r, col)); g != w {
							t.Fatalf("%s: cell (%d,%d) = %#016x, scalar loops %#016x", what, r, col, g, w)
						}
					}
				}
			}
		}
	}
}
