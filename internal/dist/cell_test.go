package dist

import (
	"fmt"
	"strings"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
)

// cellProgram builds a cell program from its instructions.
func cellProgram(numArgs int, annihilating bool, instrs ...matrix.CellInstr) *matrix.CellProgram {
	return &matrix.CellProgram{Instrs: instrs, NumArgs: numArgs, Annihilating: annihilating}
}

func load(arg int) matrix.CellInstr { return matrix.CellInstr{Code: matrix.CellLoad, Arg: arg} }
func bin(op matrix.BinaryOp) matrix.CellInstr {
	return matrix.CellInstr{Code: matrix.CellBinary, Bin: op}
}
func un(op matrix.UnaryOp) matrix.CellInstr { return matrix.CellInstr{Code: matrix.CellUnary, Un: op} }

// cellCase is a cell program and the layout of its operands, one letter per
// argument: X and Y blocked of the output's shape, s the scalar, r a row
// vector, c a column vector.
type cellCase struct {
	name   string
	prog   *matrix.CellProgram
	layout string
	s      float64
}

// cellCases covers every binary operator over two blocked operands, a
// scalar and either vector on either side (both sparse-pattern rules of a
// scalar), every unary operator, and three-operator chains with a scalar
// and a vector leaf — among them chains annihilating on X behind a vector
// leaf, which a one-column (one-row) block would otherwise drive by the
// vector's slice.
func cellCases() []cellCase {
	var cases []cellCase
	for op := matrix.OpAdd; op <= matrix.OpIntDiv; op++ {
		for _, layout := range []string{"XY", "XX", "Xr", "rX", "Xc", "cX"} {
			cases = append(cases, cellCase{fmt.Sprintf("%s/%s", op, layout), matrix.BinaryProgram(op), layout, 0})
		}
		for _, s := range []float64{2.5, 0} {
			cases = append(cases,
				cellCase{fmt.Sprintf("%s/Xs=%g", op, s), matrix.ScalarProgram(op, s, false), "Xs", s},
				cellCase{fmt.Sprintf("%s/sX=%g", op, s), matrix.ScalarProgram(op, s, true), "sX", s})
		}
	}
	for op := matrix.OpNeg; op <= matrix.OpIsNaN; op++ {
		cases = append(cases, cellCase{op.String(), matrix.UnaryProgram(op), "X", 0})
	}
	// abs((a0 - a1) * a2)
	chain := cellProgram(3, false, load(0), load(1), bin(matrix.OpSub), load(2), bin(matrix.OpMul), un(matrix.OpAbs))
	for _, layout := range []string{"Xcs", "cXs", "rXs", "sXr", "XYc"} {
		cases = append(cases, cellCase{"chain/" + layout, chain, layout, 2.5})
	}
	// X * (v + s), annihilating on X but not on the vector
	for _, layout := range []string{"Xcs", "cXs", "rXs", "Xrs"} {
		x, v, s := strings.IndexByte(layout, 'X'), strings.IndexAny(layout, "rc"), strings.IndexByte(layout, 's')
		prog := cellProgram(3, true, load(x), load(v), load(s), bin(matrix.OpAdd), bin(matrix.OpMul))
		cases = append(cases, cellCase{"annihilating/" + layout, prog, layout, 2.5})
	}
	return cases
}

// cellInputs are the output-shaped operands of the test, ragged against
// every blocksize (150 x 8 has a one-column block at blocksize 7, 22 x 205 a
// one-row block), with the vectors and a second matrix of the same kind.
func cellInputs() []struct {
	name       string
	x, y, r, c *matrix.MatrixBlock
} {
	type input = struct {
		name       string
		x, y, r, c *matrix.MatrixBlock
	}
	var ins []input
	for _, sh := range [][2]int{{150, 8}, {22, 205}} {
		m, n := sh[0], sh[1]
		for _, kind := range []struct {
			name     string
			sparsity float64
		}{{"dense", 1}, {"sparse", 0.05}, {"mixed", -1}} {
			gen := func(rows, cols int, seed int64) *matrix.MatrixBlock {
				if kind.sparsity < 0 {
					return mixedMatrix(rows, cols, seed)
				}
				return matrix.RandUniform(rows, cols, -2, 2, kind.sparsity, seed)
			}
			ins = append(ins, input{fmt.Sprintf("%dx%d/%s", m, n, kind.name),
				gen(m, n, 11), gen(m, n, 12), gen(1, n, 13), gen(m, 1, 14)})
		}
	}
	return ins
}

// TestCellMatchesLocal: dist.Cell has the bits of matrix.FusedCell over the
// collected operands — cells, non-zero count and representation — for every
// cell case, over ragged dense, 5%-sparse and mixed inputs, at blocksizes 7,
// 100 and 1024 and 1, 2, 3 and 7 pool workers.
func TestCellMatchesLocal(t *testing.T) {
	cases := cellCases()
	for _, in := range cellInputs() {
		for _, bs := range []int{7, 100, 1024} {
			bx, err := FromMatrixBlock(in.x, bs)
			if err != nil {
				t.Fatal(err)
			}
			by, err := FromMatrixBlock(in.y, bs)
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range cases {
				local := make([]matrix.CellArg, len(tc.layout))
				blocked := make([]CellArg, len(tc.layout))
				for k, l := range tc.layout {
					switch l {
					case 'X':
						local[k].Mat, blocked[k].Blocked = in.x, bx
					case 'Y':
						local[k].Mat, blocked[k].Blocked = in.y, by
					case 's':
						local[k].Scalar = tc.s
					case 'r':
						local[k].Mat = in.r
					case 'c':
						local[k].Mat = in.c
					}
					blocked[k].CellArg.Scalar = local[k].Scalar
					if blocked[k].Blocked == nil {
						blocked[k].Mat = local[k].Mat
					}
				}
				want, err := matrix.FusedCell(tc.prog, local, 1, nil)
				if err != nil {
					t.Fatalf("%s %s: local: %v", in.name, tc.name, err)
				}
				for _, workers := range []int{1, 2, 3, 7} {
					res, err := Cell(tc.prog, blocked, workers)
					if err != nil {
						t.Fatalf("%s bs=%d %s W=%d: %v", in.name, bs, tc.name, workers, err)
					}
					got, err := res.ToMatrixBlock()
					if err != nil {
						t.Fatal(err)
					}
					if err := sameBits(got, want); err != nil {
						t.Errorf("%s bs=%d %s W=%d: %v", in.name, bs, tc.name, workers, err)
					}
				}
			}
		}
	}
}

// TestCellRejectsMisshapedOperands: blocked operands of different shapes or
// blocksizes, a vector that does not broadcast and a program without a
// blocked operand are errors.
func TestCellRejectsMisshapedOperands(t *testing.T) {
	part := func(rows, cols, bs int) *BlockedMatrix {
		bm, err := FromMatrixBlock(testMatrix(rows, cols), bs)
		if err != nil {
			t.Fatal(err)
		}
		return bm
	}
	add := matrix.BinaryProgram(matrix.OpAdd)
	x := part(10, 10, 4)
	for _, tc := range []struct {
		name string
		args []CellArg
	}{
		{"dimension mismatch", []CellArg{{Blocked: x}, {Blocked: part(10, 11, 4)}}},
		{"blocksize mismatch", []CellArg{{Blocked: x}, {Blocked: part(10, 10, 5)}}},
		{"non-broadcasting vector", []CellArg{{Blocked: x}, {CellArg: matrix.CellArg{Mat: testMatrix(7, 1)}}}},
		{"no blocked operand", []CellArg{{CellArg: matrix.CellArg{Mat: testMatrix(10, 1)}}, {CellArg: matrix.CellArg{Scalar: 1}}}},
	} {
		if _, err := Cell(add, tc.args, 2); err == nil {
			t.Errorf("%s: not rejected", tc.name)
		}
	}
}
