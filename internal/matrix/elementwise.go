package matrix

import (
	"fmt"
	"math"
)

// BinaryOp identifies an element-wise binary operation.
type BinaryOp int

// Supported element-wise binary operations.
const (
	OpAdd BinaryOp = iota
	OpSub
	OpMul
	OpDiv
	OpPow
	OpMin
	OpMax
	OpEqual
	OpNotEqual
	OpLess
	OpLessEqual
	OpGreater
	OpGreaterEqual
	OpAnd
	OpOr
	OpModulus
	OpIntDiv
)

// binaryOpSymbols is the DML symbol of every binary operation, indexed by
// BinaryOp: the one spelling String prints and BinaryOpFromString resolves.
var binaryOpSymbols = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpPow: "^", OpMin: "min", OpMax: "max",
	OpEqual: "==", OpNotEqual: "!=", OpLess: "<", OpLessEqual: "<=", OpGreater: ">",
	OpGreaterEqual: ">=", OpAnd: "&", OpOr: "|", OpModulus: "%%", OpIntDiv: "%/%",
}

// String returns the DML operator symbol for the binary operation.
func (op BinaryOp) String() string {
	if op < 0 || int(op) >= len(binaryOpSymbols) {
		return "?"
	}
	return binaryOpSymbols[op]
}

// Boolean reports whether the operation's scalar result is a boolean: the
// comparisons, & and |.
func (op BinaryOp) Boolean() bool { return op >= OpEqual && op <= OpOr }

// binaryFns holds the scalar definition of every binary operation, indexed by
// BinaryOp: Apply and the row kernels both resolve an operator here, once.
var binaryFns = [...]func(a, b float64) float64{
	OpAdd:          func(a, b float64) float64 { return a + b },
	OpSub:          func(a, b float64) float64 { return a - b },
	OpMul:          func(a, b float64) float64 { return a * b },
	OpDiv:          func(a, b float64) float64 { return a / b },
	OpPow:          math.Pow,
	OpMin:          math.Min,
	OpMax:          math.Max,
	OpEqual:        func(a, b float64) float64 { return boolToF(a == b) },
	OpNotEqual:     func(a, b float64) float64 { return boolToF(a != b) },
	OpLess:         func(a, b float64) float64 { return boolToF(a < b) },
	OpLessEqual:    func(a, b float64) float64 { return boolToF(a <= b) },
	OpGreater:      func(a, b float64) float64 { return boolToF(a > b) },
	OpGreaterEqual: func(a, b float64) float64 { return boolToF(a >= b) },
	OpAnd:          func(a, b float64) float64 { return boolToF(a != 0 && b != 0) },
	OpOr:           func(a, b float64) float64 { return boolToF(a != 0 || b != 0) },
	OpModulus:      math.Mod,
	OpIntDiv:       func(a, b float64) float64 { return math.Floor(a / b) },
}

// Apply evaluates the binary operation on two scalars.
func (op BinaryOp) Apply(a, b float64) float64 {
	if op < 0 || int(op) >= len(binaryFns) {
		return math.NaN()
	}
	return binaryFns[op](a, b)
}

func boolToF(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// symbolIndex inverts a symbol array: the map the instruction decoder, the
// constant folder and the fusion matcher resolve an operator symbol through.
func symbolIndex[Op ~int](symbols []string) map[string]Op {
	m := make(map[string]Op, len(symbols))
	for op, s := range symbols {
		m[s] = Op(op)
	}
	return m
}

var binaryOpNames = symbolIndex[BinaryOp](binaryOpSymbols[:])

// BinaryOpFromString resolves a DML binary operator symbol.
func BinaryOpFromString(s string) (BinaryOp, bool) {
	op, ok := binaryOpNames[s]
	return op, ok
}

// unaryOpNames also resolves "uminus", the HOP and instruction spelling of
// unary minus.
var unaryOpNames = func() map[string]UnaryOp {
	m := symbolIndex[UnaryOp](unaryOpSymbols[:])
	m["uminus"] = OpNeg
	return m
}()

// UnaryOpFromString resolves a DML unary function name.
func UnaryOpFromString(s string) (UnaryOp, bool) {
	op, ok := unaryOpNames[s]
	return op, ok
}

// UnaryOp identifies an element-wise unary operation.
type UnaryOp int

// Supported element-wise unary operations.
const (
	OpNeg UnaryOp = iota
	OpAbs
	OpExp
	OpLog
	OpSqrt
	OpRound
	OpFloor
	OpCeil
	OpSign
	OpNot
	OpSin
	OpCos
	OpTan
	OpSigmoid
	OpIsNaN
)

// unaryOpSymbols is the DML name of every unary operation, indexed by UnaryOp
// (see binaryOpSymbols).
var unaryOpSymbols = [...]string{
	OpNeg: "-", OpAbs: "abs", OpExp: "exp", OpLog: "log", OpSqrt: "sqrt", OpRound: "round",
	OpFloor: "floor", OpCeil: "ceil", OpSign: "sign", OpNot: "!", OpSin: "sin", OpCos: "cos",
	OpTan: "tan", OpSigmoid: "sigmoid", OpIsNaN: "is.nan",
}

// String returns the DML function name of the unary operation.
func (op UnaryOp) String() string {
	if op < 0 || int(op) >= len(unaryOpSymbols) {
		return "?"
	}
	return unaryOpSymbols[op]
}

// Boolean reports whether the operation's scalar result is a boolean (!).
func (op UnaryOp) Boolean() bool { return op == OpNot }

// unaryFns holds the scalar definition of every unary operation, indexed by
// UnaryOp (see binaryFns).
var unaryFns = [...]func(a float64) float64{
	OpNeg:   func(a float64) float64 { return -a },
	OpAbs:   math.Abs,
	OpExp:   math.Exp,
	OpLog:   math.Log,
	OpSqrt:  math.Sqrt,
	OpRound: math.Round,
	OpFloor: math.Floor,
	OpCeil:  math.Ceil,
	OpSign: func(a float64) float64 {
		if a > 0 {
			return 1
		} else if a < 0 {
			return -1
		}
		return 0
	},
	OpNot:     func(a float64) float64 { return boolToF(a == 0) },
	OpSin:     math.Sin,
	OpCos:     math.Cos,
	OpTan:     math.Tan,
	OpSigmoid: func(a float64) float64 { return 1 / (1 + math.Exp(-a)) },
	OpIsNaN:   func(a float64) float64 { return boolToF(math.IsNaN(a)) },
}

// Apply evaluates the unary operation on a scalar.
func (op UnaryOp) Apply(a float64) float64 {
	if op < 0 || int(op) >= len(unaryFns) {
		return math.NaN()
	}
	return unaryFns[op](a)
}

// elemThreads resolves the worker count of an element-wise kernel: small
// operands stay single-threaded (goroutine overhead dominates).
func elemThreads(threads, cells int) int {
	if cells < parallelMinCells {
		return 1
	}
	return resolveThreads(threads)
}

// --- row kernels --------------------------------------------------------------
//
// The row kernels are the one place a cell-wise operator meets data:
// dst[c] = a[c] ∘ b[c], a[c] ∘ s, s ∘ b[c] and f(a[c]) over slices of equal
// length. The operator and the operand order are resolved before the loop
// (the four arithmetic operators run inline, everything else through the
// function looked up once in binaryFns/unaryFns). With count set, the
// non-zero count of dst is taken in the same pass; without it the loop has no
// data-dependent branch (the evaluator counts only the row it writes into an
// output block). Zeros are written unsigned (pz). dst may alias an operand:
// every cell is read before it is written.
//
// The four arithmetic operators run their leading whole vectors of cellLanes
// cells in the AVX2 kernels (cell_amd64.s) when vecLevel is vecAVX2 or
// above; the scalar loops take the ragged tail and are the reference the
// vector lanes match bit for bit (see DESIGN.md "Determinism").

// cellLanes is the width of one AVX2 vector of float64.
const cellLanes = 4

// vectorCells is how many leading cells of an n-cell row the AVX2 kernels
// take for op: the whole vectors, when the gate is on and op is + - * or /.
func vectorCells(op BinaryOp, n int) int {
	if vecLevel < vecAVX2 || op > OpDiv {
		return 0
	}
	return n &^ (cellLanes - 1)
}

// pz returns v with a negative zero turned into +0: a sparse block cannot hold
// the sign of a zero, so no cell-wise kernel writes one, and a result does not
// depend on which intermediate happened to be stored sparse. IEEE -0 + +0 is
// +0, and x + 0 is x for every other x (NaN included). The conversion keeps
// the addition from fusing with the multiplication that produced v (an FMA
// would keep the sign of an underflowed product).
func pz(v float64) float64 { return float64(v) + 0 }

func binaryRowVV(op BinaryOp, dst, a, b []float64, count bool) (nnz int) {
	a, b = a[:len(dst)], b[:len(dst)]
	if n := vectorCells(op, len(dst)); n > 0 {
		nnz = cellRowVV(op, &dst[0], &a[0], &b[0], n, count)
		dst, a, b = dst[n:], a[n:], b[n:]
	}
	a, b = a[:len(dst)], b[:len(dst)] // lets the loops drop their bounds checks
	switch {
	case op == OpAdd && !count:
		for c := range dst {
			dst[c] = pz(a[c] + b[c])
		}
	case op == OpSub && !count:
		for c := range dst {
			dst[c] = pz(a[c] - b[c])
		}
	case op == OpMul && !count:
		for c := range dst {
			dst[c] = pz(a[c] * b[c])
		}
	case op == OpDiv && !count:
		for c := range dst {
			dst[c] = pz(a[c] / b[c])
		}
	case op == OpAdd:
		for c := range dst {
			v := pz(a[c] + b[c])
			dst[c] = v
			if v != 0 {
				nnz++
			}
		}
	case op == OpSub:
		for c := range dst {
			v := pz(a[c] - b[c])
			dst[c] = v
			if v != 0 {
				nnz++
			}
		}
	case op == OpMul:
		for c := range dst {
			v := pz(a[c] * b[c])
			dst[c] = v
			if v != 0 {
				nnz++
			}
		}
	case op == OpDiv:
		for c := range dst {
			v := pz(a[c] / b[c])
			dst[c] = v
			if v != 0 {
				nnz++
			}
		}
	default:
		f := binaryFns[op]
		for c := range dst {
			v := pz(f(a[c], b[c]))
			dst[c] = v
			if count && v != 0 {
				nnz++
			}
		}
	}
	return nnz
}

func binaryRowVS(op BinaryOp, dst, a []float64, s float64, count bool) (nnz int) {
	a = a[:len(dst)]
	if n := vectorCells(op, len(dst)); n > 0 {
		nnz = cellRowVS(op, &dst[0], &a[0], s, n, count)
		dst, a = dst[n:], a[n:]
	}
	a = a[:len(dst)]
	switch {
	case op == OpAdd && !count:
		for c := range dst {
			dst[c] = pz(a[c] + s)
		}
	case op == OpSub && !count:
		for c := range dst {
			dst[c] = pz(a[c] - s)
		}
	case op == OpMul && !count:
		for c := range dst {
			dst[c] = pz(a[c] * s)
		}
	case op == OpDiv && !count:
		for c := range dst {
			dst[c] = pz(a[c] / s)
		}
	case op == OpAdd:
		for c := range dst {
			v := pz(a[c] + s)
			dst[c] = v
			if v != 0 {
				nnz++
			}
		}
	case op == OpSub:
		for c := range dst {
			v := pz(a[c] - s)
			dst[c] = v
			if v != 0 {
				nnz++
			}
		}
	case op == OpMul:
		for c := range dst {
			v := pz(a[c] * s)
			dst[c] = v
			if v != 0 {
				nnz++
			}
		}
	case op == OpDiv:
		for c := range dst {
			v := pz(a[c] / s)
			dst[c] = v
			if v != 0 {
				nnz++
			}
		}
	default:
		f := binaryFns[op]
		for c := range dst {
			v := pz(f(a[c], s))
			dst[c] = v
			if count && v != 0 {
				nnz++
			}
		}
	}
	return nnz
}

func binaryRowSV(op BinaryOp, dst []float64, s float64, b []float64, count bool) (nnz int) {
	b = b[:len(dst)]
	if n := vectorCells(op, len(dst)); n > 0 {
		nnz = cellRowSV(op, &dst[0], s, &b[0], n, count)
		dst, b = dst[n:], b[n:]
	}
	b = b[:len(dst)]
	switch {
	case op == OpAdd || op == OpMul:
		// IEEE addition and multiplication commute, NaN payloads aside
		return nnz + binaryRowVS(op, dst, b, s, count)
	case op == OpSub && !count:
		for c := range dst {
			dst[c] = pz(s - b[c])
		}
	case op == OpDiv && !count:
		for c := range dst {
			dst[c] = pz(s / b[c])
		}
	case op == OpSub:
		for c := range dst {
			v := pz(s - b[c])
			dst[c] = v
			if v != 0 {
				nnz++
			}
		}
	case op == OpDiv:
		for c := range dst {
			v := pz(s / b[c])
			dst[c] = v
			if v != 0 {
				nnz++
			}
		}
	default:
		f := binaryFns[op]
		for c := range dst {
			v := pz(f(s, b[c]))
			dst[c] = v
			if count && v != 0 {
				nnz++
			}
		}
	}
	return nnz
}

func unaryRow(op UnaryOp, dst, a []float64, count bool) (nnz int) {
	a = a[:len(dst)]
	if op == OpNeg && !count {
		for c := range dst {
			dst[c] = pz(-a[c])
		}
		return 0
	}
	if op == OpNeg {
		for c := range dst {
			v := pz(-a[c])
			dst[c] = v
			if v != 0 {
				nnz++
			}
		}
		return nnz
	}
	f := unaryFns[op]
	for c := range dst {
		v := pz(f(a[c]))
		dst[c] = v
		if count && v != 0 {
			nnz++
		}
	}
	return nnz
}

// --- single-operator drivers ------------------------------------------------------
//
// ScalarOp and CellwiseOp are one-operator cell programs handed to
// FusedCell (fused.go): they share its loaders, its row kernels, its exact
// non-zero count and its output representation with every fused chain.

// BinaryProgram returns the cell program of `arg0 op arg1`.
func BinaryProgram(op BinaryOp) *CellProgram {
	return &CellProgram{
		Instrs:  []CellInstr{{Code: CellLoad, Arg: 0}, {Code: CellLoad, Arg: 1}, {Code: CellBinary, Bin: op}},
		NumArgs: 2,
	}
}

// ScalarProgram returns the cell program of `m op s`, or of `s op m` when
// swap is set. It annihilates on m only when the operator maps zero to zero
// for this scalar (X * 2, but not X / 0 or X * NaN): a sparse m is then
// rewritten in place of its stored cells, else every cell is evaluated.
func ScalarProgram(op BinaryOp, s float64, swap bool) *CellProgram {
	prog := BinaryProgram(op)
	zero := op.Apply(0, s)
	if swap {
		zero = op.Apply(s, 0)
	}
	prog.Annihilating = zero == 0
	return prog
}

// UnaryProgram returns the cell program of `op(arg0)`.
func UnaryProgram(op UnaryOp) *CellProgram {
	return &CellProgram{
		Instrs:       []CellInstr{{Code: CellLoad, Arg: 0}, {Code: CellUnary, Un: op}},
		NumArgs:      1,
		Annihilating: op.Apply(0) == 0,
	}
}

// mustCell runs a program whose arguments are well-shaped by construction.
func mustCell(prog *CellProgram, args []CellArg, threads int) *MatrixBlock {
	out, err := FusedCell(prog, args, threads, nil)
	if err != nil {
		panic(err)
	}
	return out
}

// ScalarOp applies `m op s` cell-wise (or `s op m` when swap is true) and
// returns a new matrix, with ScalarProgram's sparse-pattern rule.
func ScalarOp(m *MatrixBlock, s float64, op BinaryOp, swap bool, threads int) *MatrixBlock {
	args := []CellArg{{Mat: m}, {Scalar: s}}
	if swap {
		args[0], args[1] = args[1], args[0]
	}
	return mustCell(ScalarProgram(op, s, swap), args, threads)
}

// CellwiseOp applies the binary operation cell-wise between two matrices of
// identical shape, or with row/column vector broadcasting when one operand
// is a 1xN row vector or Nx1 column vector matching the other's dimensions
// (mirroring R/DML broadcasting semantics for matrix-vector operations).
func CellwiseOp(a, b *MatrixBlock, op BinaryOp, threads int) (*MatrixBlock, error) {
	out, err := FusedCell(BinaryProgram(op), []CellArg{{Mat: a}, {Mat: b}}, threads, nil)
	if err != nil {
		return nil, fmt.Errorf("matrix: cellwise op %s dimension mismatch %dx%d vs %dx%d",
			op, a.rows, a.cols, b.rows, b.cols)
	}
	return out, nil
}

// Ternary computes ifelse(cond, a, b) cell-wise where cond, a, b may be
// matrices of the same shape or scalars (represented as 1x1 matrices).
func Ternary(cond, a, b *MatrixBlock) (*MatrixBlock, error) {
	rows, cols := cond.rows, cond.cols
	get := func(m *MatrixBlock, r, c int) float64 {
		if m.rows == 1 && m.cols == 1 {
			return m.Get(0, 0)
		}
		return m.Get(r, c)
	}
	for _, m := range []*MatrixBlock{a, b} {
		if (m.rows != rows || m.cols != cols) && !(m.rows == 1 && m.cols == 1) {
			return nil, fmt.Errorf("matrix: ifelse operand shape %dx%d does not match condition %dx%d", m.rows, m.cols, rows, cols)
		}
	}
	out := NewDense(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if get(cond, r, c) != 0 {
				out.Set(r, c, get(a, r, c))
			} else {
				out.Set(r, c, get(b, r, c))
			}
		}
	}
	return out, nil
}
