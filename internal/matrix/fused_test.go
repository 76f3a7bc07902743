package matrix

import (
	"math"
	"testing"
)

// relDiff returns |a-b| / max(1, |a|, |b|).
func relDiff(a, b float64) float64 {
	d := math.Abs(a - b)
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return d / scale
}

func requireClose(t *testing.T, got, want *MatrixBlock, context string) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: got %dx%d, want %dx%d", context, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for r := 0; r < want.Rows(); r++ {
		for c := 0; c < want.Cols(); c++ {
			if relDiff(got.Get(r, c), want.Get(r, c)) > 1e-9 {
				t.Fatalf("%s: cell (%d,%d) = %v, want %v", context, r, c, got.Get(r, c), want.Get(r, c))
			}
		}
	}
}

// fusedCase pairs a cell program with the equivalent unfused composition.
type fusedCase struct {
	name     string
	prog     *CellProgram
	args     func(x, y *MatrixBlock) []CellArg
	unfused  func(x, y *MatrixBlock) *MatrixBlock // materialized cellwise result
	sparseOK bool                                 // program annihilates on arg 0
}

func fusedCases() []fusedCase {
	return []fusedCase{
		{
			name: "mul", // sum(X*Y)-style pipelines
			prog: &CellProgram{
				Instrs: []CellInstr{
					{Code: CellLoad, Arg: 0}, {Code: CellLoad, Arg: 1}, {Code: CellBinary, Bin: OpMul},
				},
				NumArgs: 2, Annihilating: true,
			},
			args: func(x, y *MatrixBlock) []CellArg { return []CellArg{{Mat: x}, {Mat: y}} },
			unfused: func(x, y *MatrixBlock) *MatrixBlock {
				m, _ := CellwiseOp(x, y, OpMul, 1)
				return m
			},
			sparseOK: true,
		},
		{
			name: "sq-diff", // sum((X-Y)^2)-style pipelines
			prog: &CellProgram{
				Instrs: []CellInstr{
					{Code: CellLoad, Arg: 0}, {Code: CellLoad, Arg: 1}, {Code: CellBinary, Bin: OpSub},
					{Code: CellLoad, Arg: 2}, {Code: CellBinary, Bin: OpPow},
				},
				NumArgs: 3,
			},
			args: func(x, y *MatrixBlock) []CellArg { return []CellArg{{Mat: x}, {Mat: y}, {Scalar: 2}} },
			unfused: func(x, y *MatrixBlock) *MatrixBlock {
				d, _ := CellwiseOp(x, y, OpSub, 1)
				return ScalarOp(d, 2, OpPow, false, 1)
			},
		},
		{
			name: "abs-scale", // sum(abs(X) * 0.5)
			prog: &CellProgram{
				Instrs: []CellInstr{
					{Code: CellLoad, Arg: 0}, {Code: CellUnary, Un: OpAbs},
					{Code: CellLoad, Arg: 1}, {Code: CellBinary, Bin: OpMul},
				},
				NumArgs: 2, Annihilating: true,
			},
			args: func(x, y *MatrixBlock) []CellArg { return []CellArg{{Mat: x}, {Scalar: 0.5}} },
			unfused: func(x, y *MatrixBlock) *MatrixBlock {
				return ScalarOp(UnaryApply(x, OpAbs, 1), 0.5, OpMul, false, 1)
			},
			sparseOK: true,
		},
		{
			name: "add-mul-exp", // sum(exp(X)*Y + X) — not annihilating (exp(0) = 1)
			prog: &CellProgram{
				Instrs: []CellInstr{
					{Code: CellLoad, Arg: 0}, {Code: CellUnary, Un: OpExp},
					{Code: CellLoad, Arg: 1}, {Code: CellBinary, Bin: OpMul},
					{Code: CellLoad, Arg: 0}, {Code: CellBinary, Bin: OpAdd},
				},
				NumArgs: 2,
			},
			args: func(x, y *MatrixBlock) []CellArg { return []CellArg{{Mat: x}, {Mat: y}} },
			unfused: func(x, y *MatrixBlock) *MatrixBlock {
				e := UnaryApply(x, OpExp, 1)
				p, _ := CellwiseOp(e, y, OpMul, 1)
				s, _ := CellwiseOp(p, x, OpAdd, 1)
				return s
			},
		},
	}
}

func unfusedAgg(agg *Aggregate, m *MatrixBlock) *MatrixBlock {
	switch agg.Name {
	case "sum":
		out := NewDense(1, 1)
		out.Set(0, 0, referenceSum(m))
		return out
	case "min":
		out := NewDense(1, 1)
		out.Set(0, 0, referenceExtreme(m, false))
		return out
	case "max":
		out := NewDense(1, 1)
		out.Set(0, 0, referenceExtreme(m, true))
		return out
	case "colSums":
		return referenceColSums(m)
	case "rowSums":
		return referenceRowSums(m)
	}
	return nil
}

// fusableAggs are the rows of the aggregate table fusion may take.
func fusableAggs() []*Aggregate {
	var rows []*Aggregate
	for _, a := range Aggregates() {
		if a.Fusable {
			rows = append(rows, a)
		}
	}
	return rows
}

// reference aggregates: plain sequential loops, independent of the fused
// kernels under test.
func referenceSum(m *MatrixBlock) float64 {
	var s float64
	for r := 0; r < m.Rows(); r++ {
		for c := 0; c < m.Cols(); c++ {
			s += m.Get(r, c)
		}
	}
	return s
}

func referenceExtreme(m *MatrixBlock, isMax bool) float64 {
	best := math.Inf(1)
	if isMax {
		best = math.Inf(-1)
	}
	for r := 0; r < m.Rows(); r++ {
		for c := 0; c < m.Cols(); c++ {
			v := m.Get(r, c)
			if (isMax && v > best) || (!isMax && v < best) {
				best = v
			}
		}
	}
	return best
}

func referenceColSums(m *MatrixBlock) *MatrixBlock {
	out := NewDense(1, m.Cols())
	for r := 0; r < m.Rows(); r++ {
		for c := 0; c < m.Cols(); c++ {
			out.Set(0, c, out.Get(0, c)+m.Get(r, c))
		}
	}
	return out
}

func referenceRowSums(m *MatrixBlock) *MatrixBlock {
	out := NewDense(m.Rows(), 1)
	for r := 0; r < m.Rows(); r++ {
		var s float64
		for c := 0; c < m.Cols(); c++ {
			s += m.Get(r, c)
		}
		out.Set(r, 0, s)
	}
	return out
}

// TestFusedAggMatchesUnfused is the property test of the fusion subsystem:
// every fused kernel must match the unfused operator composition on dense and
// sparse inputs, for threads in {1, 4}, within 1e-9 relative tolerance.
func TestFusedAggMatchesUnfused(t *testing.T) {
	aggs := fusableAggs()
	shapes := [][2]int{{1, 1}, {7, 5}, {63, 17}, {200, 33}}
	for _, tc := range fusedCases() {
		for _, sparsity := range []float64{1.0, 0.15} {
			for _, shape := range shapes {
				x := RandUniform(shape[0], shape[1], -1, 1, sparsity, int64(shape[0]*7+1))
				y := RandUniform(shape[0], shape[1], -1, 1, sparsity, int64(shape[0]*13+2))
				if sparsity < 1 {
					x.ToSparse()
				}
				want := tc.unfused(x, y)
				for _, agg := range aggs {
					ref := unfusedAgg(agg, want)
					for _, threads := range []int{1, 4} {
						got, err := FusedAgg(tc.prog, agg, tc.args(x, y), threads)
						if err != nil {
							t.Fatalf("%s/%s: %v", tc.name, agg, err)
						}
						requireClose(t, got, ref, tc.name+"/"+agg.String())
					}
				}
			}
		}
	}
}

// TestFusedAggDeterministicAcrossThreads asserts bitwise reproducibility of
// the chunk-ordered accumulation for any thread count.
func TestFusedAggDeterministicAcrossThreads(t *testing.T) {
	x := RandUniform(501, 37, -1, 1, 1.0, 42)
	y := RandUniform(501, 37, -1, 1, 1.0, 43)
	prog := fusedCases()[0].prog
	args := []CellArg{{Mat: x}, {Mat: y}}
	base, err := FusedAgg(prog, mustAgg("sum"), args, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{2, 3, 4, 8} {
		got, err := FusedAgg(prog, mustAgg("sum"), args, threads)
		if err != nil {
			t.Fatal(err)
		}
		if got.Get(0, 0) != base.Get(0, 0) {
			t.Errorf("threads=%d: sum %v != threads=1 sum %v (must be bitwise equal)",
				threads, got.Get(0, 0), base.Get(0, 0))
		}
	}
}

// TestFusedAggSparseDriverSkipsZeros checks the sparse-driver path against
// the dense evaluation for an annihilating program over a sparse driver and a
// dense second operand.
func TestFusedAggSparseDriverSkipsZeros(t *testing.T) {
	x := RandUniform(120, 40, -1, 1, 0.1, 7)
	x.ToSparse()
	y := RandUniform(120, 40, -1, 1, 1.0, 8)
	prog := fusedCases()[0].prog // X*Y, annihilating
	dense := x.Copy().ToDense()
	for _, agg := range fusableAggs() {
		got, err := FusedAgg(prog, agg, []CellArg{{Mat: x}, {Mat: y}}, 2)
		if err != nil {
			t.Fatal(err)
		}
		want, err := FusedAgg(prog, agg, []CellArg{{Mat: dense}, {Mat: y}}, 1)
		if err != nil {
			t.Fatal(err)
		}
		requireClose(t, got, want, "sparse driver "+agg.String())
	}
}

func TestCellProgramValidate(t *testing.T) {
	bad := []*CellProgram{
		{Instrs: nil, NumArgs: 0},
		{Instrs: []CellInstr{{Code: CellUnary}}, NumArgs: 0},
		{Instrs: []CellInstr{{Code: CellLoad, Arg: 2}}, NumArgs: 1},
		{Instrs: []CellInstr{{Code: CellLoad, Arg: 0}, {Code: CellLoad, Arg: 0}}, NumArgs: 1},
		{Instrs: []CellInstr{{Code: CellLoad, Arg: 0}, {Code: CellBinary, Bin: OpAdd}}, NumArgs: 1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("program %d should fail validation", i)
		}
	}
	if err := identityProgram.Validate(); err != nil {
		t.Errorf("identity program: %v", err)
	}
}

// identityProgram is the single-argument pass-through program: the plain
// aggregate over one matrix.
var identityProgram = &CellProgram{Instrs: []CellInstr{{Code: CellLoad, Arg: 0}}, NumArgs: 1, Annihilating: true}

// TestFusedAggIdentityScalarLoad: an identity program whose load references a
// scalar argument (never emitted by the matcher, but expressible through the
// exported API) must still aggregate the broadcast scalar over the matrix
// argument's shape.
func TestFusedAggIdentityScalarLoad(t *testing.T) {
	prog := &CellProgram{Instrs: []CellInstr{{Code: CellLoad, Arg: 0}}, NumArgs: 2}
	m := NewDense(100, 10)
	out, err := FusedAgg(prog, mustAgg("sum"), []CellArg{{Scalar: 5}, {Mat: m}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Get(0, 0); got != 5000 {
		t.Errorf("sum of broadcast scalar 5 over 100x10 = %v, want 5000", got)
	}
}

func TestFusedAggArgErrors(t *testing.T) {
	prog := identityProgram
	if _, err := FusedAgg(prog, mustAgg("sum"), nil, 1); err == nil {
		t.Error("missing arguments should error")
	}
	if _, err := FusedAgg(prog, mustAgg("sum"), []CellArg{{Scalar: 1}}, 1); err == nil {
		t.Error("scalar-only arguments should error")
	}
	p2 := fusedCases()[0].prog
	a := NewDense(3, 3)
	b := NewDense(2, 2)
	if _, err := FusedAgg(p2, mustAgg("sum"), []CellArg{{Mat: a}, {Mat: b}}, 1); err == nil {
		t.Error("shape mismatch should error")
	}
}

// chainProgram is the row program of t(X) %*% (X %*% v) (w == nil) or
// t(X) %*% (w * (X %*% v)), with its arguments.
func chainProgram(w *MatrixBlock) (*CellProgram, []CellArg) {
	if w == nil {
		return &CellProgram{Instrs: []CellInstr{{Code: CellLoad, Arg: 0}}, NumArgs: 1}, []CellArg{{}}
	}
	return &CellProgram{Instrs: []CellInstr{{Code: CellLoad, Arg: 1}, {Code: CellLoad, Arg: 0},
		{Code: CellBinary, Bin: OpMul}}, NumArgs: 2}, []CellArg{{}, {Mat: w}}
}

// referenceMMChain composes the chain from unfused kernels.
func referenceMMChain(x, v, w *MatrixBlock, threads int) *MatrixBlock {
	xv, err := Multiply(x, v, threads)
	if err != nil {
		panic(err)
	}
	if w != nil {
		xv, err = CellwiseOp(w, xv, OpMul, threads)
		if err != nil {
			panic(err)
		}
	}
	out, err := Multiply(Transpose(x), xv, threads)
	if err != nil {
		panic(err)
	}
	return out
}

// TestMMChainMatchesUnfused checks the row programs of both chain types
// against the unfused composition on dense and sparse X, threads in {1, 4}.
func TestMMChainMatchesUnfused(t *testing.T) {
	for _, sparsity := range []float64{1.0, 0.1} {
		for _, shape := range [][2]int{{5, 3}, {80, 20}, {301, 45}} {
			x := RandUniform(shape[0], shape[1], -1, 1, sparsity, int64(shape[0]))
			if sparsity < 1 {
				x.ToSparse()
			}
			v := RandUniform(shape[1], 1, -1, 1, 1.0, 99)
			w := RandUniform(shape[0], 1, 0, 1, 1.0, 98)
			for _, threads := range []int{1, 4} {
				prog, args := chainProgram(nil)
				got, err := RowChain(x, v, prog, args, threads)
				if err != nil {
					t.Fatal(err)
				}
				requireClose(t, got, referenceMMChain(x, v, nil, 1), "xtxv")
				prog, args = chainProgram(w)
				gotW, err := RowChain(x, v, prog, args, threads)
				if err != nil {
					t.Fatal(err)
				}
				requireClose(t, gotW, referenceMMChain(x, v, w, 1), "xtwxv")
			}
		}
	}
}

func TestMMChainDeterministicAcrossThreads(t *testing.T) {
	x := RandUniform(513, 31, -1, 1, 1.0, 5)
	v := RandUniform(31, 1, -1, 1, 1.0, 6)
	prog, args := chainProgram(nil)
	base, err := RowChain(x, v, prog, args, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{2, 4, 7} {
		got, err := RowChain(x, v, prog, args, threads)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equals(base, 0) {
			t.Errorf("threads=%d result differs bitwise from threads=1", threads)
		}
	}
}

func TestMMChainShapeErrors(t *testing.T) {
	x := NewDense(4, 3)
	prog, args := chainProgram(nil)
	if _, err := RowChain(x, NewDense(4, 1), prog, args, 1); err == nil {
		t.Error("wrong v length should error")
	}
	if _, err := RowChain(x, NewDense(3, 2), prog, args, 1); err == nil {
		t.Error("matrix v should error")
	}
	prog, args = chainProgram(NewDense(3, 1))
	if _, err := RowChain(x, NewDense(3, 1), prog, args, 1); err == nil {
		t.Error("wrong w length should error")
	}
	if _, err := RowChain(x, NewDense(3, 1), prog, args[:1], 1); err == nil {
		t.Error("missing argument should error")
	}
}

// TestParallelAggregatesMatchReference pins the rewritten multi-threaded
// aggregation kernels to sequential reference loops.
func TestParallelAggregatesMatchReference(t *testing.T) {
	for _, sparsity := range []float64{1.0, 0.2} {
		m := RandUniform(257, 19, -2, 2, sparsity, 77)
		if sparsity < 1 {
			m.ToSparse()
		}
		for _, threads := range []int{1, 4} {
			if relDiff(Sum(m, threads), referenceSum(m)) > 1e-9 {
				t.Errorf("Sum mismatch (threads=%d)", threads)
			}
			if Min(m, threads) != referenceExtreme(m, false) {
				t.Errorf("Min mismatch (threads=%d)", threads)
			}
			if Max(m, threads) != referenceExtreme(m, true) {
				t.Errorf("Max mismatch (threads=%d)", threads)
			}
			requireClose(t, ColSums(m, threads), referenceColSums(m), "ColSums")
			requireClose(t, RowSums(m, threads), referenceRowSums(m), "RowSums")
		}
	}
}
