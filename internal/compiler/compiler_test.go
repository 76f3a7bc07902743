package compiler

import (
	"math"
	"strings"
	"testing"

	"github.com/systemds/systemds-go/internal/builtins"
	"github.com/systemds/systemds-go/internal/instructions"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
	"github.com/systemds/systemds-go/internal/types"
)

func newCompiler(cfg *runtime.Config) *Compiler {
	if cfg == nil {
		cfg = runtime.DefaultConfig()
	}
	return New(cfg, builtins.NewRegistry())
}

func compileAndRun(t *testing.T, script string, inputs map[string]*matrix.MatrixBlock, outputs []string) map[string]runtime.Data {
	t.Helper()
	c := newCompiler(nil)
	prog, err := c.Compile(script, nil)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	ctx := runtime.NewContext(runtime.DefaultConfig())
	ctx.Prog = prog
	for name, m := range inputs {
		ctx.SetMatrix(name, m)
	}
	if err := prog.Execute(ctx); err != nil {
		t.Fatalf("execute: %v", err)
	}
	res := map[string]runtime.Data{}
	for _, o := range outputs {
		d, err := ctx.Get(o)
		if err != nil {
			t.Fatalf("output %s: %v", o, err)
		}
		res[o] = d
	}
	return res
}

func TestCompileSimpleProgramStructure(t *testing.T) {
	c := newCompiler(nil)
	prog, err := c.Compile(`
x = 1 + 2
if (x > 2) { y = 10 } else { y = 20 }
for (i in 1:3) { x = x + i }
while (x < 100) { x = x * 2 }
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4", len(prog.Blocks))
	}
	if _, ok := prog.Blocks[0].(*runtime.BasicBlock); !ok {
		t.Errorf("block 0 = %T", prog.Blocks[0])
	}
	if _, ok := prog.Blocks[1].(*runtime.IfBlock); !ok {
		t.Errorf("block 1 = %T", prog.Blocks[1])
	}
	if _, ok := prog.Blocks[2].(*runtime.ForBlock); !ok {
		t.Errorf("block 2 = %T", prog.Blocks[2])
	}
	if _, ok := prog.Blocks[3].(*runtime.WhileBlock); !ok {
		t.Errorf("block 3 = %T", prog.Blocks[3])
	}
}

func TestCompileParforResultVars(t *testing.T) {
	c := newCompiler(nil)
	prog, err := c.Compile(`
R = matrix(0, 1, 5)
parfor (i in 1:5) {
  R[1, i] = i * i
}
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	fb, ok := prog.Blocks[1].(*runtime.ForBlock)
	if !ok || !fb.Parallel {
		t.Fatalf("expected parallel for block, got %T", prog.Blocks[1])
	}
	found := false
	for _, rv := range fb.ResultVars {
		if rv == "R" {
			found = true
		}
	}
	if !found {
		t.Errorf("result vars = %v, expected R", fb.ResultVars)
	}
}

func TestCompileUnknownFunctionRejected(t *testing.T) {
	c := newCompiler(nil)
	if _, err := c.Compile(`x = mysteryFn(1)`, nil); err == nil {
		t.Error("expected unknown function error")
	}
	if _, err := c.Compile(`x = `, nil); err == nil {
		t.Error("expected parse error")
	}
}

func TestCompileDMLBuiltinResolution(t *testing.T) {
	c := newCompiler(nil)
	prog, err := c.Compile(`B = lm(X, y)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	// lm and its transitive dependencies lmDS and lmCG are compiled into the
	// function table on demand
	for _, fn := range []string{"lm", "lmDS", "lmCG"} {
		if _, ok := prog.Functions[fn]; !ok {
			t.Errorf("function %s not compiled", fn)
		}
	}
}

func TestIsCallablePredicate(t *testing.T) {
	c := newCompiler(nil)
	pred := c.IsCallable(nil)
	if !pred("sum") || !pred("lmDS") {
		t.Error("native and DML builtins should be callable")
	}
	if pred("definitelyNotAFunction") {
		t.Error("unknown names must not be callable")
	}
}

func TestCompiledScalarExecution(t *testing.T) {
	res := compileAndRun(t, `
a = 3
b = a ^ 2 + 1
c = min(b, 5)
`, nil, []string{"b", "c"})
	if res["b"].(*runtime.Scalar).Float64() != 10 {
		t.Errorf("b = %v", res["b"])
	}
	if res["c"].(*runtime.Scalar).Float64() != 5 {
		t.Errorf("c = %v", res["c"])
	}
}

// TestNaryMinMaxFoldsEveryArgument: min and max over three or four
// scalars, matrices or a mix fold every argument left to right.
func TestNaryMinMaxFoldsEveryArgument(t *testing.T) {
	x := matrix.FromRows([][]float64{{1, 9}, {-3, 4}})
	y := matrix.FromRows([][]float64{{2, -8}, {0, 4.5}})
	z := matrix.FromRows([][]float64{{-1, 7}, {6, 3}})
	res := compileAndRun(t, `
a = 3
b = -2
s3 = min(a, 2, 1)
s4 = max(1, a, 5, b)
l3 = max(1, 2, 5)
l4 = min(4, 7, -2, 3)
m3 = min(X, Y, Z)
m4 = max(X, Y, Z, X)
x3 = max(X, 0, Y)
x4 = min(a, X, 5, Z)
`, map[string]*matrix.MatrixBlock{"X": x, "Y": y, "Z": z}, []string{"s3", "s4", "l3", "l4", "m3", "m4", "x3", "x4"})
	for name, want := range map[string]float64{"s3": 1, "s4": 5, "l3": 5, "l4": -2} {
		if got := res[name].(*runtime.Scalar).Float64(); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
	cells := func(f func(r, c int) float64) *matrix.MatrixBlock {
		out := matrix.NewDense(2, 2)
		for r := 0; r < 2; r++ {
			for c := 0; c < 2; c++ {
				out.Set(r, c, f(r, c))
			}
		}
		return out
	}
	want := map[string]*matrix.MatrixBlock{
		"m3": cells(func(r, c int) float64 { return math.Min(math.Min(x.Get(r, c), y.Get(r, c)), z.Get(r, c)) }),
		"m4": cells(func(r, c int) float64 { return math.Max(math.Max(x.Get(r, c), y.Get(r, c)), z.Get(r, c)) }),
		"x3": cells(func(r, c int) float64 { return math.Max(math.Max(x.Get(r, c), 0), y.Get(r, c)) }),
		"x4": cells(func(r, c int) float64 { return math.Min(math.Min(3, x.Get(r, c)), z.Get(r, c)) }),
	}
	for name, w := range want {
		got, err := res[name].(*runtime.MatrixObject).Acquire()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equals(w, 0) {
			t.Errorf("%s = %v, want %v", name, got, w)
		}
	}
}

func TestCompiledMatrixPipeline(t *testing.T) {
	x := matrix.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	res := compileAndRun(t, `
G = t(X) %*% X
s = sum(G)
cs = colSums(X)
sub = X[2:3, ]
`, map[string]*matrix.MatrixBlock{"X": x}, []string{"G", "s", "cs", "sub"})
	g := res["G"].(*runtime.MatrixObject)
	blk, _ := g.Acquire()
	if !blk.Equals(matrix.TSMM(x, 1), 1e-12) {
		t.Error("G wrong")
	}
	if res["s"].(*runtime.Scalar).Float64() != matrix.Sum(blk, 1) {
		t.Error("s wrong")
	}
	sub, _ := res["sub"].(*runtime.MatrixObject).Acquire()
	if sub.Rows() != 2 || sub.Get(0, 0) != 3 {
		t.Errorf("sub = %v", sub)
	}
}

func TestTSMMFusionInCompiledCode(t *testing.T) {
	// verify that t(X) %*% X compiles to a tsmm instruction (not transpose +
	// matmult) by inspecting the lowered basic block
	c := newCompiler(nil)
	prog, err := c.Compile(`G = t(X) %*% X`, map[string]types.DataCharacteristics{
		"X": types.NewDataCharacteristics(100, 10, 1024, 1000),
	})
	if err != nil {
		t.Fatal(err)
	}
	bb := prog.Blocks[0].(*runtime.BasicBlock)
	opcodes := make([]string, 0, len(bb.Instructions))
	for _, inst := range bb.Instructions {
		opcodes = append(opcodes, inst.Opcode())
	}
	joined := strings.Join(opcodes, ",")
	if !strings.Contains(joined, "tsmm") {
		t.Errorf("expected tsmm in lowered instructions, got %v", opcodes)
	}
	if strings.Contains(joined, "ba+*") {
		t.Errorf("unexpected generic matmult in %v", opcodes)
	}
}

func TestExecTypeSelectionWithKnownSizes(t *testing.T) {
	cfg := runtime.DefaultConfig()
	cfg.DistEnabled = true
	cfg.OperatorMemBudget = 1 << 10 // 1 KB: everything large goes DIST
	c := New(cfg, builtins.NewRegistry())
	prog, err := c.Compile(`G = t(X) %*% X`, map[string]types.DataCharacteristics{
		"X": types.NewDataCharacteristics(2000, 200, 1024, 400000),
	})
	if err != nil {
		t.Fatal(err)
	}
	bb := prog.Blocks[0].(*runtime.BasicBlock)
	foundDist := false
	for _, inst := range bb.Instructions {
		if ts, ok := inst.(*instructions.TSMMInst); ok && ts.ExecType == types.ExecDist {
			foundDist = true
		}
	}
	if !foundDist {
		t.Error("expected the tsmm to be selected for the distributed backend")
	}
}

func TestDynamicRecompilationCallback(t *testing.T) {
	cfg := runtime.DefaultConfig()
	cfg.DistEnabled = true
	c := New(cfg, builtins.NewRegistry())
	// without known input sizes the block must be flagged for recompilation
	prog, err := c.Compile(`G = t(X) %*% X
s = sum(G)`, nil)
	if err != nil {
		t.Fatal(err)
	}
	bb := prog.Blocks[0].(*runtime.BasicBlock)
	if !bb.RequiresRecompile || bb.Recompile == nil {
		t.Fatal("expected recompilation callback for unknown sizes")
	}
	// executing still produces correct results (recompile path)
	ctx := runtime.NewContext(cfg)
	ctx.Prog = prog
	x := matrix.RandUniform(50, 5, -1, 1, 1.0, 3)
	ctx.SetMatrix("X", x)
	if err := prog.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	s, err := ctx.GetScalar("s")
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.Sum(matrix.TSMM(x, 1), 1)
	if diff := s.Float64() - want; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("recompiled result = %v, want %v", s.Float64(), want)
	}
}

func TestCompileFunctionDefaults(t *testing.T) {
	res := compileAndRun(t, `
f = function(Double a, Double b = 4, Boolean flag = TRUE) return (Double out) {
  out = a + b
  if (!flag) {
    out = 0 - out
  }
}
x = f(1)
y = f(1, 2)
z = f(1, 2, flag=FALSE)
`, nil, []string{"x", "y", "z"})
	if res["x"].(*runtime.Scalar).Float64() != 5 {
		t.Errorf("x = %v", res["x"])
	}
	if res["y"].(*runtime.Scalar).Float64() != 3 {
		t.Errorf("y = %v", res["y"])
	}
	if res["z"].(*runtime.Scalar).Float64() != -3 {
		t.Errorf("z = %v", res["z"])
	}
}

func TestCompileNonLiteralDefaultRejected(t *testing.T) {
	c := newCompiler(nil)
	if _, err := c.Compile(`
f = function(Double a = sum(1)) return (Double y) { y = a }
x = f()
`, nil); err == nil {
		t.Error("expected error for non-literal default")
	}
}

func TestCompileNestedFunctionCallRejected(t *testing.T) {
	c := newCompiler(nil)
	if _, err := c.Compile(`x = sum(lmDS(X, y))`, nil); err == nil {
		t.Error("expected error for nested function call in expression")
	}
}

func TestCompileReadWritePrint(t *testing.T) {
	c := newCompiler(nil)
	prog, err := c.Compile(`
X = read("data.csv", format="csv")
print("rows: " + nrow(X))
write(X, "out.csv", format="csv")
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	bb := prog.Blocks[0].(*runtime.BasicBlock)
	var haveRead, havePrint, haveWrite bool
	for _, inst := range bb.Instructions {
		switch inst.Opcode() {
		case "read":
			haveRead = true
		case "print":
			havePrint = true
		case "write":
			haveWrite = true
		}
	}
	if !haveRead || !havePrint || !haveWrite {
		t.Errorf("missing instructions read=%v print=%v write=%v", haveRead, havePrint, haveWrite)
	}
}

// countRecompiles wraps the recompilation callback of every basic block
// under blocks: calls counts the executions that asked for a plan, plans the
// distinct instruction lists handed back (a memo hit returns the list of the
// call before), static the answers "keep the compiled instructions".
func countRecompiles(blocks []runtime.ProgramBlock, calls, plans, static *int) {
	wrap := func(b *runtime.BasicBlock) {
		if b == nil || b.Recompile == nil {
			return
		}
		inner := b.Recompile
		var last []runtime.Instruction
		b.Recompile = func(ctx *runtime.Context) ([]runtime.Instruction, error) {
			instrs, err := inner(ctx)
			*calls++
			switch {
			case len(instrs) == 0:
				*static++
			case len(last) == 0 || &instrs[0] != &last[0]:
				*plans++
			}
			last = instrs
			return instrs, err
		}
	}
	for _, pb := range blocks {
		switch b := pb.(type) {
		case *runtime.BasicBlock:
			wrap(b)
		case *runtime.IfBlock:
			wrap(b.Predicate)
			countRecompiles(b.Then, calls, plans, static)
			countRecompiles(b.Else, calls, plans, static)
		case *runtime.WhileBlock:
			wrap(b.Predicate)
			countRecompiles(b.Body, calls, plans, static)
		case *runtime.ForBlock:
			wrap(b.Iterable)
			countRecompiles(b.Body, calls, plans, static)
		}
	}
}

// TestRecompileMemoHitsOnStableSizes: the 20 executions of the L2SVM loop
// body re-plan twice — the first trip, and the second, when w has stopped
// being all zeros — and answer "same sizes as last time" 18 times.
func TestRecompileMemoHitsOnStableSizes(t *testing.T) {
	c := newCompiler(nil)
	prog, err := c.Compile("w = l2svm(X, y, 0.001, 0.1, 20)", nil)
	if err != nil {
		t.Fatal(err)
	}
	var calls, plans, static int
	countRecompiles(prog.Blocks, &calls, &plans, &static)
	for _, fn := range prog.Functions {
		countRecompiles(fn.Body, &calls, &plans, &static)
	}
	x := matrix.RandUniform(2000, 20, -1, 1, 1.0, 71)
	y := matrix.RandUniform(2000, 1, 0, 1, 1.0, 72)
	y, err = matrix.FusedCell(matrix.UnaryProgram(matrix.OpRound), []matrix.CellArg{{Mat: y}}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	y = matrix.ScalarOp(matrix.ScalarOp(y, 2, matrix.OpMul, false, 1), 1, matrix.OpSub, false, 1)
	ctx := runtime.NewContext(runtime.DefaultConfig())
	ctx.Prog = prog
	ctx.SetMatrix("X", x)
	ctx.SetMatrix("y", y)
	if err := prog.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if calls != 20 || plans != 2 || static != 0 {
		t.Errorf("recompile memo: %d plans and %d static answers in %d calls, want 2 and 0 in 20", plans, static, calls)
	}
}

// TestUntypedScalarChainSettlesOnTheStaticPlan: a loop body of scalar
// arithmetic over untyped reads asks once whether its chain is a matrix chain,
// learns it is not, and never recompiles (or takes the recompile lock) again;
// a prepared-style block over the same kind of chain, bound to matrices,
// re-plans once and then hits its memo.
func TestUntypedScalarChainSettlesOnTheStaticPlan(t *testing.T) {
	c := newCompiler(nil)
	prog, err := c.Compile("s = 1\nfor (i in 1:10) {\n  s = (s + i) * 2\n}", nil)
	if err != nil {
		t.Fatal(err)
	}
	var calls, plans, static int
	countRecompiles(prog.Blocks, &calls, &plans, &static)
	ctx := runtime.NewContext(runtime.DefaultConfig())
	ctx.Prog = prog
	if err := prog.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if s, err := ctx.GetScalar("s"); err != nil || s.Float64() != 5096 {
		t.Fatalf("s = %v (%v), want 5096", s, err)
	}
	if calls != 10 || plans != 0 || static != 10 {
		t.Errorf("scalar loop body: %d plans and %d static answers in %d calls, want 0 and 10 in 10", plans, static, calls)
	}

	prog, err = c.Compile("Xs = (X - mu) / sd", nil)
	if err != nil {
		t.Fatal(err)
	}
	calls, plans, static = 0, 0, 0
	countRecompiles(prog.Blocks, &calls, &plans, &static)
	ctx = runtime.NewContext(runtime.DefaultConfig())
	ctx.Prog = prog
	ctx.SetMatrix("X", matrix.RandUniform(64, 100, -3, 3, 1.0, 73))
	ctx.SetMatrix("mu", matrix.RandUniform(1, 100, -1, 1, 1.0, 74))
	ctx.SetMatrix("sd", matrix.RandUniform(1, 100, 0.5, 2, 1.0, 75))
	for call := 0; call < 3; call++ {
		if err := prog.Execute(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 3 || plans != 1 || static != 0 {
		t.Errorf("matrix chain: %d plans and %d static answers in %d calls, want 1 and 0 in 3", plans, static, calls)
	}
}

// TestLeftIndexUpdatesInPlace: lowering marks the update of a variable as
// one that may write in place only when no other reader of the old value is
// left in its block, and names the updated variable on every update of a
// chain, for the parfor region log.
func TestLeftIndexUpdatesInPlace(t *testing.T) {
	type li struct {
		updates string
		inPlace bool
	}
	for _, tc := range []struct {
		script string
		want   []li
	}{
		{"Y[1, 1] = 5", []li{{"Y", true}}},
		{"Y[1, 1] = sum(Y)", []li{{"Y", true}}},
		{"Z = Y\nY[1, 1] = 5", []li{{"Y", false}}},
		{"s = sum(Y)\nY[1, 1] = 5", []li{{"Y", false}}},
		{"Y[1, 1] = 5\nY[2, 2] = 6", []li{{"Y", true}, {"Y", false}}},
		{"Z = Y\nZ[1, 1] = 5", []li{{"", false}}},
	} {
		prog, err := newCompiler(nil).Compile(tc.script, map[string]types.DataCharacteristics{
			"Y": {Rows: 4, Cols: 4, Blocksize: types.DefaultBlocksize, NNZ: 16}})
		if err != nil {
			t.Fatal(err)
		}
		var got []li
		for _, inst := range prog.Blocks[0].(*runtime.BasicBlock).Instructions {
			if l, ok := inst.(*instructions.LeftIndexInst); ok {
				got = append(got, li{l.Updates, l.InPlace})
			}
		}
		if len(got) != len(tc.want) {
			t.Fatalf("%q: %d left-index instructions, want %d", tc.script, len(got), len(tc.want))
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("%q: update %d = %+v, want %+v", tc.script, i, got[i], tc.want[i])
			}
		}
	}
}

// TestDoubleNegationFolds: the compiler spells unary minus uminus, and the
// -(-X) rewrite matches it through the operator table, so no unary operator
// is left in the plan or the instructions, and Y has X's exact bits — -0,
// NaN and ±Inf cells included.
func TestDoubleNegationFolds(t *testing.T) {
	c := newCompiler(nil)
	known := map[string]types.DataCharacteristics{"X": types.NewDataCharacteristics(2, 3, 1024, 6)}
	plan, err := c.ExplainPlan("Y = -(-X)", known)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(plan, "uminus") {
		t.Errorf("plan keeps a unary minus:\n%s", plan)
	}
	prog, err := c.Compile("Y = -(-X)", known)
	if err != nil {
		t.Fatal(err)
	}
	for _, pb := range prog.Blocks {
		for _, inst := range pb.(*runtime.BasicBlock).Instructions {
			if op := inst.Opcode(); op != "assignvar" {
				t.Errorf("instruction %s left in -(-X)", op)
			}
		}
	}
	x := matrix.FromRows([][]float64{{math.Copysign(0, -1), math.NaN(), math.Inf(1)}, {math.Inf(-1), -2.5, 0}})
	ctx := runtime.NewContext(runtime.DefaultConfig())
	ctx.Prog = prog
	ctx.SetMatrix("X", x)
	if err := prog.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	y, err := ctx.GetMatrixBlock("Y")
	if err != nil {
		t.Fatal(err)
	}
	for r := range 2 {
		for col := range 3 {
			if got, want := math.Float64bits(y.Get(r, col)), math.Float64bits(x.Get(r, col)); got != want {
				t.Errorf("Y[%d,%d] bits %#x, want X's %#x", r, col, got, want)
			}
		}
	}
}
