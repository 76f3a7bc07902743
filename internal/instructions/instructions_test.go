package instructions

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"github.com/systemds/systemds-go/internal/frame"
	sdsio "github.com/systemds/systemds-go/internal/io"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
	"github.com/systemds/systemds-go/internal/types"
)

func newCtx() *runtime.Context {
	cfg := runtime.DefaultConfig()
	cfg.Parallelism = 2
	return runtime.NewContext(cfg)
}

func getMat(t *testing.T, ctx *runtime.Context, name string) *matrix.MatrixBlock {
	t.Helper()
	blk, err := ctx.GetMatrixBlock(name)
	if err != nil {
		t.Fatal(err)
	}
	return blk
}

func getScalar(t *testing.T, ctx *runtime.Context, name string) *runtime.Scalar {
	t.Helper()
	s, err := ctx.GetScalar(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOperandResolution(t *testing.T) {
	ctx := newCtx()
	ctx.Set("s", runtime.NewDouble(3))
	ctx.SetMatrix("m", matrix.FromRows([][]float64{{7}}))
	if v, _ := LitDouble(2.5).Float64(ctx); v != 2.5 {
		t.Error("literal resolution wrong")
	}
	if v, _ := Var("s").Float64(ctx); v != 3 {
		t.Error("variable resolution wrong")
	}
	// 1x1 matrix auto-casts to scalar
	if v, err := Var("m").Scalar(ctx); err != nil || v.Float64() != 7 {
		t.Errorf("1x1 matrix as scalar: %v %v", v, err)
	}
	if _, err := Var("missing").Resolve(ctx); err == nil {
		t.Error("expected missing variable error")
	}
	if LitString("x").Desc() != "x" || Var("v").Desc() != "°v" {
		t.Error("operand descriptions wrong")
	}
	if s, _ := LitBool(true).StringValue(ctx); s != "TRUE" {
		t.Error("bool literal string wrong")
	}
	if v, _ := LitInt(4).Int(ctx); v != 4 {
		t.Error("int literal wrong")
	}
	mb, err := LitDouble(5).MatrixBlock(ctx)
	if err != nil || mb.Get(0, 0) != 5 {
		t.Error("literal to matrix promotion wrong")
	}
}

func TestDataGenInstructions(t *testing.T) {
	ctx := newCtx()
	if err := NewRand("R", LitInt(5), LitInt(4), LitDouble(0), LitDouble(1), LitDouble(1), LitString("uniform"), LitInt(9)).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	r := getMat(t, ctx, "R")
	if r.Rows() != 5 || r.Cols() != 4 {
		t.Errorf("rand dims %dx%d", r.Rows(), r.Cols())
	}
	if err := NewRand("N", LitInt(5), LitInt(4), LitDouble(0), LitDouble(1), LitDouble(1), LitString("normal"), LitInt(9)).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if err := NewSeq("S", LitDouble(1), LitDouble(5), LitDouble(2)).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	s := getMat(t, ctx, "S")
	if s.Rows() != 3 || s.Get(2, 0) != 5 {
		t.Errorf("seq = %v", s)
	}
	if err := NewFill("F", LitDouble(2.5), LitInt(2), LitInt(3)).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	f := getMat(t, ctx, "F")
	if f.Get(1, 2) != 2.5 {
		t.Errorf("fill = %v", f)
	}
	if err := NewFill("bad", LitDouble(1), LitInt(-1), LitInt(2)).Execute(ctx); err == nil {
		t.Error("expected negative dims error")
	}
	if err := NewSample("P", LitInt(10), LitInt(5), LitBool(false), LitInt(3)).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	p := getMat(t, ctx, "P")
	if p.Rows() != 5 || matrix.Max(p, 1) > 10 || matrix.Min(p, 1) < 1 {
		t.Errorf("sample = %v", p)
	}
}

func TestUnaryAndAggInstructions(t *testing.T) {
	ctx := newCtx()
	ctx.SetMatrix("X", matrix.FromRows([][]float64{{1, -4}, {9, 16}}))
	ctx.Set("v", runtime.NewDouble(-3))
	if err := NewUnary("abs", "A", Var("X")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if getMat(t, ctx, "A").Get(0, 1) != 4 {
		t.Error("matrix abs wrong")
	}
	if err := NewUnary("abs", "av", Var("v")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if getScalar(t, ctx, "av").Float64() != 3 {
		t.Error("scalar abs wrong")
	}
	if err := NewUnary("!", "nb", LitBool(false)).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if !getScalar(t, ctx, "nb").Bool() {
		t.Error("not wrong")
	}
	if err := NewUnary("warp", "w", Var("X")).Execute(ctx); err == nil {
		t.Error("expected unknown op error")
	}
	if _, ok := matrix.UnaryOpFromString("exp"); !ok {
		t.Error("exp missing from the unary op table")
	}
	if _, ok := matrix.UnaryOpFromString("zzz"); ok {
		t.Error("zzz in the unary op table")
	}

	for op, want := range map[string]float64{"sum": 22, "min": -4, "max": 16, "mean": 5.5, "trace": 17} {
		if err := NewAgg(op, "r", Var("X")).Execute(ctx); err != nil {
			t.Fatal(err)
		}
		if got := getScalar(t, ctx, "r").Float64(); got != want {
			t.Errorf("%s = %v, want %v", op, got, want)
		}
	}
	if err := NewAgg("colSums", "cs", Var("X")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if !getMat(t, ctx, "cs").Equals(matrix.FromRows([][]float64{{10, 12}}), 0) {
		t.Error("colSums wrong")
	}
	if err := NewAgg("nrow", "nr", Var("X")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if getScalar(t, ctx, "nr").Float64() != 2 {
		t.Error("nrow wrong")
	}
	// aggregates over scalars and frames
	if err := NewAgg("nrow", "sr", Var("v")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	fr := frame.NewFrame(types.UniformSchema(types.FP64, 2), 3)
	ctx.Set("F", runtime.NewFrameObject(fr))
	if err := NewAgg("ncol", "fc", Var("F")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if getScalar(t, ctx, "fc").Float64() != 2 {
		t.Error("frame ncol wrong")
	}
	if err := NewAgg("banana", "b", Var("X")).Execute(ctx); err == nil {
		t.Error("expected unknown aggregate error")
	}
}

func TestBinaryAndTernaryInstructions(t *testing.T) {
	ctx := newCtx()
	ctx.SetMatrix("A", matrix.FromRows([][]float64{{1, 2}, {3, 4}}))
	ctx.SetMatrix("B", matrix.FromRows([][]float64{{10, 20}, {30, 40}}))
	if err := NewBinary("+", "C", Var("A"), Var("B")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if getMat(t, ctx, "C").Get(1, 1) != 44 {
		t.Error("matrix add wrong")
	}
	if err := NewBinary("*", "D", Var("A"), LitDouble(2)).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if getMat(t, ctx, "D").Get(0, 0) != 2 {
		t.Error("matrix-scalar multiply wrong")
	}
	if err := NewBinary("-", "E", LitDouble(10), Var("A")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if getMat(t, ctx, "E").Get(0, 0) != 9 {
		t.Error("scalar-matrix subtract wrong")
	}
	if err := NewBinary("<", "F", LitDouble(1), LitDouble(2)).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if !getScalar(t, ctx, "F").Bool() {
		t.Error("scalar comparison wrong")
	}
	// string concatenation and comparison
	if err := NewBinary("+", "S", LitString("n="), LitInt(5)).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if getScalar(t, ctx, "S").StringValue() != "n=5" {
		t.Error("string concat wrong")
	}
	if err := NewBinary("==", "SE", LitString("a"), LitString("a")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if !getScalar(t, ctx, "SE").Bool() {
		t.Error("string equality wrong")
	}
	if err := NewBinary("*", "SX", LitString("a"), LitString("b")).Execute(ctx); err == nil {
		t.Error("expected unsupported string op error")
	}
	if err := NewBinary("zz", "Z", Var("A"), Var("B")).Execute(ctx); err == nil {
		t.Error("expected unknown op error")
	}
	if _, ok := matrix.BinaryOpFromString("+"); !ok {
		t.Error("+ missing from the binary op table")
	}
	if _, ok := matrix.BinaryOpFromString("@@"); ok {
		t.Error("@@ in the binary op table")
	}
	// ternary with matrix condition
	ctx.SetMatrix("cond", matrix.FromRows([][]float64{{1, 0}, {0, 1}}))
	if err := NewTernary("T", Var("cond"), Var("A"), Var("B")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	tm := getMat(t, ctx, "T")
	if tm.Get(0, 0) != 1 || tm.Get(0, 1) != 20 {
		t.Error("ternary matrix wrong")
	}
	// ternary with scalar condition picks a branch without evaluation error
	if err := NewTernary("T2", LitBool(false), Var("A"), LitDouble(7)).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if getScalar(t, ctx, "T2").Float64() != 7 {
		t.Error("scalar ternary wrong")
	}
}

func TestMatMultAndTSMMInstructions(t *testing.T) {
	ctx := newCtx()
	x := matrix.RandUniform(30, 6, -1, 1, 1.0, 4)
	y := matrix.RandUniform(6, 3, -1, 1, 1.0, 5)
	ctx.SetMatrix("X", x)
	ctx.SetMatrix("Y", y)
	if err := NewMatMult("P", Var("X"), Var("Y")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	want, _ := matrix.Multiply(x, y, 1)
	if !getMat(t, ctx, "P").Equals(want, 1e-9) {
		t.Error("matmult wrong")
	}
	if err := NewTSMM("G", Var("X")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if !getMat(t, ctx, "G").Equals(matrix.TSMM(x, 1), 1e-9) {
		t.Error("tsmm wrong")
	}
	// distributed path
	ctx.Config.DistEnabled = true
	mm := NewMatMult("PD", Var("X"), Var("Y"))
	mm.ExecType = types.ExecDist
	if err := mm.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if !getMat(t, ctx, "PD").Equals(want, 1e-9) {
		t.Error("distributed matmult wrong")
	}
	ts := NewTSMM("GD", Var("X"))
	ts.ExecType = types.ExecDist
	if err := ts.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if !getMat(t, ctx, "GD").Equals(matrix.TSMM(x, 1), 1e-9) {
		t.Error("distributed tsmm wrong")
	}
}

func TestReorgIndexNaryInstructions(t *testing.T) {
	ctx := newCtx()
	x := matrix.FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	ctx.SetMatrix("X", x)
	if err := NewReorg(reorgRow(t, "t"), "T", Var("X")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if !getMat(t, ctx, "T").Equals(matrix.Transpose(x), 0) {
		t.Error("transpose wrong")
	}
	ctx.SetMatrix("v", matrix.FromRows([][]float64{{1}, {2}}))
	if err := NewReorg(reorgRow(t, "diag"), "D", Var("v")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if getMat(t, ctx, "D").Get(1, 1) != 2 {
		t.Error("diag wrong")
	}
	if err := NewReorg(reorgRow(t, "rev"), "R", Var("X")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if getMat(t, ctx, "R").Get(0, 0) != 4 {
		t.Error("rev wrong")
	}
	if err := NewReorg(reorgRow(t, "cbind"), "CB", Var("X"), Var("X")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if getMat(t, ctx, "CB").Cols() != 6 {
		t.Error("cbind wrong")
	}
	if err := NewReorg(reorgRow(t, "rbind"), "RB", Var("X"), Var("X")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if getMat(t, ctx, "RB").Rows() != 4 {
		t.Error("rbind wrong")
	}
	if err := NewReorg(reorgRow(t, "t"), "ZZ", Var("X"), Var("X")).Execute(ctx); err == nil {
		t.Error("expected an error for a transpose of two operands")
	}
	// right indexing with 1-based inclusive bounds (0 = unbounded)
	if err := NewRightIndex("S", Var("X"), LitInt(1), LitInt(2), LitInt(2), LitInt(3)).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if !getMat(t, ctx, "S").Equals(matrix.FromRows([][]float64{{2, 3}, {5, 6}}), 0) {
		t.Error("rightIndex wrong")
	}
	if err := NewRightIndex("S2", Var("X"), LitInt(2), LitInt(2), LitInt(0), LitInt(0)).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if getMat(t, ctx, "S2").Cols() != 3 || getMat(t, ctx, "S2").Get(0, 0) != 4 {
		t.Error("row slice wrong")
	}
	if err := NewRightIndex("S3", Var("X"), LitInt(5), LitInt(9), LitInt(0), LitInt(0)).Execute(ctx); err == nil {
		t.Error("expected out of bounds error")
	}
	// left indexing
	if err := NewLeftIndex("L", Var("X"), LitDouble(9), LitInt(1), LitInt(1), LitInt(1), LitInt(1)).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if getMat(t, ctx, "L").Get(0, 0) != 9 {
		t.Error("leftIndex wrong")
	}
	// scalar broadcast into a range
	if err := NewLeftIndex("L2", Var("X"), LitDouble(7), LitInt(1), LitInt(2), LitInt(1), LitInt(3)).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if matrix.Sum(getMat(t, ctx, "L2"), 1) != 42 {
		t.Error("broadcast leftIndex wrong")
	}
}

func TestSolveCastParamBuiltinInstructions(t *testing.T) {
	ctx := newCtx()
	a := matrix.FromRows([][]float64{{4, 1}, {1, 3}})
	xTrue := matrix.FromRows([][]float64{{1}, {2}})
	b, _ := matrix.Multiply(a, xTrue, 1)
	ctx.SetMatrix("A", a)
	ctx.SetMatrix("b", b)
	if err := NewSolve("x", Var("A"), Var("b")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if !getMat(t, ctx, "x").Equals(xTrue, 1e-10) {
		t.Error("solve wrong")
	}
	if err := NewInverse("Ai", Var("A")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	prod, _ := matrix.Multiply(a, getMat(t, ctx, "Ai"), 1)
	if !prod.Equals(matrix.Identity(2), 1e-10) {
		t.Error("inverse wrong")
	}
	if err := NewCholesky("L", Var("A")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if err := NewEigen("ev", "EV", Var("A")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if getMat(t, ctx, "ev").Rows() != 2 || getMat(t, ctx, "EV").Cols() != 2 {
		t.Error("eigen outputs wrong")
	}
	// casts
	ctx.SetMatrix("one", matrix.FromRows([][]float64{{5}}))
	if err := NewCast("castdts", "s", Var("one")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if getScalar(t, ctx, "s").Float64() != 5 {
		t.Error("as.scalar wrong")
	}
	if err := NewCast("castdts", "bad", Var("A")).Execute(ctx); err == nil {
		t.Error("expected as.scalar shape error")
	}
	if err := NewCast("castsdm", "m", LitDouble(3)).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if getMat(t, ctx, "m").Get(0, 0) != 3 {
		t.Error("as.matrix wrong")
	}
	if err := NewCast("as.integer", "i", LitDouble(3.9)).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if getScalar(t, ctx, "i").Float64() != 3 {
		t.Error("as.integer wrong")
	}
	// parameterized builtins
	ctx.SetMatrix("M", matrix.FromRows([][]float64{{1, 0}, {0, 0}, {3, 4}}))
	if err := NewParamBuiltin("removeEmpty", "RE", map[string]Operand{"target": Var("M"), "margin": LitString("rows")}).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if getMat(t, ctx, "RE").Rows() != 2 {
		t.Error("removeEmpty wrong")
	}
	if err := NewParamBuiltin("replace", "RP", map[string]Operand{"target": Var("M"), "pattern": LitDouble(0), "replacement": LitDouble(-1)}).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if getMat(t, ctx, "RP").Get(1, 0) != -1 {
		t.Error("replace wrong")
	}
	// NaN replacement
	nanMat := matrix.FromRows([][]float64{{math.NaN(), 1}})
	ctx.SetMatrix("NM", nanMat)
	if err := NewParamBuiltin("replace", "RN", map[string]Operand{"target": Var("NM"), "pattern": LitDouble(math.NaN()), "replacement": LitDouble(0)}).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if getMat(t, ctx, "RN").Get(0, 0) != 0 {
		t.Error("NaN replace wrong")
	}
	if err := NewParamBuiltin("order", "OR", map[string]Operand{"target": Var("M"), "by": LitInt(1), "decreasing": LitBool(true)}).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if getMat(t, ctx, "OR").Get(0, 0) != 3 {
		t.Error("order wrong")
	}
	if err := NewParamBuiltin("quantile", "Q", map[string]Operand{"target": Var("b"), "p": LitDouble(0.5)}).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if err := NewParamBuiltin("mystery", "X1", map[string]Operand{}).Execute(ctx); err == nil {
		t.Error("expected unknown builtin error")
	}
}

func TestTransformInstructions(t *testing.T) {
	ctx := newCtx()
	schema := types.Schema{types.String, types.FP64}
	f := frame.NewFrame(schema, 3)
	_ = f.SetColumnNames([]string{"city", "v"})
	_ = f.SetString(0, 0, "a")
	_ = f.SetString(1, 0, "b")
	_ = f.SetString(2, 0, "a")
	_ = f.SetNumeric(0, 1, 1)
	_ = f.SetNumeric(1, 1, 2)
	_ = f.SetNumeric(2, 1, 3)
	ctx.Set("F", runtime.NewFrameObject(f))
	enc := NewTransformEncode("X", "M", Var("F"), LitString("dummycode=city;scale=v"))
	if err := enc.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	x := getMat(t, ctx, "X")
	if x.Cols() != 3 {
		t.Errorf("encoded cols = %d", x.Cols())
	}
	// apply to the same frame reproduces the same encoding
	app := NewTransformApply("X2", Var("F"), Var("M"))
	if err := app.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if !getMat(t, ctx, "X2").Equals(x, 1e-12) {
		t.Error("transformapply differs from transformencode output")
	}
	// spec parse errors
	if _, err := ParseTransformSpec("bogus"); err == nil {
		t.Error("expected spec parse error")
	}
	if _, err := ParseTransformSpec("bin=v"); err == nil {
		t.Error("expected bin clause error")
	}
	spec, err := ParseTransformSpec("recode=a,b;dummycode=c;bin=d:4;impute=e:mean;scale=f")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Recode) != 2 || spec.Bin["d"] != 4 || spec.Impute["e"] != "mean" {
		t.Errorf("spec = %+v", spec)
	}
}

func TestControlInstructions(t *testing.T) {
	ctx := newCtx()
	var buf bytes.Buffer
	ctx.Out = &buf
	ctx.SetMatrix("M", matrix.FromRows([][]float64{{1, 2}}))
	if err := NewPrint(LitString("hello")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if err := NewPrint(Var("M")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "hello") || !strings.Contains(buf.String(), "1.0000") {
		t.Errorf("print output = %q", buf.String())
	}
	if err := NewAssign("copy", Var("M")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if !getMat(t, ctx, "copy").Equals(getMat(t, ctx, "M"), 0) {
		t.Error("assign wrong")
	}
	if err := NewStop(LitString("boom")).Execute(ctx); err == nil || !strings.Contains(err.Error(), "boom") {
		t.Error("stop should error with message")
	}
	if err := NewAssert(LitBool(true)).Execute(ctx); err != nil {
		t.Error("assert true should pass")
	}
	if err := NewAssert(LitBool(false)).Execute(ctx); err == nil {
		t.Error("assert false should fail")
	}
}

func TestReadWriteInstructions(t *testing.T) {
	ctx := newCtx()
	dir := t.TempDir()
	m := matrix.RandUniform(10, 3, -1, 1, 1.0, 6)
	csvPath := filepath.Join(dir, "m.csv")
	if err := sdsio.WriteMatrixCSV(csvPath, m, sdsio.DefaultCSVOptions()); err != nil {
		t.Fatal(err)
	}
	if err := NewRead("X", LitString(csvPath), LitString(""), LitString("matrix"), LitBool(false)).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if !getMat(t, ctx, "X").Equals(m, 1e-12) {
		t.Error("csv read wrong")
	}
	binPath := filepath.Join(dir, "m.bin")
	if err := NewWrite(Var("X"), LitString(binPath), LitString("binary")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if err := NewRead("X2", LitString(binPath), LitString("binary"), LitString("matrix"), LitBool(false)).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if !getMat(t, ctx, "X2").Equals(m, 1e-12) {
		t.Error("binary round trip wrong")
	}
	// frame read
	framePath := filepath.Join(dir, "f.csv")
	if err := NewWrite(Var("X"), LitString(framePath), LitString("csv")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if err := NewRead("F", LitString(framePath), LitString("csv"), LitString("frame"), LitBool(false)).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := ctx.GetFrame("F"); err != nil {
		t.Error("frame read wrong")
	}
	// scalar write
	ctx.Set("s", runtime.NewDouble(5))
	if err := NewWrite(Var("s"), LitString(filepath.Join(dir, "s.csv")), LitString("csv")).Execute(ctx); err != nil {
		t.Fatal(err)
	}
	// missing file error
	if err := NewRead("Z", LitString(filepath.Join(dir, "missing.csv")), LitString(""), LitString("matrix"), LitBool(false)).Execute(ctx); err == nil {
		t.Error("expected missing file error")
	}
}

func TestFCallInstruction(t *testing.T) {
	ctx := newCtx()
	prog := &runtime.Program{Functions: map[string]*runtime.FunctionBlock{}}
	prog.Functions["twice"] = &runtime.FunctionBlock{
		Name:    "twice",
		Params:  []runtime.FunctionParam{{Name: "x"}},
		Returns: []string{"y"},
		Body: []runtime.ProgramBlock{&runtime.BasicBlock{Instructions: []runtime.Instruction{
			NewBinary("*", "y", Var("x"), LitDouble(2)),
		}}},
	}
	ctx.Prog = prog
	inst := NewFCall("twice", []Operand{LitDouble(21)}, nil, []string{"result"})
	if err := inst.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if getScalar(t, ctx, "result").Float64() != 42 {
		t.Error("fcall result wrong")
	}
	if err := NewFCall("nothere", nil, nil, nil).Execute(ctx); err == nil {
		t.Error("expected unknown function error")
	}
	if err := NewFCall("twice", nil, map[string]Operand{"zz": LitDouble(1)}, []string{"r"}).Execute(ctx); err == nil {
		t.Error("expected unknown parameter error")
	}
}
