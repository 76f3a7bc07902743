package compiler

import (
	"math"
	"strings"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
)

// fcallsAndIfs counts the fcall instructions and the if blocks of a compiled
// main program, nested blocks included.
func fcallsAndIfs(blocks []runtime.ProgramBlock) (fcalls, ifs int) {
	count := func(b *runtime.BasicBlock) {
		if b == nil {
			return
		}
		for _, inst := range b.Instructions {
			if inst.Opcode() == "fcall" {
				fcalls++
			}
		}
	}
	for _, pb := range blocks {
		switch b := pb.(type) {
		case *runtime.BasicBlock:
			count(b)
		case *runtime.IfBlock:
			ifs++
			count(b.Predicate)
			f, i := fcallsAndIfs(append(append([]runtime.ProgramBlock(nil), b.Then...), b.Else...))
			fcalls, ifs = fcalls+f, ifs+i
		case *runtime.WhileBlock:
			count(b.Predicate)
			f, i := fcallsAndIfs(b.Body)
			fcalls, ifs = fcalls+f, ifs+i
		case *runtime.ForBlock:
			count(b.Iterable)
			f, i := fcallsAndIfs(b.Body)
			fcalls, ifs = fcalls+f, ifs+i
		}
	}
	return fcalls, ifs
}

// TestScorePathIsInlinedAndPlannedOnce pins the prepared scoring script (the
// script of the bench row score.prepared): lmPredict with icpt defaulted to 0
// folds its `if` and inlines, so the program is two basic blocks — the
// standardization and the inlined call — with no fcall and no if block;
// prepared-style calls with fresh contexts and the same shapes build the two
// plans on the first call and none after it; every call matches a naive
// reference.
func TestScorePathIsInlinedAndPlannedOnce(t *testing.T) {
	c := newCompiler(nil)
	prog, err := c.Compile("Xs = (X - mu) / sd\nyhat = lmPredict(Xs, B)", nil)
	if err != nil {
		t.Fatal(err)
	}
	if f, i := fcallsAndIfs(prog.Blocks); f != 0 || i != 0 || len(prog.Blocks) != 2 {
		t.Fatalf("score script: %d blocks, %d fcall instructions and %d if blocks, want 2 and none", len(prog.Blocks), f, i)
	}
	var calls, plans, static, firstPlans int
	countRecompiles(prog.Blocks, &calls, &plans, &static)
	const rows, cols, n = 64, 100, 6
	mu := matrix.RandUniform(1, cols, -1, 1, 1.0, 81)
	sd := matrix.RandUniform(1, cols, 0.5, 2, 1.0, 82)
	b := matrix.RandUniform(cols, 1, -1, 1, 1.0, 83)
	for call := 0; call < n; call++ {
		x := matrix.RandUniform(rows, cols, -3, 3, 1.0, int64(90+call))
		ctx := runtime.NewContext(runtime.DefaultConfig())
		ctx.Prog = prog
		ctx.SetMatrix("X", x)
		ctx.SetMatrix("mu", mu)
		ctx.SetMatrix("sd", sd)
		ctx.SetMatrix("B", b)
		if err := prog.Execute(ctx); err != nil {
			t.Fatal(err)
		}
		yhat, err := ctx.GetMatrixBlock("yhat")
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rows; r++ {
			var want float64
			for k := 0; k < cols; k++ {
				want += (x.Get(r, k) - mu.Get(0, k)) / sd.Get(0, k) * b.Get(k, 0)
			}
			if got := yhat.Get(r, 0); math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
				t.Fatalf("call %d row %d: yhat %v, want %v", call, r, got, want)
			}
		}
		ctx.ReleasePool()
		if call == 0 {
			firstPlans = plans
		}
	}
	if calls != 2*n || firstPlans != 2 || plans != 2 || static != 0 {
		t.Errorf("score script: %d plans (%d on the first call) and %d static answers in %d block runs, want 2 (2) and 0 in %d",
			plans, firstPlans, static, calls, 2*n)
	}
}

// TestInlineKeepsTheCallWhenItMust: a call stays an fcall when a constant
// cannot be proven (non-literal icpt) or the body is not plain assignments
// (print, a loop, a call to another function).
func TestInlineKeepsTheCallWhenItMust(t *testing.T) {
	const fns = `
withPrint = function(Matrix[Double] X) return (Matrix[Double] Y) {
  Y = X * 2
  print("scaled")
}
withLoop = function(Matrix[Double] X) return (Matrix[Double] Y) {
  Y = X
  for (i in 1:2) {
    Y = Y + 1
  }
}
withCall = function(Matrix[Double] X) return (Matrix[Double] Y) {
  Y = withPrint(X)
}
plain = function(Matrix[Double] X, Double s = 2) return (Matrix[Double] Y) {
  Y = X * s
}
`
	for _, tc := range []struct {
		call   string
		fcalls int
	}{
		{"k = 0\nyhat = lmPredict(X, B, icpt=k)", 1},
		{"yhat = lmPredict(X, B, icpt=0)", 0},
		{"Y = withPrint(X)", 1},
		{"Y = withLoop(X)", 1},
		{"Y = withCall(X)", 1},
		{"Y = plain(X)", 0},
		{"Y = plain(X, s=3)", 0},
	} {
		prog, err := newCompiler(nil).Compile(fns+tc.call, nil)
		if err != nil {
			t.Fatalf("%q: %v", tc.call, err)
		}
		if f, _ := fcallsAndIfs(prog.Blocks); f != tc.fcalls {
			t.Errorf("%q: %d fcall instructions, want %d", tc.call, f, tc.fcalls)
		}
	}
}

// TestInlinedLocalsAndReturns: lmDS's local l does not clobber the caller's l,
// and its result has the bits and the lineage of the fcall it replaces (the
// same call with a non-literal icpt stays an fcall, and a non-literal verbose
// keeps it impure, so its output is traced inside the body, not as one
// function-level item); splitTrainTest binds all four targets.
func TestInlinedLocalsAndReturns(t *testing.T) {
	x := matrix.RandUniform(40, 5, -1, 1, 1.0, 61)
	y := matrix.RandUniform(40, 1, -1, 1, 1.0, 62)
	c := newCompiler(nil)
	prog, err := c.Compile(`
l = matrix(7, rows=3, cols=1)
B = lmDS(X, y, 0.001)
zero = 0
quiet = FALSE
Bcall = lmDS(X, y, 0.001, icpt=zero, verbose=quiet)
s = sum(l)
[Xtr, ytr, Xte, yte] = splitTrainTest(X, y, 0.75)
`, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := fcallsAndIfs(prog.Blocks); f != 1 {
		t.Fatalf("%d fcall instructions, want 1 (the non-literal icpt)", f)
	}
	ctx := runtime.NewContext(runtime.DefaultConfig())
	ctx.Prog = prog
	ctx.SetMatrix("X", x)
	ctx.SetMatrix("y", y)
	if err := prog.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if s, err := ctx.GetScalar("s"); err != nil || s.Float64() != 21 {
		t.Fatalf("caller's l clobbered: sum(l) = %v (%v), want 21", s, err)
	}
	got, _ := ctx.GetMatrixBlock("B")
	want, _ := ctx.GetMatrixBlock("Bcall")
	for r := 0; r < want.Rows(); r++ {
		if math.Float64bits(got.Get(r, 0)) != math.Float64bits(want.Get(r, 0)) {
			t.Fatalf("B[%d] = %v inlined, %v called", r, got.Get(r, 0), want.Get(r, 0))
		}
	}
	if li, lc := ctx.LineageOf("B"), ctx.LineageOf("Bcall"); !li.Equals(lc) {
		t.Errorf("lineage moved:\ninlined %s\ncalled  %s", li, lc)
	}
	for name, shape := range map[string][2]int{"Xtr": {30, 5}, "ytr": {30, 1}, "Xte": {10, 5}, "yte": {10, 1}} {
		m, err := ctx.GetMatrixBlock(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if m.Rows() != shape[0] || m.Cols() != shape[1] {
			t.Fatalf("%s is %dx%d, want %dx%d", name, m.Rows(), m.Cols(), shape[0], shape[1])
		}
		src, off := x, 0
		if name[0] == 'y' {
			src = y
		}
		if strings.HasSuffix(name, "te") {
			off = 30
		}
		if m.Get(0, 0) != src.Get(off, 0) || m.Get(m.Rows()-1, 0) != src.Get(off+m.Rows()-1, 0) {
			t.Errorf("%s does not hold rows %d.. of its source", name, off)
		}
	}
}

// TestInlinedBodyErrorNamesItsLine: an error in a body that would inline is
// reported with the function and the body's line.
func TestInlinedBodyErrorNamesItsLine(t *testing.T) {
	_, err := newCompiler(nil).Compile(`
f = function(Matrix[Double] X) return (Matrix[Double] Y) {
  Y = X + 1
  Z = matrix(1, 2)
}
Y = f(X)
`, nil)
	if err == nil || !strings.Contains(err.Error(), "function f") || !strings.Contains(err.Error(), "line 4") {
		t.Fatalf("error %v, want one naming function f and line 4", err)
	}
}
