package lang

import (
	"strings"
	"testing"

	"github.com/systemds/systemds-go/internal/types"
)

func mustParse(t *testing.T, src string) *Program {
	t.Helper()
	prog, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return prog
}

func TestLexBasics(t *testing.T) {
	toks, err := Lex("x = 1 + 2.5e1 # comment\ny = \"hi\\n\"")
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokenKind
	var texts []string
	for _, tok := range toks {
		kinds = append(kinds, tok.Kind)
		texts = append(texts, tok.Text)
	}
	if texts[0] != "x" || texts[1] != "=" || texts[2] != "1" || texts[3] != "+" || texts[4] != "2.5e1" {
		t.Errorf("tokens = %v", texts)
	}
	// string escape
	found := false
	for i, k := range kinds {
		if k == TokenString {
			if texts[i] != "hi\n" {
				t.Errorf("string token = %q", texts[i])
			}
			found = true
		}
	}
	if !found {
		t.Error("string token not found")
	}
}

func TestLexOperators(t *testing.T) {
	toks, err := Lex("a %*% b %% c %/% d <= e != f & g | h")
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, tok := range toks {
		if tok.Kind == TokenOperator {
			ops = append(ops, tok.Text)
		}
	}
	want := []string{"%*%", "%%", "%/%", "<=", "!=", "&", "|"}
	if strings.Join(ops, " ") != strings.Join(want, " ") {
		t.Errorf("ops = %v, want %v", ops, want)
	}
}

func TestLexErrors(t *testing.T) {
	if _, err := Lex(`x = "unterminated`); err == nil {
		t.Error("expected unterminated string error")
	}
	if _, err := Lex("x = 1 @ 2"); err == nil {
		t.Error("expected unexpected character error")
	}
	if _, err := Lex("x %^ 2"); err == nil {
		t.Error("expected bad percent operator error")
	}
}

func TestParseSimpleAssignments(t *testing.T) {
	prog := mustParse(t, "x = 1\ny = x + 2\nz = \"hello\"\nb = TRUE\n")
	if len(prog.Body) != 4 {
		t.Fatalf("statements = %d", len(prog.Body))
	}
	a0 := prog.Body[0].(*AssignStmt)
	if a0.Targets[0].Name != "x" {
		t.Errorf("target = %v", a0.Targets[0])
	}
	if _, ok := a0.Value.(*NumLit); !ok {
		t.Errorf("value type = %T", a0.Value)
	}
	a1 := prog.Body[1].(*AssignStmt)
	bin, ok := a1.Value.(*BinaryExpr)
	if !ok || bin.Op != "+" {
		t.Errorf("value = %v", a1.Value)
	}
	if _, ok := prog.Body[2].(*AssignStmt).Value.(*StrLit); !ok {
		t.Error("expected string literal")
	}
	if _, ok := prog.Body[3].(*AssignStmt).Value.(*BoolLit); !ok {
		t.Error("expected bool literal")
	}
}

func TestParsePrecedence(t *testing.T) {
	prog := mustParse(t, "x = 1 + 2 * 3")
	bin := prog.Body[0].(*AssignStmt).Value.(*BinaryExpr)
	if bin.Op != "+" {
		t.Fatalf("top op = %s", bin.Op)
	}
	right := bin.Right.(*BinaryExpr)
	if right.Op != "*" {
		t.Errorf("right op = %s", right.Op)
	}

	prog = mustParse(t, "y = a + b %*% c")
	bin = prog.Body[0].(*AssignStmt).Value.(*BinaryExpr)
	if bin.Op != "+" {
		t.Fatalf("top op = %s", bin.Op)
	}
	if bin.Right.(*BinaryExpr).Op != "%*%" {
		t.Error("matmult should bind tighter than +")
	}

	prog = mustParse(t, "z = a < b + 1 & c > 2")
	bin = prog.Body[0].(*AssignStmt).Value.(*BinaryExpr)
	if bin.Op != "&" {
		t.Errorf("top op = %s, want &", bin.Op)
	}

	prog = mustParse(t, "w = 2 ^ 3 ^ 2")
	pw := prog.Body[0].(*AssignStmt).Value.(*BinaryExpr)
	if pw.Op != "^" {
		t.Fatal("expected power")
	}
	if _, ok := pw.Right.(*BinaryExpr); !ok {
		t.Error("power should be right-associative")
	}

	prog = mustParse(t, "v = -x ^ 2")
	if _, ok := prog.Body[0].(*AssignStmt).Value.(*UnaryExpr); !ok {
		t.Error("unary minus should wrap the power expression")
	}
}

func TestParseCallsAndNamedArgs(t *testing.T) {
	prog := mustParse(t, `B = lm(X=X, y=y, reg=0.001, verbose=FALSE)`)
	call := prog.Body[0].(*AssignStmt).Value.(*CallExpr)
	if call.Name != "lm" || len(call.Args) != 4 {
		t.Fatalf("call = %v", call)
	}
	if call.Args[0].Name != "X" || call.Args[2].Name != "reg" {
		t.Errorf("named args = %v", call.Args)
	}
	prog = mustParse(t, "s = sum(X * Y)")
	call = prog.Body[0].(*AssignStmt).Value.(*CallExpr)
	if call.Args[0].Name != "" {
		t.Error("positional arg should have empty name")
	}
}

func TestParseIndexing(t *testing.T) {
	prog := mustParse(t, "a = X[1:3, 2]\nb = X[, i]\nc = X[i, ]\nd = X[1, 1]")
	a := prog.Body[0].(*AssignStmt).Value.(*IndexExpr)
	if a.Rows.Lower == nil || a.Rows.Upper == nil {
		t.Error("expected row range")
	}
	if a.Cols.Lower == nil || a.Cols.Upper != nil {
		t.Error("expected single column index")
	}
	b := prog.Body[1].(*AssignStmt).Value.(*IndexExpr)
	if !b.Rows.All {
		t.Error("expected all-rows range")
	}
	c := prog.Body[2].(*AssignStmt).Value.(*IndexExpr)
	if !c.Cols.All {
		t.Error("expected all-cols range")
	}
}

func TestParseIndexedAssignment(t *testing.T) {
	prog := mustParse(t, "B[, i] = lm(Xi, y)\nA[1, 2] = 5")
	s0 := prog.Body[0].(*AssignStmt)
	if !s0.Targets[0].Indexed || !s0.Targets[0].Rows.All {
		t.Errorf("target = %+v", s0.Targets[0])
	}
	s1 := prog.Body[1].(*AssignStmt)
	if !s1.Targets[0].Indexed || s1.Targets[0].Rows.Lower == nil {
		t.Errorf("target = %+v", s1.Targets[0])
	}
}

func TestParseMultiAssignment(t *testing.T) {
	prog := mustParse(t, "[B, S] = steplm(X, y, icpt=0)")
	s := prog.Body[0].(*AssignStmt)
	if len(s.Targets) != 2 || s.Targets[0].Name != "B" || s.Targets[1].Name != "S" {
		t.Errorf("targets = %v", s.Targets)
	}
	if _, ok := s.Value.(*CallExpr); !ok {
		t.Error("expected call value")
	}
}

func TestParseControlFlow(t *testing.T) {
	src := `
if (ncol(X) > 1024) {
  B = lmCG(X, y)
} else {
  B = lmDS(X, y)
}
for (i in 1:10) {
  s = s + i
}
parfor (i in 1:n, check=0) {
  B[, i] = i
}
while (continue & iter < maxi) {
  iter = iter + 1
}
`
	prog := mustParse(t, src)
	if len(prog.Body) != 4 {
		t.Fatalf("statements = %d", len(prog.Body))
	}
	ifs := prog.Body[0].(*IfStmt)
	if len(ifs.Then) != 1 || len(ifs.Else) != 1 {
		t.Errorf("if branches = %d/%d", len(ifs.Then), len(ifs.Else))
	}
	fs := prog.Body[1].(*ForStmt)
	if fs.Parallel || fs.Var != "i" {
		t.Errorf("for = %+v", fs)
	}
	if _, ok := fs.Iterable.(*RangeExpr); !ok {
		t.Errorf("iterable = %T", fs.Iterable)
	}
	pf := prog.Body[2].(*ForStmt)
	if !pf.Parallel {
		t.Error("expected parfor")
	}
	ws := prog.Body[3].(*WhileStmt)
	if len(ws.Body) != 1 {
		t.Errorf("while body = %d", len(ws.Body))
	}
}

func TestParseElseIf(t *testing.T) {
	src := `
if (a > 1) {
  x = 1
} else if (a > 0) {
  x = 2
} else {
  x = 3
}
`
	prog := mustParse(t, src)
	ifs := prog.Body[0].(*IfStmt)
	if len(ifs.Else) != 1 {
		t.Fatalf("else = %d statements", len(ifs.Else))
	}
	nested, ok := ifs.Else[0].(*IfStmt)
	if !ok || len(nested.Else) != 1 {
		t.Error("expected nested else-if")
	}
}

func TestParseFunctionDef(t *testing.T) {
	src := `
m_lmDS = function(Matrix[Double] X, Matrix[Double] y, Double reg = 0.001, Boolean verbose = FALSE)
  return (Matrix[Double] B) {
  l = matrix(reg, ncol(X), 1)
  A = t(X) %*% X + diag(l)
  b = t(X) %*% y
  B = solve(A, b)
}
X = rand(rows=10, cols=3)
`
	prog := mustParse(t, src)
	fn, ok := prog.Functions["m_lmDS"]
	if !ok {
		t.Fatal("function not registered")
	}
	if len(fn.Params) != 4 {
		t.Fatalf("params = %d", len(fn.Params))
	}
	if fn.Params[0].DataType != types.Matrix || fn.Params[0].Name != "X" {
		t.Errorf("param0 = %+v", fn.Params[0])
	}
	if fn.Params[2].DataType != types.Scalar || fn.Params[2].ValueType != types.FP64 || fn.Params[2].Default == nil {
		t.Errorf("param2 = %+v", fn.Params[2])
	}
	if fn.Params[3].ValueType != types.Boolean {
		t.Errorf("param3 = %+v", fn.Params[3])
	}
	if len(fn.Returns) != 1 || fn.Returns[0].Name != "B" {
		t.Errorf("returns = %v", fn.Returns)
	}
	if len(fn.Body) != 4 {
		t.Errorf("body statements = %d", len(fn.Body))
	}
	if len(prog.Body) != 1 {
		t.Errorf("main body = %d", len(prog.Body))
	}
}

func TestParseExprStatements(t *testing.T) {
	prog := mustParse(t, `print("result: " + sum(X))`+"\n"+`write(B, "model.csv", format="csv")`)
	if len(prog.Body) != 2 {
		t.Fatalf("statements = %d", len(prog.Body))
	}
	for _, s := range prog.Body {
		if _, ok := s.(*ExprStmt); !ok {
			t.Errorf("expected expression statement, got %T", s)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"x = ",
		"if (x > 1 { y = 2 }",
		"for i in 1:10) { }",
		"f = function( { }",
		"x = (1 + 2",
		"[a, 1] = f(x)",
		"x = 1 +* 2",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) should fail", src)
		}
	}
}

func TestParseDuplicateFunction(t *testing.T) {
	src := "f = function() return (Double x) { x = 1 }\nf = function() return (Double x) { x = 2 }"
	if _, err := Parse(src); err == nil {
		t.Error("expected duplicate function error")
	}
}

func TestParseMultilineExpressionsInParens(t *testing.T) {
	src := "x = sum(\n  A,\n  B\n)\n"
	prog := mustParse(t, src)
	call := prog.Body[0].(*AssignStmt).Value.(*CallExpr)
	if len(call.Args) != 2 {
		t.Errorf("args = %d", len(call.Args))
	}
}

func TestStringRendering(t *testing.T) {
	prog := mustParse(t, "x = t(X) %*% X\nif (a > 1) { b = 1 }\nfor (i in 1:3) { c = i }")
	s := prog.String()
	if !strings.Contains(s, "%*%") || !strings.Contains(s, "if (") || !strings.Contains(s, "for (") {
		t.Errorf("program rendering missing pieces: %s", s)
	}
}

// FuzzParse: whatever the source, Parse and then Validate return a program or
// an error, never panic. The checked-in corpus (testdata/fuzz/FuzzParse)
// holds the shipped builtin scripts, the golden-plan scripts and malformed
// function headers. Every name but "undefined" counts as a builtin, so
// Validate both accepts calls and reports them.
func FuzzParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse(src)
		if (prog == nil) == (err == nil) {
			t.Fatalf("Parse returned program %v and error %v", prog, err)
		}
		if err == nil {
			_ = Validate(prog, func(name string) bool { return name != "undefined" })
		}
	})
}
