package systemds_test

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	systemds "github.com/systemds/systemds-go"
	"github.com/systemds/systemds-go/internal/matrix"
)

// foldOperands are the operands of TestFoldedScalarsMatchRuntime as DML
// literal expressions: zeros of both signs, ones, a fraction, infinities of
// both signs and NaN.
var foldOperands = []string{"0", "-0", "1", "-2.5", "3", "1/0", "-1/0", "0/0"}

// dmlApply spells an operator applied to its arguments in DML.
func dmlApply(sym string, args ...string) string {
	switch {
	case len(args) == 2 && (sym == "min" || sym == "max"):
		return fmt.Sprintf("%s(%s, %s)", sym, args[0], args[1])
	case len(args) == 2:
		return fmt.Sprintf("(%s) %s (%s)", args[0], sym, args[1])
	default:
		return fmt.Sprintf("%s(%s)", sym, args[0])
	}
}

// TestFoldedScalarsMatchRuntime pins that constant folding and the scalar
// instructions are one definition: every binary and unary operator over
// literals (folded at compile time) gives the bits and the value type of the
// same operator over the same values bound at run time.
func TestFoldedScalarsMatchRuntime(t *testing.T) {
	ctx := systemds.NewContext()
	// the operand values, folded from their literal expressions, bind as inputs
	var src []string
	names := make([]string, len(foldOperands))
	for i, e := range foldOperands {
		names[i] = fmt.Sprintf("a%d", i)
		src = append(src, names[i]+" = "+e)
	}
	vals, err := ctx.Execute(strings.Join(src, "\n"), nil, names...)
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]any{}
	for _, n := range names {
		inputs[n] = vals[n]
	}

	check := func(sym string, arity int) {
		var folded, bound, outs []string
		var cases []string
		add := func(idx ...int) {
			lits, vars := make([]string, len(idx)), make([]string, len(idx))
			for k, i := range idx {
				lits[k], vars[k] = foldOperands[i], names[i]
			}
			y := fmt.Sprintf("y%d", len(outs))
			outs = append(outs, y)
			folded = append(folded, y+" = "+dmlApply(sym, lits...))
			bound = append(bound, y+" = "+dmlApply(sym, vars...))
			cases = append(cases, dmlApply(sym, lits...))
		}
		for i := range foldOperands {
			if arity == 1 {
				add(i)
				continue
			}
			for j := range foldOperands {
				add(i, j)
			}
		}
		foldedSrc, boundSrc := strings.Join(folded, "\n"), strings.Join(bound, "\n")
		plan, err := ctx.ExplainPlan(foldedSrc, nil)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(plan, " Binary ") || strings.Contains(plan, " Unary ") {
			t.Errorf("%s: literal operands did not fold:\n%s", sym, plan)
		}
		if plan, _ = ctx.ExplainPlan(boundSrc, inputs); !strings.Contains(plan, " Binary ") && !strings.Contains(plan, " Unary ") {
			t.Errorf("%s: bound operands folded at compile time:\n%s", sym, plan)
		}
		want, err := ctx.Execute(boundSrc, inputs, outs...)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ctx.Execute(foldedSrc, nil, outs...)
		if err != nil {
			t.Fatal(err)
		}
		for k, y := range outs {
			w, g := want[y], got[y]
			wf, wok := w.(float64)
			gf, gok := g.(float64)
			if fmt.Sprintf("%T", w) != fmt.Sprintf("%T", g) || (wok && gok && math.Float64bits(wf) != math.Float64bits(gf)) ||
				(!wok && w != g) {
				t.Errorf("%s: folded %v (%T), at run time %v (%T)", cases[k], g, g, w, w)
			}
		}
	}
	for op := matrix.BinaryOp(0); op.String() != "?"; op++ {
		check(op.String(), 2)
	}
	for op := matrix.UnaryOp(0); op.String() != "?"; op++ {
		check(op.String(), 1)
	}
}

// TestNotPrintsTheSameFoldedOrNot pins the defect the shared operator table
// fixed: !0 folded at compile time printed 1, while ! over a zero computed at
// run time printed TRUE.
func TestNotPrintsTheSameFoldedOrNot(t *testing.T) {
	ctx := systemds.NewContext()
	var buf bytes.Buffer
	ctx.SetOutput(&buf)
	if _, err := ctx.Execute("print(!0)\nprint(!z)", map[string]any{"z": 0.0}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || lines[0] != lines[1] {
		t.Errorf("print(!0) and print(!z) with z = 0 printed %q", lines)
	}
}
