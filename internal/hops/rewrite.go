package hops

import (
	"math"

	"github.com/systemds/systemds-go/internal/types"
)

// Rewrite applies the static rewrite passes to the DAG in a fixed order:
// constant folding, algebraic simplification, fused-operator rewrites
// (t(X)%*%X -> tsmm) and common subexpression elimination. The passes mirror
// the HOP rewrites SystemDS applies before operator ordering and selection.
func Rewrite(d *DAG) {
	FoldConstants(d)
	SimplifyAlgebraic(d)
	// CSE must run before transpose fusion so that the two occurrences of X
	// in t(X) %*% X are represented by the same operator and the pattern is
	// recognized; a second CSE pass cleans up after the fusion.
	EliminateCommonSubexpressions(d)
	FuseTranspose(d)
	EliminateCommonSubexpressions(d)
}

// replaceEverywhere replaces old with new in all consumers (and roots).
func replaceEverywhere(d *DAG, old, new *Hop) {
	for _, h := range d.Nodes() {
		h.ReplaceInput(old, new)
	}
	for i, r := range d.Roots {
		if r == old {
			d.Roots[i] = new
		}
	}
}

// FoldConstants evaluates binary and unary operations whose inputs are all
// numeric literals.
func FoldConstants(d *DAG) {
	changed := true
	for changed {
		changed = false
		for _, h := range d.Nodes() {
			switch h.Kind {
			case KindBinary:
				if len(h.Inputs) == 2 && h.Inputs[0].IsLiteralNumber() && h.Inputs[1].IsLiteralNumber() {
					v, ok := EvalBinary(h.Op, h.Inputs[0].LitValue, h.Inputs[1].LitValue)
					if ok {
						var lit *Hop
						if isBooleanOp(h.Op) {
							lit = NewLiteralBool(v != 0)
						} else {
							lit = NewLiteralNumber(v)
						}
						replaceEverywhere(d, h, lit)
						changed = true
					}
				}
			case KindUnary:
				if len(h.Inputs) == 1 && h.Inputs[0].IsLiteralNumber() && h.DataType == types.Scalar {
					v, ok := EvalUnary(h.Op, h.Inputs[0].LitValue)
					if ok {
						lit := NewLiteralNumber(v)
						replaceEverywhere(d, h, lit)
						changed = true
					}
				}
			}
		}
	}
}

// EvalBinary evaluates a scalar binary operator over two numbers (a boolean
// result is 1 or 0); false for an operator it does not fold.
func EvalBinary(op string, a, b float64) (float64, bool) {
	switch op {
	case "+":
		return a + b, true
	case "-":
		return a - b, true
	case "*":
		return a * b, true
	case "/":
		return a / b, true
	case "^":
		return math.Pow(a, b), true
	case "%%":
		return math.Mod(a, b), true
	case "%/%":
		return math.Floor(a / b), true
	case "==":
		return b2f(a == b), true
	case "!=":
		return b2f(a != b), true
	case "<":
		return b2f(a < b), true
	case "<=":
		return b2f(a <= b), true
	case ">":
		return b2f(a > b), true
	case ">=":
		return b2f(a >= b), true
	case "&":
		return b2f(a != 0 && b != 0), true
	case "|":
		return b2f(a != 0 || b != 0), true
	case "min":
		return math.Min(a, b), true
	case "max":
		return math.Max(a, b), true
	default:
		return 0, false
	}
}

// EvalUnary evaluates a scalar unary operator ("-", "!" and the math
// builtins); false for an operator it does not fold.
func EvalUnary(op string, a float64) (float64, bool) {
	switch op {
	case "-":
		return -a, true
	case "!":
		return b2f(a == 0), true
	case "abs":
		return math.Abs(a), true
	case "sqrt":
		return math.Sqrt(a), true
	case "exp":
		return math.Exp(a), true
	case "log":
		return math.Log(a), true
	case "round":
		return math.Round(a), true
	case "floor":
		return math.Floor(a), true
	case "ceil":
		return math.Ceil(a), true
	default:
		return 0, false
	}
}

// isBooleanOp reports whether a binary operator yields a boolean result.
func isBooleanOp(op string) bool {
	switch op {
	case "==", "!=", "<", "<=", ">", ">=", "&", "|":
		return true
	default:
		return false
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// SimplifyAlgebraic applies algebraic simplifications that remove unnecessary
// operators: t(t(X)) -> X, X*1 -> X, X+0 -> X, X^1 -> X, 1*X -> X,
// -(-X) -> X.
func SimplifyAlgebraic(d *DAG) {
	changed := true
	for changed {
		changed = false
		for _, h := range d.Nodes() {
			switch {
			// t(t(X)) -> X
			case h.Kind == KindReorg && h.Op == "t" &&
				len(h.Inputs) == 1 && h.Inputs[0].Kind == KindReorg && h.Inputs[0].Op == "t":
				replaceEverywhere(d, h, h.Inputs[0].Inputs[0])
				changed = true
			// -(-X) -> X
			case h.Kind == KindUnary && h.Op == "-" &&
				len(h.Inputs) == 1 && h.Inputs[0].Kind == KindUnary && h.Inputs[0].Op == "-":
				replaceEverywhere(d, h, h.Inputs[0].Inputs[0])
				changed = true
			// X*1, 1*X, X+0, 0+X, X-0, X/1, X^1
			case h.Kind == KindBinary && len(h.Inputs) == 2:
				a, b := h.Inputs[0], h.Inputs[1]
				switch {
				case h.Op == "*" && b.IsLiteralNumber() && b.LitValue == 1 && !a.IsScalar():
					replaceEverywhere(d, h, a)
					changed = true
				case h.Op == "*" && a.IsLiteralNumber() && a.LitValue == 1 && !b.IsScalar():
					replaceEverywhere(d, h, b)
					changed = true
				case (h.Op == "+" || h.Op == "-") && b.IsLiteralNumber() && b.LitValue == 0 && !a.IsScalar():
					replaceEverywhere(d, h, a)
					changed = true
				case h.Op == "+" && a.IsLiteralNumber() && a.LitValue == 0 && !b.IsScalar():
					replaceEverywhere(d, h, b)
					changed = true
				case (h.Op == "/" || h.Op == "^") && b.IsLiteralNumber() && b.LitValue == 1 && !a.IsScalar():
					replaceEverywhere(d, h, a)
					changed = true
				}
			}
		}
	}
}

// FuseTranspose rewrites t(X) %*% X into the fused TSMM operator, avoiding
// the materialized transpose TensorFlow pays for in Figure 5. The general
// t(X) %*% Y is left alone here: the fusion pass (fuse.go) turns it into the
// xty variant of KindMMChain once sizes and the planner's dist gate are
// known.
func FuseTranspose(d *DAG) {
	for _, h := range d.Nodes() {
		if h.Kind != KindMatMult || len(h.Inputs) != 2 {
			continue
		}
		left, right := h.Inputs[0], h.Inputs[1]
		if left.Kind == KindReorg && left.Op == "t" && len(left.Inputs) == 1 && left.Inputs[0] == right {
			// t(X) %*% X  ->  tsmm(X)
			h.Kind = KindTSMM
			h.Op = "tsmm"
			h.Inputs = []*Hop{right}
		}
	}
}

// EliminateCommonSubexpressions merges structurally identical operations so
// they are computed once per DAG (the TF-G behaviour in Figure 5, applied to
// every DAG).
func EliminateCommonSubexpressions(d *DAG) {
	changed := true
	for changed {
		changed = false
		seen := map[string]*Hop{}
		for _, h := range d.Nodes() {
			if h.Kind == KindWrite || h.Kind == KindFunctionCall || h.Kind == KindDataGen ||
				h.Kind == KindParamBuiltin || h.Kind == KindLeftIndex {
				// side effects and non-determinism are never merged; datagen
				// nodes carry generated seeds (non-determinism, Section 3.1)
				continue
			}
			sig := h.signature()
			if prev, ok := seen[sig]; ok && prev != h {
				replaceEverywhere(d, h, prev)
				changed = true
				continue
			}
			seen[sig] = h
		}
	}
}

// CountKind returns the number of DAG nodes of the given kind (used by tests
// and by the reuse statistics).
func (d *DAG) CountKind(k Kind) int {
	n := 0
	for _, h := range d.Nodes() {
		if h.Kind == k {
			n++
		}
	}
	return n
}
