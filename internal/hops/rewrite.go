package hops

import "github.com/systemds/systemds-go/internal/matrix"

// Rewrite applies the static HOP rewrites SystemDS runs before operator
// ordering and selection, in one post-order walk over the DAG. Each node first
// has every input and parameter replaced by its representative, then gets, in
// this order: constant folding, algebraic simplification, the t(X)%*%X -> tsmm
// rewrite, and common subexpression elimination against the signatures seen
// so far. Inputs are rewritten before their consumers, so no rule can enable
// another on a node already visited, and one pass reaches the fixpoint.
func Rewrite(d *DAG) {
	rep := map[*Hop]*Hop{}
	seen := map[string]*Hop{}
	unique := func(h *Hop) *Hop {
		if h.Kind == KindWrite || h.Kind == KindFunctionCall || h.Kind == KindDataGen ||
			h.Kind == KindParamBuiltin || h.Kind == KindLeftIndex {
			// side effects and non-determinism are never merged: an
			// unseeded datagen node draws a new seed on every execution
			// (non-determinism, Section 3.1)
			return h
		}
		sig := h.signature()
		if prev, ok := seen[sig]; ok {
			return prev
		}
		seen[sig] = h
		return h
	}
	for _, h := range d.Nodes() {
		for i, in := range h.Inputs {
			if r, ok := rep[in]; ok {
				h.Inputs[i] = r
			}
		}
		for k, p := range h.Params {
			if r, ok := rep[p]; ok {
				h.Params[k] = r
			}
		}
		var r *Hop
		if lit := fold(h); lit != nil {
			r = unique(lit)
		} else if x := simplify(h); x != nil {
			r = x // an input's input: already a representative
		} else {
			fuseTSMM(h)
			r = unique(h)
		}
		if r != h {
			rep[h] = r
		}
	}
	for i, root := range d.Roots {
		if r, ok := rep[root]; ok {
			d.Roots[i] = r
		}
	}
}

// fold evaluates a binary or unary operation over numeric literals with the
// runtime's own scalar definition (matrix.BinaryOp / UnaryOp), so a folded
// literal has the bits and the value type the instruction would produce; nil
// when h does not fold.
func fold(h *Hop) *Hop {
	switch {
	case h.Kind == KindBinary && len(h.Inputs) == 2 &&
		h.Inputs[0].IsLiteralNumber() && h.Inputs[1].IsLiteralNumber():
		if op, ok := matrix.BinaryOpFromString(h.Op); ok {
			return literalOf(op.Apply(h.Inputs[0].LitValue, h.Inputs[1].LitValue), op.Boolean())
		}
	case h.Kind == KindUnary && len(h.Inputs) == 1 && h.Inputs[0].IsLiteralNumber() && h.IsScalar():
		if op, ok := matrix.UnaryOpFromString(h.Op); ok {
			return literalOf(op.Apply(h.Inputs[0].LitValue), op.Boolean())
		}
	}
	return nil
}

func literalOf(v float64, boolean bool) *Hop {
	if boolean {
		return NewLiteralBool(v != 0)
	}
	return NewLiteralNumber(v)
}

// isNeg reports whether h is a unary minus, however it is spelled (the
// compiler's uminus, the operator table's -).
func isNeg(h *Hop) bool {
	op, ok := matrix.UnaryOpFromString(h.Op)
	return h.Kind == KindUnary && len(h.Inputs) == 1 && ok && op == matrix.OpNeg
}

// simplify removes an operator that does not change its operand:
// t(t(X)) -> X, -(-X) -> X, and X*1, 1*X, X+0, 0+X, X-0, X/1, X^1 -> X for a
// non-scalar X; nil when no rule applies.
func simplify(h *Hop) *Hop {
	switch {
	case h.Kind == KindReorg && h.Op == "t" &&
		len(h.Inputs) == 1 && h.Inputs[0].Kind == KindReorg && h.Inputs[0].Op == "t":
		return h.Inputs[0].Inputs[0]
	case isNeg(h) && isNeg(h.Inputs[0]):
		return h.Inputs[0].Inputs[0]
	case h.Kind == KindBinary && len(h.Inputs) == 2:
		a, b := h.Inputs[0], h.Inputs[1]
		isLit := func(x *Hop, v float64) bool { return x.IsLiteralNumber() && x.LitValue == v }
		switch {
		case h.Op == "*" && isLit(b, 1) && !a.IsScalar(),
			(h.Op == "+" || h.Op == "-") && isLit(b, 0) && !a.IsScalar(),
			(h.Op == "/" || h.Op == "^") && isLit(b, 1) && !a.IsScalar():
			return a
		case h.Op == "*" && isLit(a, 1) && !b.IsScalar(),
			h.Op == "+" && isLit(a, 0) && !b.IsScalar():
			return b
		}
	}
	return nil
}

// fuseTSMM rewrites t(X) %*% X in place into the fused TSMM operator, avoiding
// the materialized transpose TensorFlow pays for in Figure 5. The general
// t(X) %*% Y is left alone here: the fusion pass (fuse.go) turns it into the
// xty variant of KindMMChain once sizes and the planner's dist gate are known.
func fuseTSMM(h *Hop) {
	if h.Kind != KindMatMult || len(h.Inputs) != 2 {
		return
	}
	left, right := h.Inputs[0], h.Inputs[1]
	if left.Kind == KindReorg && left.Op == "t" && len(left.Inputs) == 1 && left.Inputs[0] == right {
		h.Kind = KindTSMM
		h.Op = "tsmm"
		h.Inputs = []*Hop{right}
	}
}
