package compiler

import (
	"fmt"
	"strings"

	"github.com/systemds/systemds-go/internal/hops"
	"github.com/systemds/systemds-go/internal/lang"
)

// Function inlining, after SystemML's inter-procedural analysis: a call whose
// callee is one straight-line block once its literal arguments and defaults
// are bound is compiled in place of an fcall, so the call costs no child
// context, no argument binding, no if blocks and no function scope.
//
// The rule, applied per call site:
//   - every parameter is bound: a literal argument or default binds a
//     constant, anything else binds the caller's HOP for the argument;
//   - the callee's function facts under those constants (facts.go) are pure,
//     and its body folds to plain assignments (`if` statements with a
//     constant predicate replaced by the branch taken);
//   - those assignments call native builtins only, and none that is emitted
//     directly (read, eigen, transformencode, transformapply) or generates
//     (rand, sample: a generator is seeded once per compiled call, which an
//     inlined copy per call site would change); every name read is assigned
//     first or a parameter, every return assigned or a parameter;
//   - the call assigns plain (not indexed) targets, at most one per return.
//
// An inlined call is a basic block of its own (compileStatements): its plan
// depends on its arguments alone, so it is re-planned when they change — as
// the function body was — and not every time the caller's block is, which a
// loop body that grows a left-indexed result does on every trip. Callee names
// live under the inlineScope prefix while the body is built and are dropped
// before the DAG is flushed; the returns bind to the call's targets. Every
// instruction reads the same operands, with the same lineage items, as it did
// inside the function: a parameter is a caller variable (traced by its
// producer) or a literal of the argument's own value type, just as the fcall
// binds it, so reuse keys do not move.

// inlineScope prefixes the names of an inlined body while it is built: no DML
// identifier contains '#', so they can never meet a caller's variable.
const inlineScope = "inl#"

// nonInlinable lists the native builtins an inlined body may not call beyond
// the impure ones: the direct-emission calls that flush the DAG, and the
// generators.
var nonInlinable = map[string]bool{
	"read": true, "eigen": true, "transformencode": true, "transformapply": true,
	"rand": true, "sample": true,
}

// inlined is a call that qualifies: the callee, the argument expression of
// every parameter, and the assignments the body folds to.
type inlined struct {
	def  *lang.FunctionDef
	args map[string]lang.Expr
	body []*lang.AssignStmt
}

// inlinable reports how s = f(...) inlines, or nil when it does not qualify
// (see above).
func (c *Compiler) inlinable(s *lang.AssignStmt) *inlined {
	call, ok := s.Value.(*lang.CallExpr)
	if !ok || len(s.Targets) == 0 {
		return nil
	}
	def, f := c.callFacts(call, nil)
	if f == nil || !f.pure || f.flat == nil || len(s.Targets) > len(def.Returns) {
		return nil
	}
	for _, t := range s.Targets {
		if t.Indexed {
			return nil
		}
	}
	for _, st := range f.flat {
		t := st.Targets[0]
		if !c.plainExpr(st.Value) || t.Indexed && !(c.plainRange(t.Rows) && c.plainRange(t.Cols)) {
			return nil
		}
	}
	if !definedBeforeUse(def, f.flat) {
		return nil
	}
	args, _ := bindArgs(def, call)
	return &inlined{def: def, args: args, body: f.flat}
}

// def returns the definition of a user or DML-bodied function, parsing a
// builtin's script (without compiling it) on first use; nil for anything
// else.
func (c *Compiler) def(name string) *lang.FunctionDef {
	if d, ok := c.defs[name]; ok || c.registry == nil {
		return d
	}
	src, ok := c.registry.Source(name)
	if !ok {
		return nil
	}
	parsed, err := lang.Parse(src)
	if err != nil {
		return nil
	}
	for fnName, fn := range parsed.Functions {
		if _, ok := c.defs[fnName]; !ok {
			c.defs[fnName] = fn
		}
	}
	return c.defs[name]
}

// inlineCall compiles s = call(...) into the block's DAG when the callee
// qualifies and reports whether it did.
func (bb *blockBuilder) inlineCall(s *lang.AssignStmt, call *lang.CallExpr) (bool, error) {
	in := bb.c.inlinable(s)
	if in == nil {
		return false, nil
	}
	// bind the parameters in the caller's scope, then build the body in the
	// callee's
	for _, p := range in.def.Params {
		h, err := bb.argHop(in.args[p.Name])
		if err != nil {
			return false, err
		}
		bb.varMap[inlineScope+p.Name] = h
	}
	bb.scope = inlineScope
	for _, st := range in.body {
		if err := bb.processAssign(st); err != nil {
			bb.scope = ""
			return false, fmt.Errorf("in function %s: %w", call.Name, err)
		}
	}
	bb.scope = ""
	results := make([]*hops.Hop, len(s.Targets))
	for i := range s.Targets {
		results[i] = bb.varMap[inlineScope+in.def.Returns[i].Name]
	}
	for name := range bb.varMap {
		if strings.HasPrefix(name, inlineScope) {
			delete(bb.varMap, name)
		}
	}
	for i, t := range s.Targets {
		bb.varMap[t.Name] = results[i]
	}
	return true, nil
}

// bindArgs maps every parameter of def to its argument expression, or to its
// default; false when the call does not bind the parameters exactly (the
// fcall then reports the error at runtime, as before).
func bindArgs(def *lang.FunctionDef, call *lang.CallExpr) (map[string]lang.Expr, bool) {
	args := map[string]lang.Expr{}
	pos := 0
	for _, a := range call.Args {
		name := a.Name
		if name == "" {
			if pos >= len(def.Params) {
				return nil, false
			}
			name = def.Params[pos].Name
			pos++
		}
		if _, dup := args[name]; dup {
			return nil, false
		}
		args[name] = a.Value
	}
	if len(args) > len(def.Params) {
		return nil, false
	}
	for _, p := range def.Params {
		if _, ok := args[p.Name]; ok {
			continue
		}
		if p.Default == nil || !isLiteral(p.Default) {
			return nil, false
		}
		args[p.Name] = p.Default
	}
	return args, len(args) == len(def.Params)
}

// isLiteral reports whether e is a literal constant: a number (negated or
// not), a string or a boolean.
func isLiteral(e lang.Expr) bool {
	switch v := e.(type) {
	case *lang.NumLit, *lang.StrLit, *lang.BoolLit:
		return true
	case *lang.UnaryExpr:
		_, num := v.Operand.(*lang.NumLit)
		return num && v.Op == "-"
	}
	return false
}

// argHop builds the HOP a parameter is bound to in the caller's scope. A
// literal becomes a literal of the value type the fcall would bind (an
// integer stays INT64); anything else is the caller's expression.
func (bb *blockBuilder) argHop(e lang.Expr) (*hops.Hop, error) {
	if n, ok := e.(*lang.NumLit); ok && n.IsInt {
		return hops.NewLiteralInt(int64(n.Value)), nil
	}
	return bb.buildExpr(e)
}

// plainExpr reports whether every call in e is a native builtin an inlined
// body may make.
func (c *Compiler) plainExpr(e lang.Expr) bool {
	switch v := e.(type) {
	case *lang.BinaryExpr:
		return c.plainExpr(v.Left) && c.plainExpr(v.Right)
	case *lang.UnaryExpr:
		return c.plainExpr(v.Operand)
	case *lang.RangeExpr:
		return c.plainExpr(v.From) && c.plainExpr(v.To)
	case *lang.IndexExpr:
		return c.plainExpr(v.Target) && c.plainRange(v.Rows) && c.plainRange(v.Cols)
	case *lang.CallExpr:
		if !isNativeBuiltin(v.Name) || nonInlinable[v.Name] || c.isUserOrDMLFunction(v.Name) {
			return false
		}
		for _, a := range v.Args {
			if !c.plainExpr(a.Value) {
				return false
			}
		}
	}
	return true
}

func (c *Compiler) plainRange(r *lang.IndexRange) bool {
	return r == nil || (c.plainExpr(r.Lower) && c.plainExpr(r.Upper))
}

// definedBeforeUse reports whether every name the flattened body reads is a
// parameter or assigned earlier, and every return is one or the other: what
// the fcall would otherwise fail on at runtime.
func definedBeforeUse(def *lang.FunctionDef, body []*lang.AssignStmt) bool {
	defined := map[string]bool{}
	for _, p := range def.Params {
		defined[p.Name] = true
	}
	for _, s := range body {
		for name := range lang.StatementReads(s) {
			if !defined[name] {
				return false
			}
		}
		defined[s.Targets[0].Name] = true
	}
	for _, r := range def.Returns {
		if !defined[r.Name] {
			return false
		}
	}
	return true
}
