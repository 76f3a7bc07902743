package compiler

import (
	"encoding/binary"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/systemds/systemds-go/internal/lang"
	"github.com/systemds/systemds-go/internal/lineage"
	"github.com/systemds/systemds-go/internal/matrix"
)

// Function facts: what the compiler knows about a function under one binding
// of its constant arguments, computed once per (function, literal-argument
// signature) and shared by its clients — the inliner (inline.go) and the
// lowering of fcall sites, which marks a pure call for function-level reuse
// (instructions.FCallInst).
//
// The constants are the literal arguments and the literal defaults of the
// parameters left unbound. Under them, an `if` whose predicate is constant is
// replaced by the branch it takes, and an assignment to a bound name ends its
// constancy. A call is pure when, in what remains:
//   - nothing calls print, write, stop, assert or read;
//   - nothing calls rand without a seed, or sample (which takes none): each
//     of their executions draws a new seed;
//   - every user or DML-bodied function called is pure under the constants
//     its own call binds;
//   - no function is reached again while it is being analyzed (recursion).
//
// The body hash covers the function's parsed definition and, transitively,
// those of every function its body can call, under any constants: a change to
// any of them changes the hash and so every lineage item of the call.

// funcFacts is the analysis of one function under one constant binding.
type funcFacts struct {
	// flat is the body as plain single-target assignments once constant ifs
	// are folded; nil when anything else remains (a loop, an if that does not
	// fold, an expression statement, a multi-target assignment).
	flat []*lang.AssignStmt
	pure bool
}

// impureBuiltins are the native builtins with an effect beyond their result.
var impureBuiltins = map[string]bool{
	"print": true, "write": true, "stop": true, "assert": true, "read": true,
}

// factsOf returns the facts of def under consts, from the memo when this
// signature was analyzed before. A function already under analysis is
// recursion: impure, and not memoized.
func (c *Compiler) factsOf(def *lang.FunctionDef, consts map[string]lang.Expr) *funcFacts {
	key := factsKey(def.Name, consts)
	if f, ok := c.facts[key]; ok {
		return f
	}
	if c.analyzing[def.Name] {
		return &funcFacts{}
	}
	c.analyzing[def.Name] = true
	w := factWalk{c: c, pure: true, straight: true}
	w.block(def.Body, cloneConsts(consts), true)
	delete(c.analyzing, def.Name)
	f := &funcFacts{pure: w.pure}
	if w.straight {
		f.flat = w.flat
		if f.flat == nil {
			f.flat = []*lang.AssignStmt{}
		}
	}
	c.facts[key] = f
	return f
}

// callFacts returns the facts of the function call binds under the constants
// it passes: literal arguments, caller constants passed on, and literal
// defaults; nil when the callee is not a user or DML-bodied function or the
// call does not bind its parameters exactly.
func (c *Compiler) callFacts(call *lang.CallExpr, callerConsts map[string]lang.Expr) (*lang.FunctionDef, *funcFacts) {
	def := c.def(call.Name)
	if def == nil {
		return nil, nil
	}
	args, ok := bindArgs(def, call)
	if !ok {
		return def, nil
	}
	consts := map[string]lang.Expr{}
	for name, a := range args {
		if id, isIdent := a.(*lang.Ident); isIdent {
			if v, bound := callerConsts[id.Name]; bound {
				a = v
			}
		}
		if isLiteral(a) {
			consts[name] = a
		}
	}
	return def, c.factsOf(def, consts)
}

// factsKey renders (function, constant signature) with the constants in
// parameter-name order.
func factsKey(name string, consts map[string]lang.Expr) string {
	var sb strings.Builder
	sb.WriteString(name)
	for _, p := range sortedNames(consts) {
		sb.WriteByte(0)
		sb.WriteString(p)
		sb.WriteByte('=')
		sb.WriteString(literalKey(consts[p]))
	}
	return sb.String()
}

// literalKey renders a literal with its type and exact bits.
func literalKey(e lang.Expr) string {
	switch v := e.(type) {
	case *lang.NumLit:
		kind := "d"
		if v.IsInt {
			kind = "i"
		}
		return kind + strconv.FormatUint(math.Float64bits(v.Value), 16)
	case *lang.StrLit:
		return "s" + strconv.Quote(v.Value)
	case *lang.BoolLit:
		return "b" + strconv.FormatBool(v.Value)
	case *lang.UnaryExpr:
		return "-" + literalKey(v.Operand)
	}
	return "?"
}

// factWalk walks one body under its constants. straight stays true while
// every statement walked so far was a single-target assignment outside any
// loop or unfolded if; flat collects those assignments.
type factWalk struct {
	c        *Compiler
	pure     bool
	straight bool
	flat     []*lang.AssignStmt
}

// block walks stmts; onPath says they run unconditionally once the body
// does (the body itself and the branches constant ifs take).
func (w *factWalk) block(stmts []lang.Statement, consts map[string]lang.Expr, onPath bool) {
	for _, s := range stmts {
		switch v := s.(type) {
		case *lang.AssignStmt:
			w.expr(v.Value, consts)
			for _, t := range v.Targets {
				w.indexRange(t.Rows, consts)
				w.indexRange(t.Cols, consts)
			}
			if onPath && len(v.Targets) == 1 {
				w.flat = append(w.flat, v)
			} else {
				w.straight = false
			}
			for _, t := range v.Targets {
				delete(consts, t.Name)
			}
		case *lang.ExprStmt:
			w.straight = false
			w.expr(v.Value, consts)
		case *lang.IfStmt:
			if cond, ok := constEval(v.Cond, consts); ok {
				branch := v.Else
				if cond != 0 {
					branch = v.Then
				}
				w.block(branch, consts, onPath)
				continue
			}
			w.straight = false
			w.expr(v.Cond, consts)
			// either branch may run: each starts from the constants, and
			// what either writes is constant no more
			w.block(v.Then, cloneConsts(consts), false)
			w.block(v.Else, cloneConsts(consts), false)
			deleteWrites(consts, s)
		case *lang.ForStmt:
			w.straight = false
			w.expr(v.Iterable, consts)
			deleteWrites(consts, s) // a loop-carried write is not constant on any trip
			w.block(v.Body, consts, false)
		case *lang.WhileStmt:
			w.straight = false
			deleteWrites(consts, s)
			w.expr(v.Cond, consts)
			w.block(v.Body, consts, false)
		default:
			w.straight, w.pure = false, false
		}
	}
}

func cloneConsts(consts map[string]lang.Expr) map[string]lang.Expr {
	out := make(map[string]lang.Expr, len(consts))
	for k, v := range consts {
		out[k] = v
	}
	return out
}

func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

func deleteWrites(consts map[string]lang.Expr, s lang.Statement) {
	for name := range lang.StatementWrites(s) {
		delete(consts, name)
	}
}

// expr clears pure on any call in e that breaks the rule above.
func (w *factWalk) expr(e lang.Expr, consts map[string]lang.Expr) {
	switch v := e.(type) {
	case *lang.BinaryExpr:
		w.expr(v.Left, consts)
		w.expr(v.Right, consts)
	case *lang.UnaryExpr:
		w.expr(v.Operand, consts)
	case *lang.RangeExpr:
		w.expr(v.From, consts)
		w.expr(v.To, consts)
	case *lang.IndexExpr:
		w.expr(v.Target, consts)
		w.indexRange(v.Rows, consts)
		w.indexRange(v.Cols, consts)
	case *lang.CallExpr:
		for _, a := range v.Args {
			w.expr(a.Value, consts)
		}
		switch {
		case impureBuiltins[v.Name], v.Name == "sample":
			w.pure = false
		case v.Name == "rand" && !hasArg(v, "seed"):
			w.pure = false
		}
		if w.c.isUserOrDMLFunction(v.Name) {
			if _, f := w.c.callFacts(v, consts); f == nil || !f.pure {
				w.pure = false
			}
		}
	}
}

func (w *factWalk) indexRange(r *lang.IndexRange, consts map[string]lang.Expr) {
	if r != nil {
		w.expr(r.Lower, consts)
		w.expr(r.Upper, consts)
	}
}

func hasArg(call *lang.CallExpr, name string) bool {
	for _, a := range call.Args {
		if a.Name == name {
			return true
		}
	}
	return false
}

// pureCallHash reports whether call is pure under the literal arguments and
// defaults it binds, and if so the body hash of its callee.
func (c *Compiler) pureCallHash(call *lang.CallExpr) (string, bool) {
	_, f := c.callFacts(call, nil)
	if f == nil || !f.pure {
		return "", false
	}
	return c.bodyHash(call.Name), true
}

// bodyHash is the 64-bit content hash (lineage.ContentHash), in hex, of the
// encoded definition of the function name followed by those of every
// function reachable from its body, in name order.
func (c *Compiler) bodyHash(name string) string {
	if h, ok := c.hashes[name]; ok {
		return h
	}
	codes := map[string][]byte{}
	c.encodeReachable(name, codes)
	sum := lineage.NewContentHash()
	sum.Write(codes[name])
	for _, callee := range sortedNames(codes) {
		if callee != name {
			sum.Write(codes[callee])
		}
	}
	h := strconv.FormatUint(sum.Sum64(), 16)
	c.hashes[name] = h
	return h
}

// encodeReachable encodes the definition of name and of every user or
// DML-bodied function its body can call to reach.
func (c *Compiler) encodeReachable(name string, codes map[string][]byte) {
	def := c.def(name)
	if def == nil || codes[name] != nil {
		return
	}
	enc := astEncoder{calls: map[string]bool{}}
	enc.def(def)
	codes[name] = enc.buf
	for _, callee := range sortedNames(enc.calls) {
		if c.isUserOrDMLFunction(callee) {
			c.encodeReachable(callee, codes)
		}
	}
}

// astEncoder writes a canonical, line-number-free encoding of parsed
// definitions: every node is a tag followed by its fields, strings are
// length-prefixed and numbers are their exact bits. calls collects the names
// of the functions called.
type astEncoder struct {
	buf   []byte
	calls map[string]bool
}

func (a *astEncoder) tag(t byte)   { a.buf = append(a.buf, t) }
func (a *astEncoder) num(n int)    { a.buf = binary.AppendUvarint(a.buf, uint64(n)) }
func (a *astEncoder) str(s string) { a.num(len(s)); a.buf = append(a.buf, s...) }

func (a *astEncoder) def(d *lang.FunctionDef) {
	a.tag('F')
	a.str(d.Name)
	for _, ps := range [][]lang.Param{d.Params, d.Returns} {
		a.num(len(ps))
		for _, p := range ps {
			a.str(p.Name)
			a.num(int(p.DataType))
			a.num(int(p.ValueType))
			a.expr(p.Default)
		}
	}
	a.stmts(d.Body)
}

func (a *astEncoder) stmts(ss []lang.Statement) {
	a.num(len(ss))
	for _, s := range ss {
		switch v := s.(type) {
		case *lang.AssignStmt:
			a.tag('=')
			a.num(len(v.Targets))
			for _, t := range v.Targets {
				a.str(t.Name)
				if t.Indexed {
					a.tag('[')
					a.indexRange(t.Rows)
					a.indexRange(t.Cols)
				} else {
					a.tag('.')
				}
			}
			a.expr(v.Value)
		case *lang.ExprStmt:
			a.tag('e')
			a.expr(v.Value)
		case *lang.IfStmt:
			a.tag('?')
			a.expr(v.Cond)
			a.stmts(v.Then)
			a.stmts(v.Else)
		case *lang.ForStmt:
			a.tag('f')
			if v.Parallel {
				a.tag('p')
			}
			a.str(v.Var)
			a.expr(v.Iterable)
			a.stmts(v.Body)
		case *lang.WhileStmt:
			a.tag('w')
			a.expr(v.Cond)
			a.stmts(v.Body)
		}
	}
}

func (a *astEncoder) indexRange(r *lang.IndexRange) {
	switch {
	case r == nil:
		a.tag('_')
	case r.All:
		a.tag('*')
	default:
		a.tag(':')
		a.expr(r.Lower)
		a.expr(r.Upper)
	}
}

func (a *astEncoder) expr(e lang.Expr) {
	switch v := e.(type) {
	case nil:
		a.tag(0)
	case *lang.Ident:
		a.tag('v')
		a.str(v.Name)
	case *lang.NumLit:
		a.tag('n')
		if v.IsInt {
			a.tag('i')
		}
		a.buf = binary.LittleEndian.AppendUint64(a.buf, math.Float64bits(v.Value))
	case *lang.StrLit:
		a.tag('s')
		a.str(v.Value)
	case *lang.BoolLit:
		a.tag('b')
		if v.Value {
			a.tag(1)
		} else {
			a.tag(0)
		}
	case *lang.BinaryExpr:
		a.tag('2')
		a.str(v.Op)
		a.expr(v.Left)
		a.expr(v.Right)
	case *lang.UnaryExpr:
		a.tag('1')
		a.str(v.Op)
		a.expr(v.Operand)
	case *lang.RangeExpr:
		a.tag('r')
		a.expr(v.From)
		a.expr(v.To)
	case *lang.IndexExpr:
		a.tag('x')
		a.expr(v.Target)
		a.indexRange(v.Rows)
		a.indexRange(v.Cols)
	case *lang.CallExpr:
		a.tag('c')
		a.str(v.Name)
		a.calls[v.Name] = true
		a.num(len(v.Args))
		for _, arg := range v.Args {
			a.str(arg.Name)
			a.expr(arg.Value)
		}
	default:
		a.tag('!')
		a.str(e.String())
	}
}

// constEval evaluates a numeric or boolean expression (TRUE is 1) that
// depends on literals and constant bindings alone, through the runtime's own
// operator table; a predicate's truth is non-zero, as runtime.Scalar.Bool has
// it.
func constEval(e lang.Expr, consts map[string]lang.Expr) (float64, bool) {
	switch v := e.(type) {
	case *lang.NumLit:
		return v.Value, true
	case *lang.BoolLit:
		if v.Value {
			return 1, true
		}
		return 0, true
	case *lang.Ident:
		if c, ok := consts[v.Name]; ok {
			return constEval(c, consts)
		}
	case *lang.UnaryExpr:
		op, ok := matrix.UnaryOpFromString(v.Op)
		if x, xok := constEval(v.Operand, consts); ok && xok {
			return op.Apply(x), true
		}
	case *lang.BinaryExpr:
		op, ok := matrix.BinaryOpFromString(v.Op)
		l, lok := constEval(v.Left, consts)
		r, rok := constEval(v.Right, consts)
		if ok && lok && rok {
			return op.Apply(l, r), true
		}
	}
	return 0, false
}
