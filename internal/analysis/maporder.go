package analysis

import (
	"go/ast"
	"go/types"
)

// MapOrderAnalyzer flags `for … range` over a map in the deterministic
// packages and commands whenever the loop body is order-sensitive: it accumulates
// floating-point values, produces ordered output (append, channel sends,
// writes, printing), dispatches goroutines, returns a value selected by
// iteration order, or assigns an iteration-dependent value to a variable
// outside the loop. Go randomizes map iteration order per run, so any such
// loop breaks the bitwise-reproducibility and stable-plan contracts; the fix
// is to iterate over sorted keys. One idiom is exempt: a loop whose only
// order-sensitive effect is collecting keys/values into slices that are
// subsequently sorted in the same function — that is the sanctioned
// sorted-iteration prologue.
var MapOrderAnalyzer = &Analyzer{
	Name: "maporder",
	Doc: "flags order-sensitive iteration over maps in deterministic packages " +
		"(matrix, compress, dist, hops, runtime, lineage) and cmd/sysds; iterate over sorted keys instead",
	Run: runMapOrder,
}

func runMapOrder(pass *Pass) error {
	if !isDeterministic(pass.PkgPath) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				checkFuncMapRanges(pass, body)
			}
			return true
		})
	}
	return nil
}

// checkFuncMapRanges analyzes the map-range loops that belong directly to
// one function body (nested function literals are analyzed as their own
// functions by the caller's walk).
func checkFuncMapRanges(pass *Pass, funcBody *ast.BlockStmt) {
	walkSameFunc(funcBody, func(n ast.Node) {
		rng, ok := n.(*ast.RangeStmt)
		if !ok || !isMapRange(pass, rng) {
			return
		}
		checkMapRange(pass, funcBody, rng)
	})
}

// walkSameFunc walks the subtree without descending into nested function
// literals.
func walkSameFunc(root ast.Node, fn func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit && n != root {
			return false
		}
		if n != nil {
			fn(n)
		}
		return true
	})
}

func isMapRange(pass *Pass, rng *ast.RangeStmt) bool {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// mapRangeTrigger is one order-sensitive effect found in a loop body.
type mapRangeTrigger struct {
	node   ast.Node
	reason string
	// appendTarget is the object a key/value append writes to, when the
	// trigger is the collect-into-slice pattern (candidate for the
	// collect-then-sort exemption); nil for every other trigger kind.
	appendTarget types.Object
}

func checkMapRange(pass *Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt) {
	loopVars := map[types.Object]bool{}
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
				loopVars[obj] = true
			}
		}
	}
	triggers := collectMapRangeTriggers(pass, rng, loopVars)
	if len(triggers) == 0 {
		return
	}
	// Collect-then-sort exemption: every trigger is an append whose target
	// slice is later passed to a sort/slices call in the same function.
	allSorted := true
	for _, t := range triggers {
		if t.appendTarget == nil || !sortedAfter(pass, funcBody, rng, t.appendTarget) {
			allSorted = false
			break
		}
	}
	if allSorted {
		return
	}
	t := triggers[0]
	pass.Reportf(rng.For, "iteration over map %s is nondeterministic and the loop body %s; iterate over sorted keys instead",
		exprString(pass, rng.X), t.reason)
}

func collectMapRangeTriggers(pass *Pass, rng *ast.RangeStmt, loopVars map[types.Object]bool) []mapRangeTrigger {
	var triggers []mapRangeTrigger
	add := func(n ast.Node, reason string, target types.Object) {
		triggers = append(triggers, mapRangeTrigger{node: n, reason: reason, appendTarget: target})
	}
	walkSameFunc(rng.Body, func(n ast.Node) {
		switch s := n.(type) {
		case *ast.GoStmt:
			add(s, "dispatches goroutines in map order", nil)
		case *ast.SendStmt:
			add(s, "sends on a channel in map order", nil)
		case *ast.ReturnStmt:
			for _, res := range s.Results {
				if referencesAny(pass, res, loopVars) {
					add(s, "returns a value selected by iteration order", nil)
					return
				}
			}
		case *ast.AssignStmt:
			checkMapRangeAssign(pass, rng, s, loopVars, add)
		case *ast.CallExpr:
			checkMapRangeCall(pass, s, add)
		}
	})
	// A goroutine spawned from the body is order-sensitive dispatch even
	// though walkSameFunc does not look inside it; the GoStmt case above
	// already catches it because the statement itself is in the body.
	return triggers
}

func checkMapRangeAssign(pass *Pass, rng *ast.RangeStmt, s *ast.AssignStmt, loopVars map[types.Object]bool, add func(ast.Node, string, types.Object)) {
	// append collection: x = append(x, …) / x := append(x, …)
	if len(s.Rhs) == 1 {
		if call, ok := s.Rhs[0].(*ast.CallExpr); ok && isBuiltinAppend(pass, call) {
			var target types.Object
			if id, ok := s.Lhs[0].(*ast.Ident); ok {
				target = pass.TypesInfo.ObjectOf(id)
			}
			add(s, "appends to a slice in map order", target)
			return
		}
	}
	switch s.Tok.String() {
	case "+=", "-=", "*=", "/=":
		if isFloat(pass.TypesInfo.TypeOf(s.Lhs[0])) && declaredOutside(pass, s.Lhs[0], rng.Body) {
			add(s, "accumulates floating-point values whose rounding depends on iteration order", nil)
		}
	case "=":
		// last-writer-wins: an iteration-dependent value escaping to a
		// variable that outlives the loop (map/slice element writes keyed by
		// the loop variable are order-insensitive and stay exempt).
		for i, lhs := range s.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			if i < len(s.Rhs) && referencesAny(pass, s.Rhs[i], loopVars) &&
				declaredOutside(pass, lhs, rng.Body) && !loopVars[pass.TypesInfo.ObjectOf(id)] {
				add(s, "assigns an iteration-dependent value to a variable outside the loop (last writer wins)", nil)
				return
			}
		}
	}
}

func checkMapRangeCall(pass *Pass, call *ast.CallExpr, add func(ast.Node, string, types.Object)) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	name := sel.Sel.Name
	if pkg := pkgNameOf(pass, sel.X); pkg == "fmt" {
		if hasAnyPrefix(name, "Print", "Fprint", "Sprint", "Append") {
			add(call, "produces formatted output in map order", nil)
		}
		return
	}
	if hasAnyPrefix(name, "Write") {
		add(call, "writes output in map order", nil)
	}
}

// sortedAfter reports whether target is passed to a sort.* or slices.* call
// after the range statement in the same function body.
func sortedAfter(pass *Pass, funcBody *ast.BlockStmt, rng *ast.RangeStmt, target types.Object) bool {
	found := false
	walkSameFunc(funcBody, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() || found {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		if pkg := pkgNameOf(pass, sel.X); pkg != "sort" && pkg != "slices" {
			return
		}
		for _, arg := range call.Args {
			if referencesObject(pass, arg, target) {
				found = true
				return
			}
		}
	})
	return found
}

func isBuiltinAppend(pass *Pass, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	_, isBuiltin := pass.TypesInfo.ObjectOf(id).(*types.Builtin)
	return isBuiltin && id.Name == "append"
}

func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// declaredOutside reports whether the root object of an lvalue is declared
// outside the given block (selector and index expressions are resolved to
// their base; unknown shapes are conservatively treated as external).
func declaredOutside(pass *Pass, lhs ast.Expr, block *ast.BlockStmt) bool {
	for {
		switch e := lhs.(type) {
		case *ast.Ident:
			obj := pass.TypesInfo.ObjectOf(e)
			if obj == nil {
				return true
			}
			return obj.Pos() < block.Pos() || obj.Pos() > block.End()
		case *ast.SelectorExpr:
			lhs = e.X
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.StarExpr:
			lhs = e.X
		case *ast.ParenExpr:
			lhs = e.X
		default:
			return true
		}
	}
}

func referencesAny(pass *Pass, e ast.Expr, objs map[types.Object]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && objs[pass.TypesInfo.ObjectOf(id)] {
			found = true
		}
		return !found
	})
	return found
}

func referencesObject(pass *Pass, e ast.Expr, obj types.Object) bool {
	return referencesAny(pass, e, map[types.Object]bool{obj: true})
}

// pkgNameOf returns the imported package path when e is a package qualifier
// ident, or "".
func pkgNameOf(pass *Pass, e ast.Expr) string {
	id, ok := e.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := pass.TypesInfo.ObjectOf(id).(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

func hasAnyPrefix(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if len(s) >= len(p) && s[:len(p)] == p {
			return true
		}
	}
	return false
}

func exprString(pass *Pass, e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	if sel, ok := e.(*ast.SelectorExpr); ok {
		return exprString(pass, sel.X) + "." + sel.Sel.Name
	}
	return "expression"
}
