package analysis

import (
	"go/ast"
	"go/types"
)

// ThreadPlumbAnalyzer checks that kernel entry points taking a `threads`
// parameter receive the context's resolved thread count at call sites on the
// configuration path (instructions, runtime, compress, dist), not a
// hard-coded integer literal: a literal silently pins the kernel to a fixed
// parallelism no matter what the user configured. dist is allowlisted for the
// literal 1 — it runs kernels inside its own worker pool, where nested
// parallelism would oversubscribe cores (the documented inner-pool contract).
// Any other literal needs a //sysds:ok(threadplumb) justification.
var ThreadPlumbAnalyzer = &Analyzer{
	Name: "threadplumb",
	Doc: "kernel calls must plumb the context's thread count into `threads` " +
		"parameters instead of hard-coding a literal (literal 1 allowed in the dist inner pool)",
	Run: runThreadPlumb,
}

func runThreadPlumb(pass *Pass) error {
	pkg := internalName(pass.PkgPath)
	if !threadPlumbPkgs[pkg] {
		return nil
	}
	innerPool := innerPoolPkgs[pkg]
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sig := calleeSignature(pass, call)
			if sig == nil || sig.Variadic() {
				return true
			}
			params := sig.Params()
			for i := 0; i < params.Len() && i < len(call.Args); i++ {
				if params.At(i).Name() != "threads" {
					continue
				}
				lit, isLit := literalInt(call.Args[i])
				if !isLit {
					continue
				}
				if innerPool && lit == "1" {
					continue
				}
				pass.Reportf(call.Args[i].Pos(), "hard-coded threads=%s passed to %s: plumb the context's thread count (ctx.Config.Threads()) instead",
					lit, calleeName(call))
			}
			return true
		})
	}
	return nil
}

// calleeSignature resolves the static callee's signature for direct function
// and method calls; calls through function values return nil.
func calleeSignature(pass *Pass, call *ast.CallExpr) *types.Signature {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.ObjectOf(fun)
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.ObjectOf(fun.Sel)
	default:
		return nil
	}
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	sig, _ := fn.Type().(*types.Signature)
	return sig
}

func calleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			return id.Name + "." + fun.Sel.Name
		}
		return fun.Sel.Name
	}
	return "call"
}

// literalInt reports whether e is an integer literal (possibly negated),
// returning its source text.
func literalInt(e ast.Expr) (string, bool) {
	for {
		if p, ok := e.(*ast.ParenExpr); ok {
			e = p.X
			continue
		}
		break
	}
	if u, ok := e.(*ast.UnaryExpr); ok {
		if s, isLit := literalInt(u.X); isLit {
			return u.Op.String() + s, true
		}
		return "", false
	}
	if l, ok := e.(*ast.BasicLit); ok && l.Kind.String() == "INT" {
		return l.Value, true
	}
	return "", false
}
