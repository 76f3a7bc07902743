package analysis

import (
	"go/ast"
	"go/types"
)

// GoroutineErrAnalyzer flags goroutines in non-test code that drop errors,
// and goroutines started outside the one worker pool. A goroutine has no
// caller to return to, so an error result silently discarded inside one
// vanishes without trace — the spawning code keeps going as if the work
// succeeded. Two shapes are flagged everywhere:
//
//   - `go f(…)` where f returns an error: the go statement discards every
//     result by construction;
//   - inside `go func() { … }()`, a call whose error result is implicitly
//     discarded (an expression statement).
//
// The sanctioned patterns all avoid both shapes: send the error on a
// channel, store it in a captured variable, or use an errgroup-style pool.
// An explicit blank assignment (`_ = f()`) is treated as a deliberate,
// visible discard and is not flagged.
//
// In the deterministic packages and in poolPkgs every go statement is
// flagged: their concurrency runs through matrix.ParallelFor, which hands
// errors and panics back to the caller. Its own go statement carries the one
// suppression.
var GoroutineErrAnalyzer = &Analyzer{
	Name: "goroutineerr",
	Doc: "flags goroutines that drop errors: `go f()` where f returns error, or " +
		"implicitly discarded error-returning calls inside goroutine bodies; and any " +
		"go statement in a package whose concurrency must go through matrix.ParallelFor",
	Run: runGoroutineErr,
}

func runGoroutineErr(pass *Pass) error {
	pkg := internalName(pass.PkgPath)
	poolOnly := deterministicPkgs[pkg] || poolPkgs[pkg]
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if poolOnly {
				pass.Reportf(g.Pos(), "go statement in %s: run the work through matrix.ParallelFor, the one worker pool", pkg)
			}
			if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
				checkGoroutineBody(pass, lit.Body)
				return true
			}
			if returnsError(pass.TypesInfo.TypeOf(g.Call.Fun)) {
				pass.Reportf(g.Pos(), "goroutine drops the error returned by %s: capture it (channel, errgroup, or captured variable)", calleeName(g.Call))
			}
			return true
		})
	}
	return nil
}

// checkGoroutineBody flags implicitly discarded error results in a goroutine
// body, including bodies of function literals nested within it (they run on
// the same goroutine unless they are themselves go statements, which the
// outer walk visits separately).
func checkGoroutineBody(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.GoStmt); ok {
			return false // nested goroutines are checked by the outer walk
		}
		stmt, ok := n.(*ast.ExprStmt)
		if !ok {
			return true
		}
		call, ok := stmt.X.(*ast.CallExpr)
		if !ok {
			return true
		}
		if returnsError(pass.TypesInfo.TypeOf(call.Fun)) {
			pass.Reportf(call.Pos(), "goroutine drops the error returned by %s: capture it (channel, errgroup, or captured variable) or discard explicitly with _ =", calleeName(call))
		}
		return true
	})
}

// returnsError reports whether a callee type has an error among its results.
func returnsError(t types.Type) bool {
	if t == nil {
		return false
	}
	sig, ok := t.Underlying().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if named, ok := res.At(i).Type().(*types.Named); ok &&
			named.Obj().Pkg() == nil && named.Obj().Name() == "error" {
			return true
		}
	}
	return false
}
