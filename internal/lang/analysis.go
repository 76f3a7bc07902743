package lang

import (
	"fmt"
	"sort"
)

// CollectReads returns the names of variables read by an expression.
func CollectReads(e Expr, into map[string]bool) {
	switch v := e.(type) {
	case nil:
		return
	case *Ident:
		into[v.Name] = true
	case *BinaryExpr:
		CollectReads(v.Left, into)
		CollectReads(v.Right, into)
	case *UnaryExpr:
		CollectReads(v.Operand, into)
	case *RangeExpr:
		CollectReads(v.From, into)
		CollectReads(v.To, into)
	case *CallExpr:
		for _, a := range v.Args {
			CollectReads(a.Value, into)
		}
	case *IndexExpr:
		CollectReads(v.Target, into)
		collectRangeReads(v.Rows, into)
		collectRangeReads(v.Cols, into)
	}
}

func collectRangeReads(r *IndexRange, into map[string]bool) {
	if r == nil {
		return
	}
	if r.Lower != nil {
		CollectReads(r.Lower, into)
	}
	if r.Upper != nil {
		CollectReads(r.Upper, into)
	}
}

// StatementReads returns the variables read by a statement (including reads
// in nested blocks).
func StatementReads(s Statement) map[string]bool {
	reads := map[string]bool{}
	statementReads(s, reads)
	return reads
}

// AddStatementReads adds the variables read by a statement (including reads
// in nested blocks) to reads.
func AddStatementReads(s Statement, reads map[string]bool) {
	statementReads(s, reads)
}

func statementReads(s Statement, reads map[string]bool) {
	switch v := s.(type) {
	case *AssignStmt:
		CollectReads(v.Value, reads)
		for _, t := range v.Targets {
			if t.Indexed {
				// left indexing reads the previous value of the target
				reads[t.Name] = true
				collectRangeReads(t.Rows, reads)
				collectRangeReads(t.Cols, reads)
			}
		}
	case *ExprStmt:
		CollectReads(v.Value, reads)
	case *IfStmt:
		CollectReads(v.Cond, reads)
		for _, st := range v.Then {
			statementReads(st, reads)
		}
		for _, st := range v.Else {
			statementReads(st, reads)
		}
	case *ForStmt:
		CollectReads(v.Iterable, reads)
		for _, st := range v.Body {
			statementReads(st, reads)
		}
	case *WhileStmt:
		CollectReads(v.Cond, reads)
		for _, st := range v.Body {
			statementReads(st, reads)
		}
	}
}

// StatementWrites returns the variables written by a statement (including
// writes in nested blocks).
func StatementWrites(s Statement) map[string]bool {
	writes := map[string]bool{}
	statementWrites(s, writes)
	return writes
}

func statementWrites(s Statement, writes map[string]bool) {
	statementTargets(s, func(name string, _ bool) { writes[name] = true })
}

// statementTargets calls f for every variable a statement assigns, nested
// blocks included, and says whether the assignment is a left-indexing one.
func statementTargets(s Statement, f func(name string, indexed bool)) {
	switch v := s.(type) {
	case *AssignStmt:
		for _, t := range v.Targets {
			f(t.Name, t.Indexed)
		}
	case *IfStmt:
		for _, st := range v.Then {
			statementTargets(st, f)
		}
		for _, st := range v.Else {
			statementTargets(st, f)
		}
	case *ForStmt:
		f(v.Var, false)
		for _, st := range v.Body {
			statementTargets(st, f)
		}
	case *WhileStmt:
		for _, st := range v.Body {
			statementTargets(st, f)
		}
	}
}

// BlockReads returns the sorted variables read by a block of statements.
func BlockReads(stmts []Statement) []string {
	reads := map[string]bool{}
	for _, s := range stmts {
		statementReads(s, reads)
	}
	return sortedKeys(reads)
}

// BlockWrites returns the sorted variables written by a block of statements.
func BlockWrites(stmts []Statement) []string {
	writes := map[string]bool{}
	for _, s := range stmts {
		statementWrites(s, writes)
	}
	return sortedKeys(writes)
}

// BlockIndexedWrites returns the sorted variables a block of statements
// writes only by left indexing: every assignment to them, in nested blocks
// too, has an indexed target.
func BlockIndexedWrites(stmts []Statement) []string {
	indexed, whole := map[string]bool{}, map[string]bool{}
	for _, s := range stmts {
		statementTargets(s, func(name string, ix bool) {
			if ix {
				indexed[name] = true
			} else {
				whole[name] = true
			}
		})
	}
	for name := range whole {
		delete(indexed, name)
	}
	return sortedKeys(indexed)
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Validate performs semantic checks on a parsed program: every called
// function must be either a user-defined function or a known builtin, and
// multi-assignments must take their values from function calls.
func Validate(prog *Program, isBuiltin func(string) bool) error {
	var errs []error
	checkCall := func(name string, line int) {
		if _, ok := prog.Functions[name]; ok {
			return
		}
		if isBuiltin != nil && isBuiltin(name) {
			return
		}
		errs = append(errs, fmt.Errorf("lang: line %d: call to undefined function %q", line, name))
	}
	var walkExpr func(e Expr)
	walkExpr = func(e Expr) {
		switch v := e.(type) {
		case *CallExpr:
			checkCall(v.Name, v.Line)
			for _, a := range v.Args {
				walkExpr(a.Value)
			}
		case *BinaryExpr:
			walkExpr(v.Left)
			walkExpr(v.Right)
		case *UnaryExpr:
			walkExpr(v.Operand)
		case *RangeExpr:
			walkExpr(v.From)
			walkExpr(v.To)
		case *IndexExpr:
			walkExpr(v.Target)
			if v.Rows != nil {
				if v.Rows.Lower != nil {
					walkExpr(v.Rows.Lower)
				}
				if v.Rows.Upper != nil {
					walkExpr(v.Rows.Upper)
				}
			}
			if v.Cols != nil {
				if v.Cols.Lower != nil {
					walkExpr(v.Cols.Lower)
				}
				if v.Cols.Upper != nil {
					walkExpr(v.Cols.Upper)
				}
			}
		}
	}
	var walkStmts func(stmts []Statement)
	walkStmts = func(stmts []Statement) {
		for _, s := range stmts {
			switch v := s.(type) {
			case *AssignStmt:
				if len(v.Targets) > 1 {
					if _, ok := v.Value.(*CallExpr); !ok {
						errs = append(errs, fmt.Errorf("lang: line %d: multi-assignment requires a function call on the right-hand side", v.Line))
					}
				}
				walkExpr(v.Value)
			case *ExprStmt:
				walkExpr(v.Value)
			case *IfStmt:
				walkExpr(v.Cond)
				walkStmts(v.Then)
				walkStmts(v.Else)
			case *ForStmt:
				walkExpr(v.Iterable)
				walkStmts(v.Body)
			case *WhileStmt:
				walkExpr(v.Cond)
				walkStmts(v.Body)
			}
		}
	}
	for _, fn := range prog.Functions {
		seen := map[string]bool{}
		for _, p := range fn.Params {
			if seen[p.Name] {
				errs = append(errs, fmt.Errorf("lang: function %q has duplicate parameter %q", fn.Name, p.Name))
			}
			seen[p.Name] = true
		}
		walkStmts(fn.Body)
	}
	walkStmts(prog.Body)
	if len(errs) > 0 {
		msg := ""
		for i, e := range errs {
			if i > 0 {
				msg += "; "
			}
			msg += e.Error()
		}
		return fmt.Errorf("%s", msg)
	}
	return nil
}
