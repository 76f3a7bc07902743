package compiler

import "github.com/systemds/systemds-go/internal/lang"

// Liveness: one backward pass over the statements of a function body tells
// each basic block which of the variables it assigns are read later — by a
// later statement, across a loop's back edge, by a predicate, or as a return
// value. A block's flush emits transient writes for those alone, so a value
// nothing reads again (l2svm's margin, active, hinge and grad inside its
// loop) is no consumer of its producer, and fusion sees the whole expression.
//
// A live set is a map of variable names; nil stands for every variable. Top
// level code is compiled with nil throughout: a caller may request any
// output of a script, so nothing there is dead. Predicate blocks (_predN,
// read by the runtime) and compression sites compile with nil too.

// liveAfterEach returns the variables live after each statement i with
// want[i] set, given those live after stmts; every other entry is nil, which
// a reader takes for every variable.
func liveAfterEach(stmts []lang.Statement, after map[string]bool, want []bool) []map[string]bool {
	out := make([]map[string]bool, len(stmts))
	if after == nil {
		return out
	}
	cur := clone(after)
	for i := len(stmts) - 1; i >= 0; i-- {
		if want[i] {
			out[i] = clone(cur)
		}
		cur = liveBeforeStmt(stmts[i], cur)
	}
	return out
}

// liveBefore returns the variables live before stmts, given those live after
// them; after is not modified.
func liveBefore(stmts []lang.Statement, after map[string]bool) map[string]bool {
	if after == nil {
		return nil
	}
	cur := clone(after)
	for i := len(stmts) - 1; i >= 0; i-- {
		cur = liveBeforeStmt(stmts[i], cur)
	}
	return cur
}

// liveBeforeStmt is one statement's step of the backward pass. It may update
// and return live in place.
func liveBeforeStmt(s lang.Statement, live map[string]bool) map[string]bool {
	switch v := s.(type) {
	case *lang.IfStmt:
		before := liveBefore(v.Then, live)
		for name := range liveBefore(v.Else, live) {
			before[name] = true
		}
		lang.CollectReads(v.Cond, before)
		return before
	case *lang.WhileStmt:
		return loopLive(s, live)
	case *lang.ForStmt:
		before := loopLive(s, live)
		lang.CollectReads(v.Iterable, before)
		return before
	case *lang.AssignStmt:
		for _, t := range v.Targets {
			if !t.Indexed {
				delete(live, t.Name)
			}
		}
	}
	lang.AddStatementReads(s, live)
	return live
}

// loopLive returns the variables live at the head of a loop — before a while
// loop's predicate, before each iteration of a for loop — which is also what
// is live at the end of its body: the fixpoint over the back edge of what is
// live after the loop, the predicate's reads and what the body reads before
// it writes. A parfor body also keeps its result variables, which the merge
// reads from every worker. after is not modified.
func loopLive(s lang.Statement, after map[string]bool) map[string]bool {
	if after == nil {
		return nil
	}
	head := clone(after)
	var body []lang.Statement
	switch v := s.(type) {
	case *lang.WhileStmt:
		lang.CollectReads(v.Cond, head)
		body = v.Body
	case *lang.ForStmt:
		if v.Parallel {
			for _, w := range lang.BlockWrites(v.Body) {
				head[w] = true
			}
		}
		body = v.Body
	}
	for {
		grew := false
		for name := range liveBefore(body, head) {
			if !head[name] {
				head[name], grew = true, true
			}
		}
		if !grew {
			return head
		}
	}
}

// blockLive tells a basic block's flushes which variables to write: those
// live after the block, and those a statement at or after the flush's reads.
// A nil *blockLive writes every variable.
type blockLive struct {
	after    map[string]bool
	lastRead map[string]int // the last statement of the block reading a variable
}

// newBlockLive returns the blockLive of stmts given the variables live after
// them (nil: every variable).
func newBlockLive(stmts []lang.Statement, after map[string]bool) *blockLive {
	if after == nil {
		return nil
	}
	l := &blockLive{after: after, lastRead: map[string]int{}}
	reads := map[string]bool{}
	for i, s := range stmts {
		clear(reads)
		lang.AddStatementReads(s, reads)
		for name := range reads {
			l.lastRead[name] = i
		}
	}
	return l
}

// writes reports whether a flush during statement pos writes name.
func (l *blockLive) writes(name string, pos int) bool {
	if l == nil || l.after[name] {
		return true
	}
	last, read := l.lastRead[name]
	return read && last >= pos
}

// clone copies a live set.
func clone(s map[string]bool) map[string]bool {
	out := make(map[string]bool, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}
