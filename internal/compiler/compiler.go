// Package compiler translates parsed DML programs into executable runtime
// programs (Section 2.3 of the paper): statements are grouped into statement
// blocks delineated by control flow, each basic block is compiled into a DAG
// of high-level operators, rewritten (CSE, constant folding, fused
// operators), annotated with size propagation and memory estimates, and
// lowered into runtime instructions with execution-type selection
// (CP vs. the blocked distributed backend). Control-flow statements become
// if/while/for/parfor program blocks with compiled predicates, user-defined
// and DML-bodied builtin functions become function blocks, and blocks with
// unknown sizes receive dynamic-recompilation callbacks.
package compiler

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"github.com/systemds/systemds-go/internal/hops"
	"github.com/systemds/systemds-go/internal/lang"
	"github.com/systemds/systemds-go/internal/obs"
	"github.com/systemds/systemds-go/internal/runtime"
	"github.com/systemds/systemds-go/internal/types"
)

// BuiltinRegistry resolves DML-bodied builtin functions by name to their DML
// source (the registration mechanism of Section 2.2).
type BuiltinRegistry interface {
	Source(name string) (string, bool)
	Names() []string
}

// Compiler compiles DML programs against a configuration and a builtin
// registry.
type Compiler struct {
	cfg      *runtime.Config
	registry BuiltinRegistry
	prog     *runtime.Program
	source   *lang.Program
	// defs holds the definitions of the user functions and of the builtins
	// looked up so far, for inlining at call sites (inline.go).
	defs map[string]*lang.FunctionDef
	// facts memoizes function facts by (function, constant signature),
	// hashes body hashes by function; analyzing holds the functions under
	// analysis (facts.go).
	facts     map[string]*funcFacts
	hashes    map[string]string
	analyzing map[string]bool
	// compiling guards against recursive builtin compilation cycles
	compiling map[string]bool
	tempSeq   int
	predSeq   int
	// explain, when non-nil, accumulates the planner's annotated DAG listing
	// for every compiled basic block (the EXPLAIN hops-with-costs output).
	explain *strings.Builder
	// annotate, when non-nil, appends extra per-HOP text to each EXPLAIN line
	// (measured runtime metrics in ExplainPlanAnnotated).
	annotate func(*hops.Hop) string
	// compressedVars tracks, across DAG and block boundaries, which variables
	// hold a compressed matrix at runtime: set when a fired compression site
	// (or a transpose view of one) writes the variable, cleared on any other
	// reassignment. Transient reads of tracked variables are marked
	// CompressedRead so pricing and EXPLAIN see the representation.
	compressedVars map[string]bool
	// recompileMu serializes dynamic recompilation. buildBlock mutates
	// compiler-wide state (compressedVars on every DAG flush, the temp and
	// predicate counters, the function table when a builtin is first
	// referenced), and parfor workers recompile body blocks concurrently.
	recompileMu sync.Mutex
}

// New creates a compiler.
func New(cfg *runtime.Config, registry BuiltinRegistry) *Compiler {
	if cfg == nil {
		cfg = runtime.DefaultConfig()
	}
	return &Compiler{cfg: cfg, registry: registry, compiling: map[string]bool{},
		compressedVars: map[string]bool{}}
}

// Compile compiles a DML script into a runtime program. knownInputs provides
// the data characteristics of script inputs bound through the API, enabling
// size propagation from the start.
func (c *Compiler) Compile(src string, knownInputs map[string]types.DataCharacteristics) (*runtime.Program, error) {
	prog, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := lang.Validate(prog, c.IsCallable(prog)); err != nil {
		return nil, err
	}
	return c.CompileProgram(prog, knownInputs)
}

// ExplainPlan compiles a DML script and returns the cost-annotated physical
// plan of every basic block: per HOP the dimensions, memory estimate, the
// plan chosen by the cost-based planner (CP, DIST, or DIST:<strategy> for
// matmults), and the modeled compute/shuffle costs. Blocks compiled with
// unknown sizes show their initial conservative plan; dynamic recompilation
// re-plans them at runtime against live sizes.
func (c *Compiler) ExplainPlan(src string, knownInputs map[string]types.DataCharacteristics) (string, error) {
	c.explain = &strings.Builder{}
	defer func() { c.explain = nil }()
	if _, err := c.Compile(src, knownInputs); err != nil {
		return "", err
	}
	return c.explain.String(), nil
}

// ExplainPlanAnnotated renders the plan like ExplainPlan and joins measured
// per-opcode runtime metrics from a traced run (keyed by instruction opcode)
// onto each operator line: execution count, wall time, self time, and bytes
// produced. Operators whose opcode never executed print unannotated — e.g.
// blocks the planner compiled but control flow skipped.
func (c *Compiler) ExplainPlanAnnotated(src string, knownInputs map[string]types.DataCharacteristics,
	measured map[string]obs.OpMetric) (string, error) {
	c.annotate = func(h *hops.Hop) string {
		// instruction spans are recorded under the opcode of the instruction
		// lowering emits for the HOP (none for reads and literals)
		inst, err := lowerHop(h)
		if err != nil || inst == nil {
			return ""
		}
		m, ok := measured[inst.Opcode()]
		if !ok {
			return ""
		}
		return fmt.Sprintf(" measured: n=%d wall=%.3fms self=%.3fms bytes=%d",
			m.Count, float64(m.WallNs)/1e6, float64(m.SelfNs)/1e6, m.Bytes)
	}
	defer func() { c.annotate = nil }()
	return c.ExplainPlan(src, knownInputs)
}

// IsCallable returns a predicate that reports whether a function name can be
// resolved: a user function of the program, a native builtin, or a DML-bodied
// builtin from the registry.
func (c *Compiler) IsCallable(prog *lang.Program) func(string) bool {
	return func(name string) bool {
		if prog != nil {
			if _, ok := prog.Functions[name]; ok {
				return true
			}
		}
		if isNativeBuiltin(name) {
			return true
		}
		if c.registry != nil {
			if _, ok := c.registry.Source(name); ok {
				return true
			}
		}
		return false
	}
}

// CompileProgram compiles a parsed program.
func (c *Compiler) CompileProgram(prog *lang.Program, knownInputs map[string]types.DataCharacteristics) (*runtime.Program, error) {
	c.prog = &runtime.Program{Functions: map[string]*runtime.FunctionBlock{}}
	c.source = prog
	c.defs = make(map[string]*lang.FunctionDef, len(prog.Functions))
	for name, fn := range prog.Functions {
		c.defs[name] = fn
	}
	c.facts, c.hashes, c.analyzing = map[string]*funcFacts{}, map[string]string{}, map[string]bool{}
	// compile user-defined functions
	names := make([]string, 0, len(prog.Functions))
	for name := range prog.Functions {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fb, err := c.compileFunction(prog.Functions[name])
		if err != nil {
			return nil, err
		}
		c.prog.Functions[name] = fb
	}
	// top-level code keeps every variable live: a caller may request any
	// output of the script
	blocks, err := c.compileStatements(prog.Body, knownInputs, nil)
	if err != nil {
		return nil, err
	}
	c.prog.Blocks = blocks
	return c.prog, nil
}

// compileFunction compiles one function definition into a function block.
func (c *Compiler) compileFunction(fn *lang.FunctionDef) (*runtime.FunctionBlock, error) {
	fb := &runtime.FunctionBlock{Name: fn.Name}
	for _, p := range fn.Params {
		fp := runtime.FunctionParam{Name: p.Name}
		if p.Default != nil {
			d, err := literalToData(p.Default)
			if err != nil {
				return nil, fmt.Errorf("compiler: function %s: default for %s: %w", fn.Name, p.Name, err)
			}
			fp.Default = d
		}
		fb.Params = append(fb.Params, fp)
	}
	returns := map[string]bool{}
	for _, r := range fn.Returns {
		fb.Returns = append(fb.Returns, r.Name)
		returns[r.Name] = true
	}
	// a function body's live-out set is its returns (liveness.go)
	body, err := c.compileStatements(fn.Body, nil, returns)
	if err != nil {
		return nil, fmt.Errorf("compiler: function %s: %w", fn.Name, err)
	}
	fb.Body = body
	return fb, nil
}

// literalToData converts a literal default-value expression to runtime data.
func literalToData(e lang.Expr) (runtime.Data, error) {
	switch v := e.(type) {
	case *lang.NumLit:
		if v.IsInt {
			return runtime.NewInt(int64(v.Value)), nil
		}
		return runtime.NewDouble(v.Value), nil
	case *lang.StrLit:
		return runtime.NewString(v.Value), nil
	case *lang.BoolLit:
		return runtime.NewBool(v.Value), nil
	case *lang.UnaryExpr:
		if inner, ok := v.Operand.(*lang.NumLit); ok && v.Op == "-" {
			return runtime.NewDouble(-inner.Value), nil
		}
	}
	return nil, fmt.Errorf("default values must be literals, got %T", e)
}

// ensureBuiltinCompiled resolves a DML-bodied builtin: its script is parsed
// and its function definitions are added to the program's function table.
func (c *Compiler) ensureBuiltinCompiled(name string) error {
	if _, ok := c.prog.Functions[name]; ok {
		return nil
	}
	if c.registry == nil {
		return fmt.Errorf("compiler: unknown function %q", name)
	}
	src, ok := c.registry.Source(name)
	if !ok {
		return fmt.Errorf("compiler: unknown function %q", name)
	}
	if c.compiling[name] {
		return nil // already being compiled higher up the stack
	}
	c.compiling[name] = true
	defer delete(c.compiling, name)
	parsed, err := lang.Parse(src)
	if err != nil {
		return fmt.Errorf("compiler: builtin %s: %w", name, err)
	}
	fnNames := make([]string, 0, len(parsed.Functions))
	for fnName := range parsed.Functions {
		fnNames = append(fnNames, fnName)
	}
	sort.Strings(fnNames)
	for _, fnName := range fnNames {
		if _, exists := c.prog.Functions[fnName]; exists {
			continue
		}
		// reserve slot first to allow mutual recursion
		fb, err := c.compileFunction(parsed.Functions[fnName])
		if err != nil {
			return err
		}
		c.prog.Functions[fnName] = fb
	}
	if _, ok := c.prog.Functions[name]; !ok {
		return fmt.Errorf("compiler: builtin script for %s does not define function %s", name, name)
	}
	return nil
}

// isUserOrDMLFunction reports whether a call target resolves to a function
// block (compiling the DML-bodied builtin on demand).
func (c *Compiler) isUserOrDMLFunction(name string) bool {
	if c.source != nil {
		if _, ok := c.source.Functions[name]; ok {
			return true
		}
	}
	if _, ok := c.prog.Functions[name]; ok {
		return true
	}
	if c.registry != nil {
		if _, ok := c.registry.Source(name); ok {
			return true
		}
	}
	return false
}

// compileStatements groups statements into basic blocks and control-flow
// blocks. live holds the variables live after stmts (nil: every variable).
func (c *Compiler) compileStatements(stmts []lang.Statement, knownInputs map[string]types.DataCharacteristics,
	live map[string]bool) ([]runtime.ProgramBlock, error) {
	var out []runtime.ProgramBlock
	var straight []lang.Statement
	// an inlined call is a block of its own (inline.go); the live set after a
	// statement is wanted where a block or a control-flow statement ends
	inl := make([]*inlined, len(stmts))
	for i, s := range stmts {
		if a, ok := s.(*lang.AssignStmt); ok {
			inl[i] = c.inlinable(a)
		}
	}
	want := make([]bool, len(stmts))
	for i, s := range stmts {
		next := i + 1
		want[i] = !straightLine(s) || inl[i] != nil || next == len(stmts) ||
			!straightLine(stmts[next]) || inl[next] != nil
	}
	after := liveAfterEach(stmts, live, want)
	var straightLive map[string]bool // live after the last statement of straight
	// available tracks variables certainly bound when control reaches the
	// current statement: script inputs with known characteristics plus
	// unconditional assignments at this nesting level. Compression decision
	// sites are only planted for such variables, so a planted site can never
	// fail on an unbound name (e.g. ahead of a zero-trip loop).
	available := map[string]bool{}
	for name := range knownInputs {
		available[name] = true
	}
	// reassigned tracks variables redefined at this level: their knownInputs
	// characteristics (if any) are stale, so compression sites for them must
	// compile size-unknown and re-decide at recompile time against live sizes
	reassigned := map[string]bool{}
	flush := func() error {
		if len(straight) == 0 {
			return nil
		}
		bb, err := c.compileBasicBlock(straight, knownInputs, straightLive)
		if err != nil {
			return err
		}
		out = append(out, bb)
		straight = nil
		return nil
	}
	emitCompressionSites := func(body []lang.Statement, loopVar string) error {
		blk, err := c.compressionSites(body, loopVar, available, reassigned, knownInputs)
		if err != nil {
			return err
		}
		if blk != nil {
			out = append(out, blk)
		}
		return nil
	}
	for i, s := range stmts {
		switch v := s.(type) {
		case *lang.AssignStmt, *lang.ExprStmt:
			if inl[i] != nil {
				if err := flush(); err != nil {
					return nil, err
				}
				straight, straightLive = append(straight, s), after[i]
				if err := flush(); err != nil {
					return nil, err
				}
			} else {
				straight, straightLive = append(straight, s), after[i]
			}
			if a, ok := s.(*lang.AssignStmt); ok {
				for name := range lang.StatementWrites(a) {
					available[name] = true
					reassigned[name] = true
				}
			}
		case *lang.IfStmt:
			if err := flush(); err != nil {
				return nil, err
			}
			blk, err := c.compileIf(v, after[i])
			if err != nil {
				return nil, err
			}
			out = append(out, blk)
			markReassigned(reassigned, s)
		case *lang.WhileStmt:
			if err := flush(); err != nil {
				return nil, err
			}
			if err := emitCompressionSites(v.Body, ""); err != nil {
				return nil, err
			}
			blk, err := c.compileWhile(v, after[i])
			if err != nil {
				return nil, err
			}
			out = append(out, blk)
			markReassigned(reassigned, s)
		case *lang.ForStmt:
			if err := flush(); err != nil {
				return nil, err
			}
			if err := emitCompressionSites(v.Body, v.Var); err != nil {
				return nil, err
			}
			blk, err := c.compileFor(v, after[i])
			if err != nil {
				return nil, err
			}
			out = append(out, blk)
			markReassigned(reassigned, s)
		default:
			return nil, fmt.Errorf("compiler: unsupported statement type %T", s)
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return out, nil
}

// straightLine reports whether a statement belongs in a basic block.
func straightLine(s lang.Statement) bool {
	switch s.(type) {
	case *lang.AssignStmt, *lang.ExprStmt:
		return true
	}
	return false
}

// markReassigned records every variable a statement may write (including
// writes nested in control-flow bodies): their compile-time characteristics
// are stale for any later compression site, which must therefore compile
// size-unknown and re-decide against live sizes. Conditional writes do NOT
// mark a variable `available` — only unconditional same-level assignments
// and known script inputs do.
func markReassigned(reassigned map[string]bool, s lang.Statement) {
	for name := range lang.StatementWrites(s) {
		reassigned[name] = true
	}
}

// compressionSites synthesizes the pre-loop compression decision block: for
// every matrix-candidate variable the loop body re-reads but never redefines,
// a "X = compress(X, reuse)" statement is compiled through the regular HOP
// pipeline. The planner (hops.ShouldCompress) decides per site whether it
// lowers to a compress instruction or a no-op alias; sites whose operand
// sizes are unknown at compile time recompile against live sizes like any
// other plan-relevant block. Loops are the reuse scope compression exists
// for: the one-time encode amortizes over every iteration's re-read.
func (c *Compiler) compressionSites(body []lang.Statement, loopVar string,
	available, reassigned map[string]bool, known map[string]types.DataCharacteristics) (*runtime.BasicBlock, error) {
	if !c.cfg.CompressionEnabled {
		return nil, nil
	}
	written := map[string]bool{}
	for _, w := range lang.BlockWrites(body) {
		written[w] = true
	}
	// characteristics of variables redefined before the loop are stale (or
	// absent): compile their sites size-unknown so the block recompiles and
	// the fire decision uses the live symbol-table sizes
	siteKnown := known
	var stmts []lang.Statement
	for _, name := range lang.BlockReads(body) {
		if name == loopVar || written[name] || !available[name] {
			continue
		}
		if reassigned[name] {
			if _, stale := siteKnown[name]; stale {
				pruned := make(map[string]types.DataCharacteristics, len(known))
				for k, v := range siteKnown {
					pruned[k] = v
				}
				delete(pruned, name)
				siteKnown = pruned
			}
		}
		// reuse estimate: statements reading the variable per iteration times
		// the assumed trip count (loop bounds are rarely compile-time known)
		reads := 0
		for _, s := range body {
			if lang.StatementReads(s)[name] {
				reads++
			}
		}
		stmts = append(stmts, &lang.AssignStmt{
			Targets: []lang.AssignTarget{{Name: name}},
			Value: &lang.CallExpr{Name: "compress", Args: []lang.Arg{
				{Value: &lang.Ident{Name: name}},
				{Value: &lang.NumLit{Value: float64(reads * hops.CompressAssumedLoopTrips), IsInt: true}},
			}},
		})
	}
	if len(stmts) == 0 {
		return nil, nil
	}
	return c.compileBasicBlock(stmts, siteKnown, nil)
}

// compileIf compiles an if statement; live holds the variables live after it.
func (c *Compiler) compileIf(s *lang.IfStmt, live map[string]bool) (*runtime.IfBlock, error) {
	predBlock, predVar, err := c.compilePredicate(s.Cond)
	if err != nil {
		return nil, err
	}
	thenBlocks, err := c.compileStatements(s.Then, nil, live)
	if err != nil {
		return nil, err
	}
	elseBlocks, err := c.compileStatements(s.Else, nil, live)
	if err != nil {
		return nil, err
	}
	return &runtime.IfBlock{Predicate: predBlock, PredVar: predVar, Then: thenBlocks, Else: elseBlocks}, nil
}

// compileWhile compiles a while loop; live holds the variables live after it.
func (c *Compiler) compileWhile(s *lang.WhileStmt, live map[string]bool) (*runtime.WhileBlock, error) {
	predBlock, predVar, err := c.compilePredicate(s.Cond)
	if err != nil {
		return nil, err
	}
	body, err := c.compileStatements(s.Body, nil, loopLive(s, live))
	if err != nil {
		return nil, err
	}
	return &runtime.WhileBlock{Predicate: predBlock, PredVar: predVar, Body: body}, nil
}

// compileFor compiles a for or parfor loop; live holds the variables live
// after it.
func (c *Compiler) compileFor(s *lang.ForStmt, live map[string]bool) (*runtime.ForBlock, error) {
	iterExpr := s.Iterable
	// rewrite "from:to" ranges into seq(from, to, 1)
	if r, ok := iterExpr.(*lang.RangeExpr); ok {
		iterExpr = &lang.CallExpr{Name: "seq", Args: []lang.Arg{{Value: r.From}, {Value: r.To}, {Value: &lang.NumLit{Value: 1, IsInt: true}}}, Line: r.Line}
	}
	iterBlock, iterVar, err := c.compilePredicate(iterExpr)
	if err != nil {
		return nil, err
	}
	body, err := c.compileStatements(s.Body, nil, loopLive(s, live))
	if err != nil {
		return nil, err
	}
	writes := lang.BlockWrites(s.Body)
	resultVars := make([]string, 0, len(writes))
	for _, w := range writes {
		if w != s.Var {
			resultVars = append(resultVars, w)
		}
	}
	return &runtime.ForBlock{
		Var:         s.Var,
		Iterable:    iterBlock,
		IterVar:     iterVar,
		Body:        body,
		Parallel:    s.Parallel,
		ResultVars:  resultVars,
		IndexedVars: lang.BlockIndexedWrites(s.Body),
	}, nil
}

// compilePredicate compiles an expression into a basic block writing a fresh
// predicate variable.
func (c *Compiler) compilePredicate(cond lang.Expr) (*runtime.BasicBlock, string, error) {
	c.predSeq++
	predVar := fmt.Sprintf("_pred%d", c.predSeq)
	stmt := &lang.AssignStmt{Targets: []lang.AssignTarget{{Name: predVar}}, Value: cond}
	bb, err := c.compileBasicBlock([]lang.Statement{stmt}, nil, nil)
	if err != nil {
		return nil, "", err
	}
	return bb, predVar, nil
}
