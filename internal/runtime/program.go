package runtime

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/systemds/systemds-go/internal/lineage"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/obs"
)

// TempPrefix is the name prefix of temporary variables created by DAG
// lowering; they are cleaned up at the end of each basic block.
const TempPrefix = "_mVar"

// Instruction is one runtime instruction produced by the compiler. All
// instruction implementations live in the instructions package; the runtime
// only depends on this interface.
type Instruction interface {
	// Opcode returns the instruction opcode (e.g. "ba+*", "tsmm", "rand").
	Opcode() string
	// Inputs returns the input variable names (excluding literals).
	Inputs() []string
	// Outputs returns the output variable names.
	Outputs() []string
	// Lineage returns what the output item is built from: opcode-level data
	// (fused signature, mmchain variant, callee, parameter keys) and one item
	// per operand in order — a literal's value item, a variable's
	// ctx.LineageOf — so the lineage fully determines the result.
	Lineage(ctx *Context) (data string, inputs []*lineage.Item)
	// Execute runs the instruction against the execution context.
	Execute(ctx *Context) error
}

// A Drawing instruction draws fresh randomness on every execution: a rand or
// sample the script gave no seed. executeInstruction runs the copy Draw
// returns, whose seed is fixed, so the lineage item and the result name the
// same draw: no two executions share an item, and reuse never hands back an
// earlier draw.
type Drawing interface {
	Draw() Instruction
}

// ProgramBlock is a node of the runtime program tree.
type ProgramBlock interface {
	Execute(ctx *Context) error
}

// Program is a compiled runtime program: a function table plus the main body
// blocks.
type Program struct {
	Functions map[string]*FunctionBlock
	Blocks    []ProgramBlock
}

// Execute runs the main body of the program.
func (p *Program) Execute(ctx *Context) error {
	prev := ctx.Prog
	ctx.Prog = p
	defer func() { ctx.Prog = prev }()
	for _, b := range p.Blocks {
		if err := b.Execute(ctx); err != nil {
			return err
		}
	}
	return nil
}

// Function returns a function block by name.
func (p *Program) Function(name string) (*FunctionBlock, bool) {
	fb, ok := p.Functions[name]
	return fb, ok
}

// BasicBlock is a straight-line sequence of instructions compiled from one
// last-level statement block (one or more HOP DAGs plus function-call and
// side-effect instructions).
type BasicBlock struct {
	Instructions []Instruction
	// RequiresRecompile marks blocks compiled with unknown sizes; when set and
	// a Recompile callback is present, the block is re-lowered against the
	// current symbol table before execution (dynamic recompilation). A nil
	// result keeps the compiled Instructions.
	RequiresRecompile bool
	Recompile         func(ctx *Context) ([]Instruction, error)
	// CleanupTemps removes DAG temporaries after the block (disabled inside
	// predicate blocks whose result is a temporary).
	CleanupTemps bool
}

// Execute runs the block's instructions in order with lineage tracing and
// reuse.
func (b *BasicBlock) Execute(ctx *Context) error {
	sp := obs.Begin(obs.CatBlock, "block")
	err := b.execute(ctx, sp)
	sp.End()
	return err
}

func (b *BasicBlock) execute(ctx *Context, blockSp obs.Span) error {
	instrs := b.Instructions
	if b.RequiresRecompile && b.Recompile != nil {
		recompiled, err := b.Recompile(ctx)
		if err != nil {
			return fmt.Errorf("runtime: dynamic recompilation failed: %w", err)
		}
		if recompiled != nil {
			instrs = recompiled
		}
	}
	for _, inst := range instrs {
		if err := executeInstructionSpanned(ctx, inst, blockSp); err != nil {
			return err
		}
	}
	if b.CleanupTemps {
		ctx.CleanupTemporaries(TempPrefix)
	}
	return nil
}

// nonCacheableOpcodes are never probed here: side effects, non-determinism
// that must re-execute, and function calls, whose reuse is the call's own: a
// pure call probes and puts one entry per output under its function-level
// items (instructions.FCallInst), an impure one leaves it to the
// instructions of its body.
var nonCacheableOpcodes = map[string]bool{
	"print": true, "write": true, "read": true, "stop": true, "assert": true,
	"fcall": true, "rand": true, "sample": true, "rmvar": true,
}

// probeSkipOpcodes read a matrix but can never repay a cache probe: assignvar
// only binds a name, so executing it is cheaper than looking it up, as it is
// for the metadata aggregates, which answer from the data characteristics
// (metadataRead). A hit on leftIndex would
// save one copy of the target, but admitting its result pins every version of
// an updated variable in memory, and a cache entry is a holder, so the next
// update could never write in place.
var probeSkipOpcodes = map[string]bool{"assignvar": true, "leftIndex": true}

// metadataRead reports whether op is an aggregate that reads only its
// input's dimensions.
func metadataRead(op string) bool {
	agg, ok := matrix.AggregateOf(op)
	return ok && agg.Dims != nil
}

// matrixGeneratorOpcodes produce a matrix from scalar operands alone; their
// results are admitted like any other matrix although no input is one.
var matrixGeneratorOpcodes = map[string]bool{"fill": true, "seq": true}

// reuseCandidate is the cache admission rule. It depends only on the plan —
// opcode, output arity and the data types of the bound inputs — never on
// measured time, so the same script probes and caches the same instructions
// on every run. An instruction is probed, and its result cached, when it has
// one output, is in neither skip table above and either generates a matrix or
// reads at least one non-scalar input: that admits every matrix result and
// the aggregates and casts that reduce data to a scalar, and leaves out only
// scalar-only arithmetic.
func reuseCandidate(ctx *Context, inst Instruction, inputs, outs []string) bool {
	op := inst.Opcode()
	if len(outs) != 1 || nonCacheableOpcodes[op] || probeSkipOpcodes[op] || metadataRead(op) {
		return false
	}
	if matrixGeneratorOpcodes[op] {
		return true
	}
	for _, in := range inputs {
		if d, err := ctx.Get(in); err == nil {
			if _, scalar := d.(*Scalar); !scalar {
				return true
			}
		}
	}
	return false
}

// executeInstructionSpanned wraps instruction execution in an "instr" span
// named by the opcode and parented under the enclosing block span. The
// tracing-off path falls straight through to the untraced body so the
// output-size probe below never runs (and never allocates) there.
func executeInstructionSpanned(ctx *Context, inst Instruction, parent obs.Span) error {
	if !obs.Enabled() {
		return executeInstruction(ctx, inst)
	}
	sp := obs.BeginChild(parent, obs.CatInstr, inst.Opcode())
	err := executeInstruction(ctx, inst)
	sp.EndBytes(outputBytes(ctx, inst))
	return err
}

// outputBytes estimates the bytes an instruction materialized by sizing its
// bound outputs (only called while tracing).
func outputBytes(ctx *Context, inst Instruction) int64 {
	var n int64
	for _, out := range inst.Outputs() {
		if d, err := ctx.Get(out); err == nil {
			n += SizeOf(d)
		}
	}
	return n
}

// executeInstruction executes one instruction with lineage tracing and
// lineage-based reuse (Section 3.1): the output lineage is computed before
// execution, the reuse cache is probed, and qualifying results are cached
// afterwards.
func executeInstruction(ctx *Context, inst Instruction) error {
	if d, ok := inst.(Drawing); ok {
		inst = d.Draw()
	}
	if !ctx.Config.LineageEnabled {
		return inst.Execute(ctx)
	}
	data, items := inst.Lineage(ctx)
	var outItem *lineage.Item
	if inst.Opcode() == "assignvar" && len(items) == 1 && data == "" {
		// plain variable copies are lineage-transparent: the output IS the
		// input value, so downstream consumers and the reuse cache see the
		// producing operation directly
		outItem = items[0]
	} else {
		outItem = lineage.NewInstruction(inst.Opcode(), data, items...)
	}
	outs := inst.Outputs()
	cacheable := ctx.Config.ReuseEnabled && ctx.Cache.Enabled() && reuseCandidate(ctx, inst, inst.Inputs(), outs)
	var start time.Time
	if cacheable {
		if v, ok := ctx.Cache.Get(outItem); ok {
			if d, isData := v.(Data); isData {
				ctx.Set(outs[0], d)
				Release(d) // the hit's own reference, now that the binding holds d
				ctx.Lineage.Set(outs[0], outItem)
				return nil
			}
		}
		start = time.Now() // compute time is the benefit side of cache eviction
	}
	if err := inst.Execute(ctx); err != nil {
		return err
	}
	// Record output lineage. Function calls and reads maintain their own
	// (per-output) lineage during execution; multi-output instructions get
	// one distinct item per output so different outputs never alias.
	if inst.Opcode() != "fcall" && inst.Opcode() != "read" {
		if len(outs) == 1 {
			ctx.Lineage.Set(outs[0], outItem)
		} else {
			for idx, o := range outs {
				ctx.Lineage.Set(o, lineage.NewInstruction(inst.Opcode(),
					fmt.Sprintf("%s#out%d", data, idx), items...))
			}
		}
	}
	if cacheable {
		if d, err := ctx.Get(outs[0]); err == nil {
			ctx.Cache.Put(outItem, d, SizeOf(d), time.Since(start).Nanoseconds())
		}
	}
	return nil
}

// IfBlock executes the then-branch or else-branch depending on a scalar
// predicate computed by the predicate block.
type IfBlock struct {
	Predicate *BasicBlock
	PredVar   string
	Then      []ProgramBlock
	Else      []ProgramBlock
}

// Execute evaluates the predicate and runs the matching branch.
func (b *IfBlock) Execute(ctx *Context) error {
	if err := b.Predicate.Execute(ctx); err != nil {
		return err
	}
	pred, err := ctx.Get(b.PredVar)
	if err != nil {
		return err
	}
	cond := false
	switch v := pred.(type) {
	case *Scalar:
		cond = v.Bool()
	case *MatrixObject:
		blk, err := v.Acquire()
		if err != nil {
			return err
		}
		cond = blk.Get(0, 0) != 0
	default:
		return fmt.Errorf("runtime: if predicate %q has unsupported type %s", b.PredVar, pred.DataType())
	}
	ctx.Remove(b.PredVar)
	ctx.CleanupTemporaries(TempPrefix)
	branch := b.Then
	if !cond {
		branch = b.Else
	}
	for _, blk := range branch {
		if err := blk.Execute(ctx); err != nil {
			return err
		}
	}
	return nil
}

// WhileBlock repeatedly executes its body while the predicate evaluates to
// true.
type WhileBlock struct {
	Predicate *BasicBlock
	PredVar   string
	Body      []ProgramBlock
}

// Execute runs the while loop.
func (b *WhileBlock) Execute(ctx *Context) error {
	for {
		if err := b.Predicate.Execute(ctx); err != nil {
			return err
		}
		pred, err := ctx.GetScalar(b.PredVar)
		if err != nil {
			return err
		}
		ctx.Remove(b.PredVar)
		ctx.CleanupTemporaries(TempPrefix)
		if !pred.Bool() {
			return nil
		}
		for _, blk := range b.Body {
			if err := blk.Execute(ctx); err != nil {
				return err
			}
		}
	}
}

// ForBlock executes its body for every value of the iteration variable. When
// Parallel is set it acts as the parfor backend (Section 2.3): iterations are
// distributed over local workers, each with an isolated context, and written
// results are merged back into the parent context.
type ForBlock struct {
	Var      string
	Iterable *BasicBlock
	IterVar  string
	Body     []ProgramBlock
	Parallel bool
	// ResultVars are the variables the body writes, IndexedVars those of
	// them it writes only by left indexing (both computed at compile time).
	ResultVars  []string
	IndexedVars []string
}

// Execute runs the for or parfor loop.
func (b *ForBlock) Execute(ctx *Context) error {
	if err := b.Iterable.Execute(ctx); err != nil {
		return err
	}
	values, err := b.iterationValues(ctx)
	if err != nil {
		return err
	}
	ctx.Remove(b.IterVar)
	ctx.CleanupTemporaries(TempPrefix)
	if !b.Parallel || len(values) <= 1 {
		for _, v := range values {
			ctx.Set(b.Var, NewDouble(v))
			for _, blk := range b.Body {
				if err := blk.Execute(ctx); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return b.executeParallel(ctx, values)
}

func (b *ForBlock) iterationValues(ctx *Context) ([]float64, error) {
	d, err := ctx.Get(b.IterVar)
	if err != nil {
		return nil, err
	}
	switch v := d.(type) {
	case *Scalar:
		x, err := v.Number()
		return []float64{x}, err
	case *MatrixObject:
		blk, err := v.Acquire()
		if err != nil {
			return nil, err
		}
		vals := make([]float64, 0, blk.Rows()*blk.Cols())
		for r := 0; r < blk.Rows(); r++ {
			for c := 0; c < blk.Cols(); c++ {
				vals = append(vals, blk.Get(r, c))
			}
		}
		return vals, nil
	default:
		return nil, fmt.Errorf("runtime: for iterable has unsupported type %s", d.DataType())
	}
}

// executeParallel is the local parfor backend. Iterations are assigned to
// workers round-robin — worker w is task w of matrix.ParallelFor and runs
// iterations w, w+k, …, so a failing loop reports the error of the
// lowest-numbered failing worker — and every worker runs on a child context
// that copies the parent's bindings and logs, per result variable, the
// highest iteration that bound it and the regions its left-indexing updates
// wrote. The merge then gives each result variable the value a sequential
// loop would: a variable the body only left-indexes takes every logged region
// from the worker that wrote it, in iteration order, and any other takes the
// value of the highest iteration that bound it.
func (b *ForBlock) executeParallel(ctx *Context, values []float64) error {
	workers := min(ctx.Config.Threads(), len(values))
	children := make([]*Context, workers)
	defer func() {
		for _, child := range children {
			child.ReleaseVars()
		}
	}()
	for w := range children {
		children[w] = ctx.ChildCopy()
		children[w].log = newIterLog(b.ResultVars, b.IndexedVars)
	}
	err := matrix.ParallelFor(workers, workers, func(_, w int) error {
		child := children[w]
		for i := w; i < len(values); i += workers {
			child.log.iter = i
			child.Set(b.Var, NewDouble(values[i]))
			for _, blk := range b.Body {
				if err := blk.Execute(child); err != nil {
					return fmt.Errorf("parfor worker %d (iteration %v): %w", w, values[i], err)
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	// The workers' values outlive their scopes, which end before the merge:
	// their holds on the parent's values would keep the merge from writing
	// those in place.
	results := make([]workerResult, workers)
	defer func() {
		for _, r := range results {
			for _, d := range r.vars {
				Release(d)
			}
		}
	}()
	for w, child := range children {
		vars := map[string]Data{}
		for _, rv := range b.ResultVars {
			d, err := child.Get(rv)
			if err != nil {
				continue
			}
			if prev, err := ctx.Get(rv); err == nil && prev == d {
				continue // the parent's binding holds it
			}
			Retain(d)
			vars[rv] = d
		}
		results[w] = workerResult{log: child.log, vars: vars}
		child.ReleaseVars()
	}
	// merged variables get a fresh lineage leaf (unique per merge) so
	// downstream consumers are never answered from stale cache entries of a
	// previous loop execution
	for _, rv := range b.ResultVars {
		merged, err := mergeResult(ctx, rv, slices.Contains(b.IndexedVars, rv), results)
		if err != nil {
			return err
		}
		if merged != nil {
			ctx.Set(rv, merged)
			mergeID := atomic.AddInt64(&parforMergeCounter, 1)
			ctx.Lineage.Set(rv, lineage.NewCreation("parfor-merge", fmt.Sprintf("%s#%d", rv, mergeID)))
		}
	}
	return nil
}

var parforMergeCounter int64

// iterLog is a parfor worker's record for the merge: the iteration it runs,
// the highest iteration that bound each result variable (-1: none), and the
// regions the left-indexing updates of each left-indexed one wrote.
type iterLog struct {
	iter    int
	bound   map[string]int
	regions map[string][]region
}

// region is the cells [r0:r1, c0:c1) written by iteration iter.
type region struct {
	iter, r0, r1, c0, c1 int
}

func newIterLog(resultVars, indexedVars []string) *iterLog {
	l := &iterLog{bound: make(map[string]int, len(resultVars)), regions: make(map[string][]region, len(indexedVars))}
	for _, rv := range resultVars {
		l.bound[rv] = -1
	}
	for _, iv := range indexedVars {
		l.regions[iv] = nil
	}
	return l
}

// NoteRegion records that a left-indexing update of the variable name wrote
// its cells [r0:r1, c0:c1); the parfor merge copies exactly the regions its
// workers noted. Outside a parfor worker it does nothing.
func (ctx *Context) NoteRegion(name string, r0, r1, c0, c1 int) {
	if l := ctx.log; l != nil {
		if rs, ok := l.regions[name]; ok {
			l.regions[name] = append(rs, region{l.iter, r0, r1, c0, c1})
		}
	}
}

// localMatrixOf returns the local block behind a matrix-typed runtime value,
// acquiring through the buffer pool or collecting a blocked matrix; the bool
// reports whether the value was matrix-backed at all.
func localMatrixOf(ctx *Context, d Data) (*matrix.MatrixBlock, bool, error) {
	md, ok := d.(MatrixData)
	if !ok {
		return nil, false, nil
	}
	blk, err := md.LocalFor(ctx, "parfor-merge")
	if errors.Is(err, ErrFederated) {
		return nil, false, nil
	}
	return blk, true, err
}

// workerResult is one parfor worker's log and its values of the result
// variables that differ from the parent's.
type workerResult struct {
	log  *iterLog
	vars map[string]Data
}

// mergeResult returns the value of one result variable after the loop, or
// nil when no iteration wrote it. A left-indexed variable whose pre-loop
// value is a local matrix is merged by region (mergeRegions); any other takes
// the value of the highest iteration that bound it, as a sequential loop
// would leave it.
func mergeResult(ctx *Context, name string, indexed bool, results []workerResult) (Data, error) {
	if indexed {
		if merged, ok, err := mergeRegions(ctx, name, results); ok || err != nil {
			return merged, err
		}
	}
	best := -1
	var val Data
	for _, r := range results {
		if it := r.log.bound[name]; it > best {
			best, val = it, r.vars[name]
		}
	}
	return val, nil
}

// mergeRegions writes every region the workers noted for name, in iteration
// order, from the worker that wrote it into the parent's value: in place when
// the parent's binding is its only holder (MatrixObject.Update), else into one
// copy. The last write of a cell is then the highest iteration's that wrote
// it, and that worker's value holds exactly that write. ok is false when the
// parent's value is not a local matrix. In an enclosing parfor worker, the
// regions count as writes of the worker's iteration.
func mergeRegions(ctx *Context, name string, results []workerResult) (merged Data, ok bool, err error) {
	original, err := ctx.Get(name)
	if err != nil {
		return nil, false, nil
	}
	origBlock, isMat, err := localMatrixOf(ctx, original)
	if err != nil || !isMat {
		return nil, false, err
	}
	type sourced struct {
		region
		src *matrix.MatrixBlock
	}
	var all []sourced
	for w, r := range results {
		rs := r.log.regions[name]
		if len(rs) == 0 {
			continue
		}
		d, ok := r.vars[name]
		if !ok {
			d = original // the worker's value is the parent's
		}
		blk, isMat, err := localMatrixOf(ctx, d)
		if err != nil {
			return nil, true, err
		}
		if !isMat || blk.Rows() != origBlock.Rows() || blk.Cols() != origBlock.Cols() {
			return nil, true, fmt.Errorf("runtime: parfor worker %d changed the shape of left-indexed %q", w, name)
		}
		for _, rg := range rs {
			all = append(all, sourced{rg, blk})
		}
	}
	if len(all) == 0 {
		return nil, true, nil
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].iter < all[b].iter })
	writes := make([]matrix.RegionWrite, len(all))
	for i, s := range all {
		writes[i] = matrix.RegionWrite{R0: s.r0, R1: s.r1, C0: s.c0, C1: s.c1, Src: s.src, SR: s.r0, SC: s.c0}
	}
	if mo, isMO := original.(*MatrixObject); isMO {
		done, err := mo.Update(writes)
		if err != nil {
			return nil, true, err
		}
		if done {
			merged = mo
		}
	}
	if merged == nil {
		blk, err := matrix.Update(origBlock, writes, false)
		if err != nil {
			return nil, true, err
		}
		merged = NewMatrixObject(blk, ctx.Pool)
	}
	for _, s := range all {
		ctx.NoteRegion(name, s.r0, s.r1, s.c0, s.c1)
	}
	return merged, true, nil
}

// FunctionBlock is a compiled user-defined or DML-bodied builtin function.
type FunctionBlock struct {
	Name    string
	Params  []FunctionParam
	Returns []string
	Body    []ProgramBlock
}

// FunctionParam describes one function parameter with an optional default.
type FunctionParam struct {
	Name    string
	Default Data // nil when the parameter is required
}

// Call executes the function with the given positional and named arguments in
// a fresh child context and returns the values of the declared return
// variables. Lineage items of the arguments are carried into the child
// context so intermediates inside the function can be reused across calls.
// The function's scope ends before Call returns, so the results come with a
// holder each (Retain) that carries them across; the caller Releases them
// once it has bound them.
func (f *FunctionBlock) Call(ctx *Context, positional []Data, named map[string]Data,
	positionalLineage []*lineage.Item, namedLineage map[string]*lineage.Item) ([]Data, []*lineage.Item, error) {
	child := ctx.ChildEmpty()
	defer child.ReleaseVars()
	// bind defaults first; a default is a scalar literal, traced by its
	// value like every scalar (LineageOf)
	for _, p := range f.Params {
		if p.Default != nil {
			child.Set(p.Name, p.Default)
		}
	}
	// bind positional
	if len(positional) > len(f.Params) {
		return nil, nil, fmt.Errorf("runtime: function %s takes %d parameters, got %d arguments", f.Name, len(f.Params), len(positional))
	}
	for i, d := range positional {
		child.Set(f.Params[i].Name, d)
		if positionalLineage != nil && i < len(positionalLineage) && positionalLineage[i] != nil {
			child.Lineage.Set(f.Params[i].Name, positionalLineage[i])
		}
	}
	// bind named, in sorted order so the binding sequence (and which
	// unknown-parameter error surfaces first) is identical across runs
	namedOrder := make([]string, 0, len(named))
	for name := range named {
		namedOrder = append(namedOrder, name)
	}
	sort.Strings(namedOrder)
	for _, name := range namedOrder {
		d := named[name]
		found := false
		for _, p := range f.Params {
			if p.Name == name {
				found = true
				break
			}
		}
		if !found {
			return nil, nil, fmt.Errorf("runtime: function %s has no parameter %q", f.Name, name)
		}
		child.Set(name, d)
		if namedLineage != nil {
			if it, ok := namedLineage[name]; ok && it != nil {
				child.Lineage.Set(name, it)
			}
		}
	}
	// verify all required parameters are bound
	for _, p := range f.Params {
		if !child.Has(p.Name) {
			return nil, nil, fmt.Errorf("runtime: function %s: missing required argument %q", f.Name, p.Name)
		}
	}
	for _, blk := range f.Body {
		if err := blk.Execute(child); err != nil {
			return nil, nil, fmt.Errorf("in function %s: %w", f.Name, err)
		}
	}
	outs := make([]Data, len(f.Returns))
	lins := make([]*lineage.Item, len(f.Returns))
	for i, r := range f.Returns {
		d, err := child.Get(r)
		if err != nil {
			return nil, nil, fmt.Errorf("runtime: function %s did not assign return variable %q", f.Name, r)
		}
		outs[i] = d
		lins[i] = child.LineageOf(r)
	}
	for _, d := range outs {
		Retain(d)
	}
	return outs, lins, nil
}

// OutputItems returns the function-level lineage items of a pure call, one
// per return: output i is fcall(name;bodyHash#i) over the argument items in
// parameter order, a parameter left unbound traced by its default's value.
// The items depend on what the call binds, never on whether its body runs,
// so a hit and a miss trace alike. nil when the arguments do not bind every
// parameter exactly (Call then reports why).
func (f *FunctionBlock) OutputItems(bodyHash string, positional []*lineage.Item, named map[string]*lineage.Item) []*lineage.Item {
	if len(positional) > len(f.Params) {
		return nil
	}
	inputs := make([]*lineage.Item, len(f.Params))
	copy(inputs, positional)
	bound := len(positional)
	for i, p := range f.Params {
		it, ok := named[p.Name]
		switch {
		case ok && i < len(positional):
			return nil // bound twice
		case ok:
			inputs[i] = it
			bound++
		case i >= len(positional) && p.Default != nil:
			inputs[i] = ScalarItem(p.Default.(*Scalar))
		case i >= len(positional):
			return nil
		}
	}
	if bound != len(positional)+len(named) {
		return nil // a name that is no parameter
	}
	items := make([]*lineage.Item, len(f.Returns))
	for i := range items {
		items[i] = lineage.NewInstruction("fcall", f.Name+";"+bodyHash+"#"+strconv.Itoa(i), inputs...)
	}
	return items
}
