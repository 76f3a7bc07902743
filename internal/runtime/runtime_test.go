package runtime

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"github.com/systemds/systemds-go/internal/lineage"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/types"
)

func TestScalarValues(t *testing.T) {
	d := NewDouble(2.5)
	if d.Float64() != 2.5 || d.DataType() != types.Scalar || d.StringValue() != "2.5" {
		t.Error("double scalar wrong")
	}
	i := NewInt(7)
	if i.Int64() != 7 || i.StringValue() != "7" {
		t.Error("int scalar wrong")
	}
	b := NewBool(true)
	if !b.Bool() || b.Float64() != 1 || b.StringValue() != "TRUE" {
		t.Error("bool scalar wrong")
	}
	s := NewString("3.5")
	if s.Float64() != 3.5 || s.StringValue() != "3.5" {
		t.Error("string scalar wrong")
	}
	if NewString("true").Bool() != true || NewString("abc").Float64() != 0 {
		t.Error("string coercions wrong")
	}
}

func TestMatrixObjectAcquireAndEvict(t *testing.T) {
	ctx := NewContext(DefaultConfig())
	m := matrix.RandUniform(20, 10, -1, 1, 1.0, 1)
	mo := NewMatrixObject(m, ctx.Pool)
	blk, err := mo.Acquire()
	if err != nil || !blk.Equals(m, 0) {
		t.Fatalf("acquire: %v", err)
	}
	dc := mo.DataCharacteristics()
	if dc.Rows != 20 || dc.Cols != 10 {
		t.Errorf("dc = %v", dc)
	}
	// evict to a temp file and restore
	spill := t.TempDir() + "/spill.bin"
	if _, _, err := mo.Evict(spill, false); err != nil {
		t.Fatal(err)
	}
	if mo.IsInMemory() || mo.MemorySize() != 0 {
		t.Error("eviction did not drop in-memory data")
	}
	restored, err := mo.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Equals(m, 0) {
		t.Error("restored block differs")
	}
	if !mo.IsInMemory() {
		t.Error("block should be back in memory")
	}
}

func TestContextSymbolTable(t *testing.T) {
	ctx := NewContext(DefaultConfig())
	ctx.Set("a", NewDouble(1))
	ctx.SetMatrix("M", matrix.NewDense(2, 2))
	if !ctx.Has("a") || !ctx.Has("M") || ctx.Has("z") {
		t.Error("Has wrong")
	}
	if _, err := ctx.GetScalar("a"); err != nil {
		t.Error(err)
	}
	if _, err := ctx.GetScalar("M"); err == nil {
		t.Error("expected type error")
	}
	if _, err := ctx.GetMatrixObject("M"); err != nil {
		t.Error(err)
	}
	if _, err := ctx.GetMatrixObject("a"); err == nil {
		t.Error("expected type error")
	}
	if _, err := ctx.GetMatrixBlock("a"); err != nil {
		t.Error("scalars should promote to 1x1 matrices")
	}
	if _, err := ctx.Get("zz"); err == nil {
		t.Error("expected missing variable error")
	}
	ctx.Remove("a")
	if ctx.Has("a") {
		t.Error("Remove failed")
	}
}

func TestContextChildSemantics(t *testing.T) {
	ctx := NewContext(DefaultConfig())
	ctx.Set("x", NewDouble(1))
	empty := ctx.ChildEmpty()
	if empty.Has("x") {
		t.Error("ChildEmpty should not inherit variables")
	}
	cp := ctx.ChildCopy()
	if !cp.Has("x") {
		t.Error("ChildCopy should inherit variables")
	}
	cp.Set("x", NewDouble(2))
	if v, _ := ctx.GetScalar("x"); v.Float64() != 1 {
		t.Error("child write leaked into parent")
	}
}

func TestCleanupTemporaries(t *testing.T) {
	ctx := NewContext(DefaultConfig())
	ctx.Set(TempPrefix+"1", NewDouble(1))
	ctx.Set("keep", NewDouble(2))
	ctx.CleanupTemporaries(TempPrefix)
	if ctx.Has(TempPrefix+"1") || !ctx.Has("keep") {
		t.Error("cleanup removed the wrong variables")
	}
}

// fakeInst is a scriptable instruction for runtime tests.
type fakeInst struct {
	opcode  string
	inputs  []string
	outputs []string
	data    string
	execute func(ctx *Context) error
	runs    atomic.Int64
}

func (f *fakeInst) Opcode() string    { return f.opcode }
func (f *fakeInst) Inputs() []string  { return f.inputs }
func (f *fakeInst) Outputs() []string { return f.outputs }
func (f *fakeInst) Lineage(ctx *Context) (string, []*lineage.Item) {
	items := make([]*lineage.Item, len(f.inputs))
	for i, in := range f.inputs {
		items[i] = ctx.LineageOf(in)
	}
	return f.data, items
}
func (f *fakeInst) Execute(ctx *Context) error {
	f.runs.Add(1)
	return f.execute(ctx)
}

func TestExecuteInstructionLineageAndReuse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReuseEnabled = true
	ctx := NewContext(cfg)
	ctx.SetMatrix("X", matrix.RandUniform(10, 4, -1, 1, 1.0, 2))
	inst := &fakeInst{
		opcode: "expensive", inputs: []string{"X"}, outputs: []string{"G"},
		execute: func(ctx *Context) error {
			blk, err := ctx.GetMatrixBlock("X")
			if err != nil {
				return err
			}
			ctx.SetMatrix("G", matrix.TSMM(blk, 1))
			return nil
		},
	}
	if err := ExecuteInstruction(ctx, inst); err != nil {
		t.Fatal(err)
	}
	if !ctx.Lineage.Has("G") {
		t.Error("output lineage not traced")
	}
	// identical re-execution is answered from the cache
	if err := ExecuteInstruction(ctx, inst); err != nil {
		t.Fatal(err)
	}
	if inst.runs.Load() != 1 {
		t.Errorf("instruction ran %d times, want 1 (second run reused)", inst.runs.Load())
	}
	if ctx.Cache.Stats().Hits != 1 {
		t.Errorf("cache stats = %+v", ctx.Cache.Stats())
	}
}

func TestExecuteInstructionNonCacheableOpcodes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ReuseEnabled = true
	ctx := NewContext(cfg)
	inst := &fakeInst{
		opcode: "rand", outputs: []string{"R"},
		execute: func(ctx *Context) error {
			ctx.SetMatrix("R", matrix.RandUniform(2, 2, 0, 1, 1.0, 3))
			return nil
		},
	}
	_ = ExecuteInstruction(ctx, inst)
	_ = ExecuteInstruction(ctx, inst)
	if inst.runs.Load() != 2 {
		t.Errorf("rand should never be reused, ran %d times", inst.runs.Load())
	}
}

// TestReuseAdmissionDependsOnThePlanOnly pins the admission rule: what is
// probed and cached follows from opcode, output arity and input data types, so
// the counters below are exact and repeat on every run — a slow scalar
// instruction is not admitted for being slow, a fast matrix one is not left
// out for being fast.
func TestReuseAdmissionDependsOnThePlanOnly(t *testing.T) {
	scalarOut := func(c *Context) error { c.Set("out", NewDouble(1)); return nil }
	cases := []struct {
		name    string
		opcode  string
		inputs  []string
		outputs []string
		execute func(c *Context) error
		probed  bool
	}{
		{"matrix result over a matrix", "t", []string{"X"}, []string{"out"},
			func(c *Context) error { c.SetMatrix("out", matrix.NewDense(2, 2)); return nil }, true},
		{"aggregate of a matrix", "sum", []string{"X"}, []string{"out"}, scalarOut, true},
		{"matrix-scalar arithmetic", "*", []string{"X", "s"}, []string{"out"},
			func(c *Context) error { c.SetMatrix("out", matrix.NewDense(2, 2)); return nil }, true},
		{"metadata read", "ncol", []string{"X"}, []string{"out"}, scalarOut, false},
		{"variable binding", "assignvar", []string{"X"}, []string{"out"}, scalarOut, false},
		{"scalar-only arithmetic, however slow", "+", []string{"s", "s"}, []string{"out"},
			func(c *Context) error { time.Sleep(time.Millisecond); return scalarOut(c) }, false},
		{"matrix generator over scalars", "fill", []string{"s"}, []string{"out"},
			func(c *Context) error { c.SetMatrix("out", matrix.NewDense(2, 2)); return nil }, true},
		{"two outputs", "eigen", []string{"X"}, []string{"out", "out2"},
			func(c *Context) error { c.Set("out2", NewDouble(2)); return scalarOut(c) }, false},
		{"side effect", "print", []string{"X"}, []string{"out"}, scalarOut, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.ReuseEnabled = true
			ctx := NewContext(cfg)
			ctx.SetMatrix("X", matrix.NewDense(2, 2))
			ctx.Set("s", NewDouble(3))
			inst := &fakeInst{opcode: tc.opcode, inputs: tc.inputs, outputs: tc.outputs, data: "0=7", execute: tc.execute}
			for run := 0; run < 2; run++ {
				if err := ExecuteInstruction(ctx, inst); err != nil {
					t.Fatal(err)
				}
			}
			want := lineage.CacheStats{}
			wantRuns := int64(2)
			if tc.probed {
				want = lineage.CacheStats{Hits: 1, Misses: 1, Puts: 1}
				wantRuns = 1
			}
			got := ctx.Cache.Stats()
			got.BytesCached = 0
			if got != want || inst.runs.Load() != wantRuns {
				t.Errorf("stats = %+v after %d executions, want %+v after %d", got, inst.runs.Load(), want, wantRuns)
			}
			if !ctx.Lineage.Has("out") {
				t.Error("output lineage must be traced whether or not the cache is probed")
			}
		})
	}
}

func TestBasicBlockExecutionAndCleanup(t *testing.T) {
	ctx := NewContext(DefaultConfig())
	bb := &BasicBlock{CleanupTemps: true, Instructions: []Instruction{
		&fakeInst{opcode: "a", outputs: []string{TempPrefix + "t1"}, execute: func(c *Context) error {
			c.Set(TempPrefix+"t1", NewDouble(5))
			return nil
		}},
		&fakeInst{opcode: "b", inputs: []string{TempPrefix + "t1"}, outputs: []string{"out"}, execute: func(c *Context) error {
			v, err := c.GetScalar(TempPrefix + "t1")
			if err != nil {
				return err
			}
			c.Set("out", NewDouble(v.Float64()*2))
			return nil
		}},
	}}
	if err := bb.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if v, _ := ctx.GetScalar("out"); v.Float64() != 10 {
		t.Errorf("out = %v", v)
	}
	if ctx.Has(TempPrefix + "t1") {
		t.Error("temporaries not cleaned up")
	}
}

func TestBasicBlockRecompile(t *testing.T) {
	ctx := NewContext(DefaultConfig())
	recompiled := false
	bb := &BasicBlock{
		RequiresRecompile: true,
		Recompile: func(c *Context) ([]Instruction, error) {
			recompiled = true
			return []Instruction{&fakeInst{opcode: "x", outputs: []string{"v"}, execute: func(c *Context) error {
				c.Set("v", NewDouble(42))
				return nil
			}}}, nil
		},
	}
	if err := bb.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if !recompiled {
		t.Error("recompile callback not invoked")
	}
	if v, _ := ctx.GetScalar("v"); v.Float64() != 42 {
		t.Error("recompiled instructions did not run")
	}
}

func TestIfWhileForBlocks(t *testing.T) {
	ctx := NewContext(DefaultConfig())
	setPred := func(name string, val bool) *BasicBlock {
		return &BasicBlock{Instructions: []Instruction{
			&fakeInst{opcode: "p", outputs: []string{name}, execute: func(c *Context) error {
				c.Set(name, NewBool(val))
				return nil
			}},
		}}
	}
	marker := func(name string, v float64) ProgramBlock {
		return &BasicBlock{Instructions: []Instruction{
			&fakeInst{opcode: "m", outputs: []string{name}, execute: func(c *Context) error {
				c.Set(name, NewDouble(v))
				return nil
			}},
		}}
	}
	ifb := &IfBlock{Predicate: setPred("_p1", true), PredVar: "_p1",
		Then: []ProgramBlock{marker("branch", 1)}, Else: []ProgramBlock{marker("branch", 2)}}
	if err := ifb.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if v, _ := ctx.GetScalar("branch"); v.Float64() != 1 {
		t.Error("then branch not taken")
	}
	ifb2 := &IfBlock{Predicate: setPred("_p2", false), PredVar: "_p2",
		Then: []ProgramBlock{marker("branch2", 1)}, Else: []ProgramBlock{marker("branch2", 2)}}
	_ = ifb2.Execute(ctx)
	if v, _ := ctx.GetScalar("branch2"); v.Float64() != 2 {
		t.Error("else branch not taken")
	}

	// for block over a generated sequence
	iter := &BasicBlock{Instructions: []Instruction{
		&fakeInst{opcode: "seq", outputs: []string{"_iter"}, execute: func(c *Context) error {
			c.SetMatrix("_iter", matrix.Seq(1, 4, 1))
			return nil
		}},
	}}
	ctx.Set("acc", NewDouble(0))
	body := &BasicBlock{Instructions: []Instruction{
		&fakeInst{opcode: "add", inputs: []string{"acc", "i"}, outputs: []string{"acc"}, execute: func(c *Context) error {
			a, _ := c.GetScalar("acc")
			i, _ := c.GetScalar("i")
			c.Set("acc", NewDouble(a.Float64()+i.Float64()))
			return nil
		}},
	}}
	fb := &ForBlock{Var: "i", Iterable: iter, IterVar: "_iter", Body: []ProgramBlock{body}}
	if err := fb.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if v, _ := ctx.GetScalar("acc"); v.Float64() != 10 {
		t.Errorf("for sum = %v", v)
	}

	// while block: count down from 3
	ctx.Set("n", NewDouble(3))
	pred := &BasicBlock{Instructions: []Instruction{
		&fakeInst{opcode: "gt", inputs: []string{"n"}, outputs: []string{"_w"}, execute: func(c *Context) error {
			n, _ := c.GetScalar("n")
			c.Set("_w", NewBool(n.Float64() > 0))
			return nil
		}},
	}}
	dec := &BasicBlock{Instructions: []Instruction{
		&fakeInst{opcode: "dec", inputs: []string{"n"}, outputs: []string{"n"}, execute: func(c *Context) error {
			n, _ := c.GetScalar("n")
			c.Set("n", NewDouble(n.Float64()-1))
			return nil
		}},
	}}
	wb := &WhileBlock{Predicate: pred, PredVar: "_w", Body: []ProgramBlock{dec}}
	if err := wb.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if v, _ := ctx.GetScalar("n"); v.Float64() != 0 {
		t.Errorf("while end value = %v", v)
	}
}

func TestParForMergeMatrixResults(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = 4
	ctx := NewContext(cfg)
	ctx.SetMatrix("R", matrix.NewDense(1, 6))
	iter := &BasicBlock{Instructions: []Instruction{
		&fakeInst{opcode: "seq", outputs: []string{"_it"}, execute: func(c *Context) error {
			c.SetMatrix("_it", matrix.Seq(1, 6, 1))
			return nil
		}},
	}}
	body := &BasicBlock{Instructions: []Instruction{
		&fakeInst{opcode: "set", inputs: []string{"R", "i"}, outputs: []string{"R"}, execute: func(c *Context) error {
			i, _ := c.GetScalar("i")
			blk, err := c.GetMatrixBlock("R")
			if err != nil {
				return err
			}
			updated := blk.Copy()
			updated.Set(0, int(i.Float64())-1, i.Float64()*i.Float64())
			c.SetMatrix("R", updated)
			return nil
		}},
	}}
	pf := &ForBlock{Var: "i", Iterable: iter, IterVar: "_it", Body: []ProgramBlock{body},
		Parallel: true, ResultVars: []string{"R"}}
	if err := pf.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	blk, _ := ctx.GetMatrixBlock("R")
	for i := 0; i < 6; i++ {
		want := float64((i + 1) * (i + 1))
		if blk.Get(0, i) != want {
			t.Errorf("R[0,%d] = %v, want %v", i, blk.Get(0, i), want)
		}
	}
}

func TestParForWorkerErrorPropagates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = 2
	ctx := NewContext(cfg)
	iter := &BasicBlock{Instructions: []Instruction{
		&fakeInst{opcode: "seq", outputs: []string{"_it"}, execute: func(c *Context) error {
			c.SetMatrix("_it", matrix.Seq(1, 4, 1))
			return nil
		}},
	}}
	body := &BasicBlock{Instructions: []Instruction{
		&fakeInst{opcode: "boom", inputs: []string{"i"}, execute: func(c *Context) error {
			i, _ := c.GetScalar("i")
			if i.Float64() == 3 {
				return fmt.Errorf("worker failure at 3")
			}
			return nil
		}},
	}}
	pf := &ForBlock{Var: "i", Iterable: iter, IterVar: "_it", Body: []ProgramBlock{body}, Parallel: true}
	if err := pf.Execute(ctx); err == nil {
		t.Error("expected worker error to propagate")
	}
}

func TestFunctionBlockCall(t *testing.T) {
	ctx := NewContext(DefaultConfig())
	fb := &FunctionBlock{
		Name:    "addScaled",
		Params:  []FunctionParam{{Name: "a"}, {Name: "b"}, {Name: "f", Default: NewDouble(2)}},
		Returns: []string{"out"},
		Body: []ProgramBlock{&BasicBlock{Instructions: []Instruction{
			&fakeInst{opcode: "calc", inputs: []string{"a", "b", "f"}, outputs: []string{"out"}, execute: func(c *Context) error {
				a, _ := c.GetScalar("a")
				b, _ := c.GetScalar("b")
				f, _ := c.GetScalar("f")
				c.Set("out", NewDouble((a.Float64()+b.Float64())*f.Float64()))
				return nil
			}},
		}}},
	}
	outs, lins, err := fb.Call(ctx, []Data{NewDouble(1), NewDouble(2)}, nil,
		[]*lineage.Item{lineage.NewLiteral("1"), lineage.NewLiteral("2")}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].(*Scalar).Float64() != 6 {
		t.Errorf("call result = %v", outs[0])
	}
	if lins[0] == nil {
		t.Error("missing output lineage")
	}
	// named arguments and overriding the default
	outs, _, err = fb.Call(ctx, []Data{NewDouble(1)}, map[string]Data{"b": NewDouble(3), "f": NewDouble(10)}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].(*Scalar).Float64() != 40 {
		t.Errorf("named call result = %v", outs[0])
	}
	// missing required argument
	if _, _, err := fb.Call(ctx, nil, nil, nil, nil); err == nil {
		t.Error("expected missing argument error")
	}
	// unknown named argument
	if _, _, err := fb.Call(ctx, []Data{NewDouble(1), NewDouble(2)}, map[string]Data{"zz": NewDouble(0)}, nil, nil); err == nil {
		t.Error("expected unknown parameter error")
	}
	// too many positional arguments
	if _, _, err := fb.Call(ctx, []Data{NewDouble(1), NewDouble(2), NewDouble(3), NewDouble(4)}, nil, nil, nil); err == nil {
		t.Error("expected too-many-arguments error")
	}
}

func TestListObjectAndSizeOf(t *testing.T) {
	lo := NewListObject([]Data{NewDouble(1), NewString("x")}, []string{"a", "b"})
	if lo.DataType() != types.List {
		t.Error("list data type wrong")
	}
	if v, ok := lo.Lookup("b"); !ok || v.(*Scalar).S != "x" {
		t.Error("lookup failed")
	}
	if _, ok := lo.Lookup("zzz"); ok {
		t.Error("lookup should miss")
	}
	if SizeOf(NewDouble(1)) != 64 {
		t.Error("scalar size wrong")
	}
	mo := NewMatrixObject(matrix.NewDense(10, 10), nil)
	if SizeOf(mo) <= 0 {
		t.Error("matrix size estimate wrong")
	}
	if SizeOf(lo) <= 0 {
		t.Error("list size estimate wrong")
	}
}
