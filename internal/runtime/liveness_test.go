package runtime

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/systemds/systemds-go/internal/bufferpool"
	"github.com/systemds/systemds-go/internal/dist"
	"github.com/systemds/systemds-go/internal/lineage"
	"github.com/systemds/systemds-go/internal/matrix"
)

// A 100x100 block is 80 064 bytes in memory; a pool of poolOf(n) holds n of
// them and evicts with the next.
const liveBlockBytes = 100*100*8 + 64

func poolOf(n int) int64 { return int64(n)*liveBlockBytes + liveBlockBytes/2 }

func liveContext(t *testing.T, budget int64) *Context {
	t.Helper()
	cfg := DefaultConfig()
	cfg.BufferPoolBudget = budget
	cfg.TempDir = t.TempDir()
	cfg.ReuseEnabled = true
	return NewContext(cfg)
}

func liveBlock(seed int64) *matrix.MatrixBlock { return matrix.RandUniform(100, 100, -1, 1, 1, seed) }

func bitsEqual(a, b *matrix.MatrixBlock) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return false
	}
	for r := 0; r < a.Rows(); r++ {
		for c := 0; c < a.Cols(); c++ {
			if math.Float64bits(a.Get(r, c)) != math.Float64bits(b.Get(r, c)) {
				return false
			}
		}
	}
	return true
}

func dirEntries(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names
}

// squeeze pushes everything older out of a pool of poolOf(1): a fresh block is
// registered, held for a moment and let go again.
func squeeze(pool *bufferpool.Pool) {
	tmp := NewMatrixObject(matrix.NewDense(100, 100), pool)
	tmp.Retain()
	tmp.Release()
}

// TestMatrixObjectIsWrittenOnce: a matrix object that is evicted, restored
// and evicted again costs one file write; the later evictions are clean
// drops, and every restore returns the original bits.
func TestMatrixObjectIsWrittenOnce(t *testing.T) {
	ctx := liveContext(t, poolOf(1))
	want := liveBlock(1)
	mo := NewMatrixObject(want.Copy(), ctx.Pool)
	ctx.Set("X", mo)
	path := ctx.Pool.SpillPath(mo.PoolID())
	var firstWrite os.FileInfo
	for round := 1; round <= 3; round++ {
		squeeze(ctx.Pool)
		if mo.IsInMemory() {
			t.Fatalf("round %d: X still in memory", round)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if firstWrite == nil {
			firstWrite = fi
		} else if !fi.ModTime().Equal(firstWrite.ModTime()) {
			t.Errorf("round %d: the spill file was rewritten", round)
		}
		got, err := mo.Acquire()
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !bitsEqual(got, want) {
			t.Fatalf("round %d: restored block differs", round)
		}
	}
	st := ctx.Pool.Stats()
	if wantBytes := firstWrite.Size(); st.Evictions != 1 || st.BytesSpilt != wantBytes || st.CleanDrops < 2 || st.Restores != 3 {
		t.Errorf("stats = %+v, want 1 eviction of %d bytes, >= 2 clean drops, 3 restores", st, wantBytes)
	}
}

// TestRebindUnregistersTheOldValue: the value a binding replaces leaves the
// pool with its spill file, whether the binding goes by Set, Remove or the
// temporary clean-up.
func TestRebindUnregistersTheOldValue(t *testing.T) {
	ctx := liveContext(t, poolOf(1))
	for _, drop := range []struct {
		name string
		do   func()
	}{
		{"Set", func() { ctx.SetMatrix("v", matrix.NewDense(2, 2)) }},
		{"Remove", func() { ctx.Remove("v") }},
		{"CleanupTemporaries", func() { ctx.CleanupTemporaries("v") }},
	} {
		old := NewMatrixObject(liveBlock(2), ctx.Pool)
		ctx.Set("v", old)
		squeeze(ctx.Pool)
		path := ctx.Pool.SpillPath(old.PoolID())
		if _, err := os.Stat(path); err != nil {
			t.Fatalf("%s: scenario did not spill v: %v", drop.name, err)
		}
		before := ctx.Pool.Len()
		drop.do()
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s: the old value's spill file is still there (err %v)", drop.name, err)
		}
		if old.Held() {
			t.Errorf("%s: the old value still has a holder", drop.name)
		}
		if drop.name != "Set" && ctx.Pool.Len() != before-1 {
			t.Errorf("%s: pool has %d entries, want %d", drop.name, ctx.Pool.Len(), before-1)
		}
		ctx.Remove("v")
	}
	if left := dirEntries(t, ctx.Config.TempDir); len(left) != 0 {
		t.Errorf("spill files left behind: %v", left)
	}
	if ctx.Pool.Len() != 0 {
		t.Errorf("pool still tracks %d entries", ctx.Pool.Len())
	}
}

// TestSharedValueSurvivesRebind: a value with a second holder — another name,
// a list, a function scope, a parfor child, the reuse cache — stays in the
// pool when one binding goes, restores from its spill file, and leaves when
// the second holder lets go.
func TestSharedValueSurvivesRebind(t *testing.T) {
	holders := []struct {
		name string
		// hold makes a second holder of mo and returns how to end it
		hold func(ctx *Context, mo *MatrixObject) (letGo func())
	}{
		{"second name", func(ctx *Context, mo *MatrixObject) func() {
			ctx.Set("alias", mo)
			return func() { ctx.Remove("alias") }
		}},
		{"list element", func(ctx *Context, mo *MatrixObject) func() {
			ctx.Set("l", NewListObject([]Data{NewDouble(1), mo}, []string{"a", "m"}))
			return func() { ctx.Remove("l") }
		}},
		{"function scope", func(ctx *Context, mo *MatrixObject) func() {
			scope := ctx.ChildEmpty()
			scope.Set("arg", mo)
			return scope.ReleaseVars
		}},
		{"parfor child", func(ctx *Context, mo *MatrixObject) func() {
			return ctx.ChildCopy().ReleaseVars
		}},
		{"reuse cache", func(ctx *Context, mo *MatrixObject) func() {
			ctx.Cache.Put(lineage.NewInstruction("op", "x", lineage.NewLiteral("1")), mo, liveBlockBytes, 1)
			return ctx.Cache.Clear
		}},
	}
	for _, h := range holders {
		t.Run(h.name, func(t *testing.T) {
			ctx := liveContext(t, poolOf(1))
			want := liveBlock(3)
			mo := NewMatrixObject(want.Copy(), ctx.Pool)
			ctx.Set("v", mo)
			letGo := h.hold(ctx, mo)
			ctx.SetMatrix("v", matrix.NewDense(2, 2)) // rebinds v: one holder less
			squeeze(ctx.Pool)
			path := ctx.Pool.SpillPath(mo.PoolID())
			if _, err := os.Stat(path); err != nil {
				t.Fatalf("the shared value was not spilt, or lost its file: %v", err)
			}
			if mo.IsInMemory() {
				t.Fatal("scenario did not evict the shared value")
			}
			got, err := mo.Acquire()
			if err != nil {
				t.Fatalf("restore after the rebind: %v", err)
			}
			if !bitsEqual(got, want) {
				t.Error("restored block differs")
			}
			letGo()
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("spill file outlives the last holder (err %v)", err)
			}
			if mo.Held() {
				t.Error("value still held after the last holder let go")
			}
		})
	}
}

// TestFunctionResultOutlivesItsScope: a matrix a function builds is handed to
// the caller held, so the scope's end does not take it out of the pool, and
// it leaves the pool once the caller has rebound it.
func TestFunctionResultOutlivesItsScope(t *testing.T) {
	ctx := liveContext(t, poolOf(1))
	want := liveBlock(4)
	var made *MatrixObject
	fb := &FunctionBlock{
		Name:    "make",
		Params:  []FunctionParam{{Name: "a"}},
		Returns: []string{"out"},
		Body: []ProgramBlock{&BasicBlock{Instructions: []Instruction{
			&fakeInst{opcode: "calc", inputs: []string{"a"}, outputs: []string{"out", "tmp"}, execute: func(c *Context) error {
				made = NewMatrixObject(want.Copy(), c.Pool)
				c.Set("out", made)
				c.SetMatrix("tmp", liveBlock(5)) // evicts out; dies with the scope
				return nil
			}},
		}}},
	}
	arg := NewMatrixObject(liveBlock(6), ctx.Pool)
	ctx.Set("A", arg)
	outs, _, err := fb.Call(ctx, []Data{arg}, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if made.IsInMemory() {
		t.Fatal("scenario did not evict the result inside the function")
	}
	if !made.Held() || !arg.Held() {
		t.Fatalf("after the call: result held %v, argument held %v; want both", made.Held(), arg.Held())
	}
	ctx.Set("R", outs[0])
	Release(outs[0])
	if ctx.Pool.Len() != 2 {
		t.Errorf("pool tracks %d entries after the call, want the argument and the result", ctx.Pool.Len())
	}
	got, err := ctx.GetMatrixBlock("R")
	if err != nil {
		t.Fatalf("the result lost its spill file to the scope's end: %v", err)
	}
	if !bitsEqual(got, want) {
		t.Error("result differs")
	}
	ctx.ReleasePool()
	if left := dirEntries(t, ctx.Config.TempDir); len(left) != 0 || ctx.Pool.Len() != 0 {
		t.Errorf("after ReleasePool: files %v, %d entries", left, ctx.Pool.Len())
	}
}

// TestParforChildrenReleaseWhatTheyHeld: after a parfor, the values its
// workers created and did not merge are gone from the pool, the merged result
// and the untouched inputs are still there.
func TestParforChildrenReleaseWhatTheyHeld(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Parallelism = 3
	cfg.BufferPoolBudget = poolOf(2)
	cfg.TempDir = t.TempDir()
	ctx := NewContext(cfg)
	ctx.SetMatrix("X", liveBlock(7))
	ctx.SetMatrix("R", matrix.NewDense(1, 6))
	iter := &BasicBlock{Instructions: []Instruction{
		&fakeInst{opcode: "seq", outputs: []string{"_it"}, execute: func(c *Context) error {
			c.SetMatrix("_it", matrix.Seq(1, 6, 1))
			return nil
		}},
	}}
	body := &BasicBlock{Instructions: []Instruction{
		&fakeInst{opcode: "set", inputs: []string{"R", "X", "i"}, outputs: []string{"R", "scratch"}, execute: func(c *Context) error {
			i, _ := c.GetScalar("i")
			x, err := c.GetMatrixBlock("X")
			if err != nil {
				return err
			}
			c.SetMatrix("scratch", liveBlock(int64(i.Float64()))) // pressure; never merged
			blk, err := c.GetMatrixBlock("R")
			if err != nil {
				return err
			}
			updated := blk.Copy()
			updated.Set(0, int(i.Float64())-1, x.Get(0, 0)*i.Float64())
			c.SetMatrix("R", updated)
			c.NoteRegion("R", 0, 1, int(i.Float64())-1, int(i.Float64()))
			return nil
		}},
	}}
	pf := &ForBlock{Var: "i", Iterable: iter, IterVar: "_it", Body: []ProgramBlock{body},
		Parallel: true, ResultVars: []string{"R"}, IndexedVars: []string{"R"}}
	if err := pf.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	x, err := ctx.GetMatrixBlock("X")
	if err != nil {
		t.Fatal(err)
	}
	r, err := ctx.GetMatrixBlock("R")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if want := x.Get(0, 0) * float64(i+1); r.Get(0, i) != want {
			t.Errorf("R[0,%d] = %v, want %v", i, r.Get(0, i), want)
		}
	}
	if n := ctx.Pool.Len(); n != 2 {
		t.Errorf("pool tracks %d entries after the parfor, want X and R", n)
	}
	ctx.ReleasePool()
	if left := dirEntries(t, cfg.TempDir); len(left) != 0 {
		t.Errorf("spill files left behind: %v", left)
	}
}

// TestSpiltBlockResidentMemo: under pressure an object serving dist consumers
// writes its block once and keeps the partition; the memo then answers without
// I/O, a CP consumer costs exactly one restore, and the object gives up the
// form it was not asked for last.
func TestSpiltBlockResidentMemo(t *testing.T) {
	ctx := liveContext(t, 0)
	want := liveBlock(8)
	pool := bufferpool.New(3*liveBlockBytes, ctx.Config.TempDir)
	mo := NewMatrixObject(want.Copy(), pool)
	mo.Retain()
	bm, err := dist.FromMatrixBlock(want, 50)
	if err != nil {
		t.Fatal(err)
	}
	mo.StoreBlocked(bm, 50)
	if got := pool.InMemoryBytes(); got != liveBlockBytes+bm.InMemorySize() {
		t.Fatalf("pool counts %d bytes, want block + memo = %d", got, liveBlockBytes+bm.InMemorySize())
	}
	other := NewMatrixObject(liveBlock(10), pool) // over budget: X sheds its block
	other.Retain()
	if mo.IsInMemory() {
		t.Fatal("the block should have gone to disk, the dist consumer came last")
	}
	if st := pool.Stats(); st.Evictions != 1 || st.BytesSpilt != fileBytes(t, pool.SpillPath(mo.PoolID())) {
		t.Fatalf("stats = %+v, want one eviction of the block's file size", st)
	}
	if got, ok := mo.CachedBlocked(50); !ok || got != bm {
		t.Fatal("memo not served from memory")
	}
	if st := pool.Stats(); st.Restores != 0 {
		t.Errorf("memo hit restored from disk: %+v", st)
	}
	if _, ok := mo.CachedBlocked(64); ok {
		t.Error("memo served for the wrong block size")
	}
	got, err := mo.Acquire() // a CP consumer: one restore, and now the memo is the spare form
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEqual(got, want) {
		t.Error("restored block differs")
	}
	if st := pool.Stats(); st.Restores != 1 {
		t.Errorf("stats = %+v, want 1 restore", st)
	}
	// the restore pushed the colder entry out; asking for that one back makes
	// X the victim, which now has both forms again and a clean block
	if other.IsInMemory() {
		t.Fatal("scenario did not evict the other entry")
	}
	if _, err := other.Acquire(); err != nil {
		t.Fatal(err)
	}
	if _, ok := mo.CachedBlocked(50); ok {
		t.Error("the memo should have been shed: the CP consumer came last")
	}
	if !mo.IsInMemory() {
		t.Error("the block the CP consumer asked for was evicted instead of the memo")
	}
	if st := pool.Stats(); st.Evictions != 2 || st.CleanDrops != 1 {
		t.Errorf("stats = %+v, want 2 evictions (X's block, the other entry) and 1 clean drop (the memo)", st)
	}
	mo.Release()
	other.Release()
	if left := dirEntries(t, ctx.Config.TempDir); len(left) != 0 || pool.Len() != 0 {
		t.Errorf("after the last holders: files %v, %d entries", left, pool.Len())
	}
}

// TestViewMemoCountsTheArrayOnce: a memo of row-strip views owns no bytes,
// so the pool counts the local block's bytes, not twice them. Evicting the
// object frees that array once: the block goes to disk and the memo with it,
// whichever form was asked for last, since views left behind would pin what
// the pool counts as freed. Views of the evicted block are not memoized
// again, and the restored block partitions afresh.
func TestViewMemoCountsTheArrayOnce(t *testing.T) {
	for _, distLast := range []bool{true, false} {
		ctx := liveContext(t, 0)
		pool := bufferpool.New(poolOf(1), ctx.Config.TempDir)
		want := liveBlock(8)
		mo := NewMatrixObject(want.Copy(), pool)
		mo.Retain()
		blk, err := mo.Acquire()
		if err != nil {
			t.Fatal(err)
		}
		bm, err := dist.FromMatrixBlock(blk, 100)
		if err != nil || bm.View != blk {
			t.Fatalf("not a view partition (%v)", err)
		}
		mo.StoreBlocked(bm, 100)
		if got, ok := mo.CachedBlocked(100); !ok || got != bm {
			t.Fatal("view memo not kept")
		}
		if got := pool.InMemoryBytes(); got != liveBlockBytes || mo.MemorySize() != liveBlockBytes {
			t.Fatalf("pool counts %d bytes, object %d, want the block's %d", got, mo.MemorySize(), liveBlockBytes)
		}
		if !distLast {
			if _, err := mo.Acquire(); err != nil {
				t.Fatal(err)
			}
		}
		squeeze(pool)
		if mo.IsInMemory() {
			t.Fatalf("distLast=%v: the block is still resident", distLast)
		}
		if _, ok := mo.CachedBlocked(100); ok {
			t.Errorf("distLast=%v: the views outlived the block they view", distLast)
		}
		if got := pool.InMemoryBytes(); got != 0 {
			t.Errorf("distLast=%v: pool counts %d bytes after the eviction, want 0", distLast, got)
		}
		if st := pool.Stats(); st.Evictions != 1 || st.CleanDrops != 0 {
			t.Errorf("distLast=%v: stats = %+v, want one eviction and no clean drop", distLast, st)
		}
		mo.StoreBlocked(bm, 100)
		if _, ok := mo.CachedBlocked(100); ok {
			t.Errorf("distLast=%v: views of the evicted block were memoized", distLast)
		}
		back, err := mo.Acquire()
		if err != nil || !bitsEqual(back, want) {
			t.Fatalf("distLast=%v: restored block differs (%v)", distLast, err)
		}
		again, err := dist.FromMatrixBlock(back, 100)
		if err != nil || again.View != back {
			t.Fatalf("distLast=%v: the restored block did not partition into views (%v)", distLast, err)
		}
		mo.StoreBlocked(again, 100)
		if got := pool.InMemoryBytes(); got != liveBlockBytes {
			t.Errorf("distLast=%v: pool counts %d bytes after the second partition, want %d", distLast, got, liveBlockBytes)
		}
		mo.Release()
		if got := pool.InMemoryBytes(); got != 0 || pool.Len() != 0 {
			t.Errorf("distLast=%v: after the last holder: %d bytes, %d entries", distLast, got, pool.Len())
		}
	}
}

// viewPartitioned returns a matrix object over a dense rows x 100 block
// with the view partition (blocksize 100) memoized on it, and the partition.
func viewPartitioned(t *testing.T, pool *bufferpool.Pool, rows int, seed int64) (*MatrixObject, *dist.BlockedMatrix) {
	t.Helper()
	mo := NewMatrixObject(matrix.RandUniform(rows, 100, -1, 1, 1, seed), pool)
	mo.Retain()
	blk, err := mo.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	bm, err := dist.FromMatrixBlock(blk, 100)
	if err != nil || bm.View != blk {
		t.Fatalf("not a view partition (%v)", err)
	}
	mo.StoreBlocked(bm, 100)
	return mo, bm
}

// TestConcatenationCountsSharedBlocksOnce: a blocked cbind(Z, Z) of a
// view-partitioned 600x100 Z (blocksize 100: Z's columns fill whole blocks)
// is twelve references to Z's six row-strip views, 960 768 bytes if each
// counted. The pool counts Z's array once, however many entries hold it and
// in whichever order they let go: Z's last holder going frees nothing the
// cbind still holds, and the cbind going frees it.
func TestConcatenationCountsSharedBlocksOnce(t *testing.T) {
	ctx := liveContext(t, 0)
	pool := bufferpool.New(0, ctx.Config.TempDir)
	mo, zb := viewPartitioned(t, pool, 600, 11)
	zBytes := mo.MemorySize()
	zz, err := dist.CBind(zb, zb, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := zz.InMemorySize(); got != 960768 {
		t.Fatalf("cbind(Z, Z) blocks add up to %d bytes, want 960768", got)
	}
	bo := NewBlockedMatrixObject(zz, pool)
	bo.Retain()
	if got := pool.InMemoryBytes(); got != zBytes || bo.MemorySize() != zBytes {
		t.Errorf("pool counts %d bytes (the cbind %d), want Z's %d once", got, bo.MemorySize(), zBytes)
	}
	mo.Release()
	if got := pool.InMemoryBytes(); got != zBytes {
		t.Errorf("after Z's last holder: pool counts %d bytes, want the %d the cbind still holds", got, zBytes)
	}
	bo.Release()
	if got := pool.InMemoryBytes(); got != 0 || pool.Len() != 0 {
		t.Errorf("after the cbind's last holder: %d bytes, %d entries", got, pool.Len())
	}

	// copied partitions: each block is its own array
	s := matrix.RandUniform(600, 100, -1, 1, 0.05, 12)
	sb, err := dist.FromMatrixBlock(s, 100)
	if err != nil || sb.View != nil {
		t.Fatalf("not a copied partition (%v)", err)
	}
	held := NewBlockedMatrixObject(sb, pool)
	ss, err := dist.RBind(sb, sb, 1)
	if err != nil || len(ss.Shared) != len(sb.Blocks) {
		t.Fatalf("rbind of block-aligned rows did not share its blocks (%v)", err)
	}
	NewBlockedMatrixObject(ss, pool)
	if got := pool.InMemoryBytes(); got != sb.InMemorySize() || held.MemorySize() != sb.InMemorySize() {
		t.Errorf("pool counts %d bytes after rbind(S, S), want %d: S's blocks once", got, sb.InMemorySize())
	}
}

// TestEvictingASharerFreesOnlyWhatNoOneHolds: under a budget of 1.5 Z, Z
// (600x100, view-partitioned), cbind(Z, Z) and a filler as large as Z
// overshoot. The cbind is coldest: evicting it spills its blocks but frees
// nothing, since Z still holds the array, so the pool goes on to Z, which
// frees it. The pool then counts the filler alone, as resident.
func TestEvictingASharerFreesOnlyWhatNoOneHolds(t *testing.T) {
	ctx := liveContext(t, 0)
	zBytes := matrix.RandUniform(600, 100, -1, 1, 1, 13).InMemorySize()
	pool := bufferpool.New(zBytes+zBytes/2, ctx.Config.TempDir)
	mo, zb := viewPartitioned(t, pool, 600, 13)
	zz, err := dist.CBind(zb, zb, 1)
	if err != nil {
		t.Fatal(err)
	}
	bo := NewBlockedMatrixObject(zz, pool)
	if _, err := mo.Acquire(); err != nil { // Z is hotter than the cbind
		t.Fatal(err)
	}
	filler := NewMatrixObject(matrix.RandUniform(600, 100, -1, 1, 1, 14), pool)
	if bo.IsInMemory() || mo.IsInMemory() || !filler.IsInMemory() {
		t.Fatalf("resident after the squeeze: cbind %v, Z %v, filler %v; want the filler alone",
			bo.IsInMemory(), mo.IsInMemory(), filler.IsInMemory())
	}
	if got := pool.InMemoryBytes(); got != filler.MemorySize() {
		t.Errorf("pool counts %d bytes, want the filler's %d", got, filler.MemorySize())
	}
	if st := pool.Stats(); st.Evictions != 2 || st.BytesSpilt < 2*zBytes {
		t.Errorf("stats = %+v, want two evictions writing the cbind and Z", st)
	}
	back, err := bo.Blocked()
	if err != nil {
		t.Fatal(err)
	}
	for i, blk := range back.Blocks {
		if !bitsEqual(blk, zz.Blocks[i]) {
			t.Fatalf("restored block %d differs", i)
		}
	}
}

// TestRBindLoopStaysCounted: X = rbind(X, B) in a loop, X's rows
// block-aligned, B a fresh 100x50 temporary each iteration, under a budget
// of four B's. Each new X takes the old X's and B's blocks by reference and
// both let go right after, as temporaries and rebound names do: the pool
// must keep counting exactly the blocks X holds, and spill X when they
// outgrow the budget.
func TestRBindLoopStaysCounted(t *testing.T) {
	ctx := liveContext(t, 0)
	bBytes := matrix.RandUniform(100, 50, -1, 1, 1, 1).InMemorySize()
	pool := bufferpool.New(4*bBytes, ctx.Config.TempDir)
	first, err := dist.FromMatrixBlock(matrix.RandUniform(100, 50, -1, 1, 1, 1), 100)
	if err != nil {
		t.Fatal(err)
	}
	x := NewBlockedMatrixObject(first, pool)
	x.Retain()
	for i := 2; i <= 10; i++ {
		bm, err := dist.FromMatrixBlock(matrix.RandUniform(100, 50, -1, 1, 1, int64(i)), 100)
		if err != nil {
			t.Fatal(err)
		}
		b := NewBlockedMatrixObject(bm, pool)
		b.Retain()
		xb, err := x.Blocked()
		if err != nil {
			t.Fatal(err)
		}
		bb, err := b.Blocked()
		if err != nil {
			t.Fatal(err)
		}
		next, err := dist.RBind(xb, bb, 1)
		if err != nil || next.Shared == nil {
			t.Fatalf("iteration %d: rbind did not share its blocks (%v)", i, err)
		}
		nx := NewBlockedMatrixObject(next, pool)
		nx.Retain()
		b.Release()
		x.Release()
		x = nx
		var resident int64
		if x.IsInMemory() {
			resident = x.MemorySize()
		}
		if got := pool.InMemoryBytes(); got != resident {
			t.Fatalf("iteration %d: pool counts %d bytes, X holds %d", i, got, resident)
		}
		if resident > 4*bBytes {
			t.Fatalf("iteration %d: %d resident bytes over the %d budget", i, resident, 4*bBytes)
		}
	}
	if st := pool.Stats(); st.Evictions == 0 {
		t.Errorf("X grew to ten B's under a budget of four and nothing was spilt: %+v", st)
	}
	got, err := x.Blocked()
	if err != nil || got.Rows != 1000 {
		t.Fatalf("final X: %v", err)
	}
	x.Release()
	if n := pool.InMemoryBytes(); n != 0 || pool.Len() != 0 {
		t.Errorf("after the last holder: %d bytes, %d entries", n, pool.Len())
	}
}

func fileBytes(t *testing.T, path string) int64 {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestBlockedObjectCleanReEviction: the per-block spill files of a blocked
// object are written once, every restore is spanned by the pool's counters,
// and they go when the object does.
func TestBlockedObjectCleanReEviction(t *testing.T) {
	dir := t.TempDir()
	pool := bufferpool.New(liveBlockBytes+4*64, dir)
	src := liveBlock(9)
	bm, err := dist.FromMatrixBlock(src, 50)
	if err != nil {
		t.Fatal(err)
	}
	bo := NewBlockedMatrixObject(bm, pool)
	bo.Retain()
	for round := 1; round <= 2; round++ {
		squeeze(pool)
		if bo.IsInMemory() {
			t.Fatalf("round %d: blocked object still in memory", round)
		}
		back, err := bo.LocalFor(NewContext(DefaultConfig()), "other")
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(back, src) {
			t.Fatalf("round %d: restored blocks differ", round)
		}
	}
	st := pool.Stats()
	if st.Evictions != 1 || st.CleanDrops != 1 || st.Restores != 2 {
		t.Errorf("stats = %+v, want 1 eviction, 1 clean drop, 2 restores", st)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*.b*")); len(files) != 4 {
		t.Errorf("%d per-block files, want 4", len(files))
	}
	bo.Release()
	if left := dirEntries(t, dir); len(left) != 0 {
		t.Errorf("files left after the last holder: %v", left)
	}
}
