package runtime

import (
	"os"
	"testing"

	"github.com/systemds/systemds-go/internal/dist"
	"github.com/systemds/systemds-go/internal/matrix"
)

func blockedTestMatrix(rows, cols int) *matrix.MatrixBlock {
	m := matrix.NewDense(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Set(r, c, float64(r*cols+c))
		}
	}
	return m
}

func TestBlockedObjectSpillAndRestore(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.BufferPoolBudget = 40_000 // one 70x70 matrix (~39KB + overhead) at a time
	cfg.TempDir = dir
	ctx := NewContext(cfg)

	m := blockedTestMatrix(70, 70)
	bm, err := dist.FromMatrixBlock(m, 32)
	if err != nil {
		t.Fatal(err)
	}
	ctx.SetBlocked("B", bm)
	d, _ := ctx.Get("B")
	bo := d.(*BlockedMatrixObject)
	if !bo.IsInMemory() {
		t.Fatal("fresh blocked object should be in memory")
	}

	// registering another large object pushes the blocked object over budget
	ctx.SetMatrix("C", blockedTestMatrix(70, 70))
	if bo.IsInMemory() {
		t.Fatal("blocked object should have been evicted (per-block spill)")
	}
	files, _ := os.ReadDir(dir)
	if len(files) < 2 {
		t.Fatalf("expected one spill file per block, found %d files", len(files))
	}

	// lazy collect restores from the per-block spill files
	got, err := ctx.GetMatrixBlock("B")
	if err != nil {
		t.Fatalf("collect after spill: %v", err)
	}
	if !m.Equals(got, 0) {
		t.Error("restored blocked matrix differs from original")
	}
	if got := ctx.Stats().DistStats.Collects; got != 1 {
		t.Errorf("collects = %d, want 1", got)
	}
	if ctx.Pool.Stats().Restores == 0 {
		t.Error("expected a recorded restore")
	}
}

func TestBlockedObjectDiscardRemovesSpillFiles(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.BufferPoolBudget = 40_000
	cfg.TempDir = dir
	ctx := NewContext(cfg)

	bm, err := dist.FromMatrixBlock(blockedTestMatrix(70, 70), 32)
	if err != nil {
		t.Fatal(err)
	}
	ctx.SetBlocked("B", bm)
	ctx.SetMatrix("C", blockedTestMatrix(70, 70)) // evicts B to disk
	files, _ := os.ReadDir(dir)
	if len(files) == 0 {
		t.Fatal("expected spill files before Remove")
	}
	ctx.Remove("B")
	files, _ = os.ReadDir(dir)
	if len(files) != 0 {
		t.Errorf("spill files leaked after Remove: %d left", len(files))
	}
}

func TestMergeResultsHandlesBlockedValues(t *testing.T) {
	ctx := NewContext(DefaultConfig())
	orig := blockedTestMatrix(6, 6)
	obm, err := dist.FromMatrixBlock(orig, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx.Set("R", NewBlockedMatrixObject(obm, ctx.Pool))

	m1 := orig.Copy()
	m1.Set(0, 0, 999)
	bm1, _ := dist.FromMatrixBlock(m1, 4)
	l1 := newIterLog([]string{"R"}, []string{"R"})
	l1.regions["R"] = []region{{iter: 1, r0: 0, r1: 1, c0: 0, c1: 1}}
	w1 := workerResult{log: l1, vars: map[string]Data{"R": NewBlockedMatrixObject(bm1, ctx.Pool)}}
	m2 := orig.Copy()
	m2.Set(5, 5, -7)
	l2 := newIterLog([]string{"R"}, []string{"R"})
	l2.regions["R"] = []region{{iter: 2, r0: 5, r1: 6, c0: 5, c1: 6}}
	w2 := workerResult{log: l2, vars: map[string]Data{"R": NewMatrixObject(m2, ctx.Pool)}}

	merged, err := mergeResult(ctx, "R", true, []workerResult{w1, w2})
	if err != nil {
		t.Fatal(err)
	}
	if merged == nil {
		t.Fatal("blocked worker results were dropped by the merge")
	}
	blk, err := merged.(*MatrixObject).Acquire()
	if err != nil {
		t.Fatal(err)
	}
	if blk.Get(0, 0) != 999 || blk.Get(5, 5) != -7 {
		t.Errorf("merged cells = %g, %g; want 999, -7", blk.Get(0, 0), blk.Get(5, 5))
	}
	if blk.Get(2, 3) != orig.Get(2, 3) {
		t.Error("unchanged cell modified by merge")
	}
}

func TestCollectMemoizesAndCountsOnce(t *testing.T) {
	ctx := NewContext(DefaultConfig())
	m := blockedTestMatrix(10, 10)
	bm, err := dist.FromMatrixBlock(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx.SetBlocked("B", bm)
	a, err := ctx.GetMatrixBlock("B")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.GetMatrixBlock("B")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("repeated collects should return the memoized block")
	}
	if got := ctx.Stats().DistStats.Collects; got != 1 {
		t.Errorf("collects = %d, want 1 (memoized)", got)
	}
}

func TestBlockedObjectFlowsThroughSymbolTable(t *testing.T) {
	ctx := NewContext(DefaultConfig())
	bm, err := dist.FromMatrixBlock(blockedTestMatrix(10, 10), 4)
	if err != nil {
		t.Fatal(err)
	}
	ctx.SetBlocked("B", bm)
	d, err := ctx.Get("B")
	if err != nil {
		t.Fatal(err)
	}
	bo, ok := d.(*BlockedMatrixObject)
	if !ok {
		t.Fatalf("symbol table holds %T, want *BlockedMatrixObject", d)
	}
	dc := bo.DataCharacteristics()
	if dc.Rows != 10 || dc.Cols != 10 || dc.Blocksize != 4 {
		t.Errorf("metadata = %+v", dc)
	}
	got, err := bo.Blocked()
	if err != nil {
		t.Fatal(err)
	}
	if got != bm {
		t.Error("Blocked() should hand back the partitioned representation without copying")
	}
	if SizeOf(bo) <= 0 {
		t.Error("SizeOf must account blocked objects")
	}
}

// TestRegionPartialRestore verifies that a region read of a spilled blocked
// object restores only the covering blocks from their per-block spill files,
// leaves the object spilled, and accounts restored-vs-skipped blocks on the
// buffer pool.
func TestRegionPartialRestore(t *testing.T) {
	dir := t.TempDir()
	cfg := DefaultConfig()
	cfg.BufferPoolBudget = 40_000
	cfg.TempDir = dir
	ctx := NewContext(cfg)

	m := blockedTestMatrix(70, 70) // 3x3 grid at blocksize 32 => 9 spill blocks
	bm, err := dist.FromMatrixBlock(m, 32)
	if err != nil {
		t.Fatal(err)
	}
	ctx.SetBlocked("B", bm)
	d, _ := ctx.Get("B")
	bo := d.(*BlockedMatrixObject)

	// the in-memory path needs no restore bookkeeping
	got, err := bo.Region(0, 10, 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s := ctx.Pool.Stats(); s.BlocksRestored != 0 || s.BlocksSkipped != 0 {
		t.Errorf("in-memory region recorded restores: %+v", s)
	}

	ctx.SetMatrix("C", blockedTestMatrix(70, 70)) // evicts B to per-block spill
	if bo.IsInMemory() {
		t.Fatal("blocked object should have been evicted")
	}

	// a region inside the top-left block touches exactly one of nine blocks
	got, err = bo.Region(0, 10, 0, 10)
	if err != nil {
		t.Fatalf("partial restore: %v", err)
	}
	for r := 0; r < 10; r++ {
		for c := 0; c < 10; c++ {
			if got.Get(r, c) != m.Get(r, c) {
				t.Fatalf("restored region differs at (%d,%d)", r, c)
			}
		}
	}
	if bo.IsInMemory() {
		t.Error("partial restore must not promote the object back into memory")
	}
	s := ctx.Pool.Stats()
	if s.BlocksRestored != 1 || s.BlocksSkipped != 8 {
		t.Errorf("restored/skipped = %d/%d, want 1/8", s.BlocksRestored, s.BlocksSkipped)
	}

	// a region spanning the bottom-right boundary touches four blocks
	if _, err := bo.Region(40, 70, 40, 70); err != nil {
		t.Fatalf("boundary region: %v", err)
	}
	s = ctx.Pool.Stats()
	if s.BlocksRestored != 1+4 || s.BlocksSkipped != 8+5 {
		t.Errorf("restored/skipped = %d/%d, want 5/13", s.BlocksRestored, s.BlocksSkipped)
	}
}
