package runtime

import (
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
)

// recycled reports whether the free list hands out the array of blk again.
func recycled(rec *matrix.Recycler, blk *matrix.MatrixBlock, array *float64) bool {
	return &rec.Dense(blk.Rows(), blk.Cols()).DenseValues()[0] == array
}

// TestOnlyTheOnlyHandleRecycles: a block from the free list goes back to it
// when the last holder of its one object lets go, and at no other time: not
// while a second object wraps the same block (a pass-through), not after the
// value was handed to a caller, and not after the pool evicted it.
func TestOnlyTheOnlyHandleRecycles(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int64 // of the buffer pool; 0 evicts nothing
		// run binds the block (in one or more objects), lets go of it in
		// ctx and reports whether it must have come back
		run func(ctx *Context, blk *matrix.MatrixBlock) bool
	}{
		{"one object", 0, func(ctx *Context, blk *matrix.MatrixBlock) bool {
			ctx.SetMatrix("a", blk)
			ctx.Remove("a")
			return true
		}},
		{"pass-through", 0, func(ctx *Context, blk *matrix.MatrixBlock) bool {
			ctx.SetMatrix("a", blk)
			ctx.SetMatrix("b", blk)
			ctx.Remove("a")
			ctx.Remove("b")
			return false
		}},
		{"handed to a caller", 0, func(ctx *Context, blk *matrix.MatrixBlock) bool {
			ctx.SetMatrix("a", blk)
			d, _ := ctx.Get("a")
			Share(d)
			ctx.Remove("a")
			return false
		}},
		{"evicted", poolOf(1), func(ctx *Context, blk *matrix.MatrixBlock) bool {
			ctx.SetMatrix("a", blk)
			squeeze(ctx.Pool)
			if mo, _ := ctx.GetMatrixObject("a"); mo.IsInMemory() {
				t.Fatal("block still resident after the squeeze")
			}
			ctx.Remove("a")
			return false
		}},
	} {
		ctx := liveContext(t, tc.budget)
		rec := matrix.NewRecycler()
		blk := rec.Dense(100, 100)
		array := &blk.DenseValues()[0]
		blk.RecomputeNNZ()
		want := tc.run(ctx, blk)
		if got := recycled(rec, blk, array); got != want {
			t.Errorf("%s: array recycled = %v, want %v", tc.name, got, want)
		}
		ctx.ReleasePool()
	}
}

// TestPassThroughKeepsItsArrayWhileHeld: while a second object still holds a
// pass-through block, letting go of the first gives nothing back, and the
// block's cells stay what they were.
func TestPassThroughKeepsItsArrayWhileHeld(t *testing.T) {
	ctx := liveContext(t, 0)
	rec := matrix.NewRecycler()
	blk := rec.Dense(100, 100)
	copy(blk.DenseValues(), liveBlock(5).DenseValues())
	blk.RecomputeNNZ()
	want := blk.Copy()
	ctx.SetMatrix("a", blk)
	ctx.SetMatrix("b", blk)
	matrix.PoisonRecycled(true)
	defer matrix.PoisonRecycled(false)
	ctx.Remove("a")
	got, err := ctx.GetMatrixBlock("b")
	if err != nil || !bitsEqual(got, want) {
		t.Fatalf("b after a was let go: %v, bits equal %v", err, err == nil && bitsEqual(got, want))
	}
	ctx.ReleasePool()
}
