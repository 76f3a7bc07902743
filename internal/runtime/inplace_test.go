package runtime

import (
	"testing"

	"github.com/systemds/systemds-go/internal/dist"
	"github.com/systemds/systemds-go/internal/lineage"
	"github.com/systemds/systemds-go/internal/matrix"
)

// cell42 is the update every case below tries: a[1, 1] = 42.
var cell42 = []matrix.RegionWrite{{R0: 0, R1: 1, C0: 0, C1: 1, Src: matrix.Fill(1, 1, 42)}}

// TestInPlaceOnlyWhenNothingElseSees: an update writes a's block in place
// exactly when a's binding is the block's only holder, and every other holder
// — a second binding, a reuse-cache entry, a caller, a function result in
// flight, a parfor worker's copy, a list, a view, a second handle, a
// partitioned memo, row-strip views of the block itself, memoized or not —
// keeps the old bits. An evicted block comes back as a
// copy nobody claims, and a block written in place is spilled with its new
// bits.
func TestInPlaceOnlyWhenNothingElseSees(t *testing.T) {
	for _, tc := range []struct {
		name   string
		budget int64
		// hold adds the holder and returns what it sees, or nil
		hold func(ctx *Context, mo *MatrixObject) func() (*matrix.MatrixBlock, error)
		want bool // whether the update may write in place
	}{
		{"alone", 0, func(*Context, *MatrixObject) func() (*matrix.MatrixBlock, error) { return nil }, true},
		{"second binding", 0, func(ctx *Context, mo *MatrixObject) func() (*matrix.MatrixBlock, error) {
			ctx.Set("b", mo)
			return func() (*matrix.MatrixBlock, error) { return ctx.GetMatrixBlock("b") }
		}, false},
		{"reuse-cache entry", 0, func(ctx *Context, mo *MatrixObject) func() (*matrix.MatrixBlock, error) {
			item := lineage.NewCreation("test", "a")
			ctx.Cache.Put(item, mo, SizeOf(mo), 1)
			return func() (*matrix.MatrixBlock, error) {
				v, _ := ctx.Cache.Get(item)
				defer Release(v.(Data))
				return v.(*MatrixObject).Acquire()
			}
		}, false},
		{"handed to a caller", 0, func(ctx *Context, mo *MatrixObject) func() (*matrix.MatrixBlock, error) {
			Share(mo)
			return nil
		}, false},
		{"function result in flight", 0, func(ctx *Context, mo *MatrixObject) func() (*matrix.MatrixBlock, error) {
			Retain(mo)
			return nil
		}, false},
		{"parfor worker", 0, func(ctx *Context, mo *MatrixObject) func() (*matrix.MatrixBlock, error) {
			child := ctx.ChildCopy()
			return func() (*matrix.MatrixBlock, error) { return child.GetMatrixBlock("a") }
		}, false},
		{"list element", 0, func(ctx *Context, mo *MatrixObject) func() (*matrix.MatrixBlock, error) {
			ctx.Set("l", NewListObject([]Data{mo}, nil))
			return mo.Acquire
		}, false},
		{"transposed view", 0, func(ctx *Context, mo *MatrixObject) func() (*matrix.MatrixBlock, error) {
			view := &Transposed{Source: mo}
			ctx.Set("t", view)
			return func() (*matrix.MatrixBlock, error) {
				blk, err := view.LocalFor(ctx, "test")
				if err != nil {
					return nil, err
				}
				return matrix.Transpose(blk), nil
			}
		}, false},
		{"second handle", 0, func(ctx *Context, mo *MatrixObject) func() (*matrix.MatrixBlock, error) {
			blk, _ := mo.Acquire()
			ctx.SetMatrix("b", blk)
			return func() (*matrix.MatrixBlock, error) { return ctx.GetMatrixBlock("b") }
		}, false},
		{"partitioned memo", 0, func(ctx *Context, mo *MatrixObject) func() (*matrix.MatrixBlock, error) {
			blk, _ := mo.Acquire()
			bm, err := dist.FromMatrixBlock(blk, 32)
			if err != nil {
				t.Fatal(err)
			}
			mo.StoreBlocked(bm, 32)
			return func() (*matrix.MatrixBlock, error) {
				bm, _ := mo.CachedBlocked(32)
				return bm.ToMatrixBlock()
			}
		}, false},
		{"view memo", 0, func(ctx *Context, mo *MatrixObject) func() (*matrix.MatrixBlock, error) {
			blk, _ := mo.Acquire()
			bm, err := dist.FromMatrixBlock(blk, 100)
			if err != nil || bm.View != blk {
				t.Fatalf("not a view partition (%v)", err)
			}
			mo.StoreBlocked(bm, 100)
			return func() (*matrix.MatrixBlock, error) {
				bm, _ := mo.CachedBlocked(100)
				return bm.ToMatrixBlock()
			}
		}, false},
		{"row-strip views held elsewhere", 0, func(ctx *Context, mo *MatrixObject) func() (*matrix.MatrixBlock, error) {
			blk, _ := mo.Acquire()
			bm, err := dist.FromMatrixBlock(blk, 100) // e.g. shared into a blocked cbind
			if err != nil || bm.View != blk {
				t.Fatalf("not a view partition (%v)", err)
			}
			return bm.ToMatrixBlock
		}, false},
		{"evicted and restored", poolOf(1), func(ctx *Context, mo *MatrixObject) func() (*matrix.MatrixBlock, error) {
			squeeze(ctx.Pool)
			if mo.IsInMemory() {
				t.Fatal("block still resident after the squeeze")
			}
			return nil
		}, false},
	} {
		ctx := liveContext(t, tc.budget)
		want := liveBlock(9)
		ctx.SetMatrix("a", want.Copy())
		mo, _ := ctx.GetMatrixObject("a")
		see := tc.hold(ctx, mo)
		if _, err := mo.Acquire(); err != nil {
			t.Fatal(err)
		}
		done, err := mo.Update(cell42)
		if err != nil || done != tc.want {
			t.Errorf("%s: in place = %v (%v), want %v", tc.name, done, err, tc.want)
		}
		if see != nil {
			got, err := see()
			if err != nil || !bitsEqual(got, want) {
				t.Errorf("%s: the holder sees changed bits (%v)", tc.name, err)
			}
		}
		if done {
			blk, _ := mo.Acquire()
			if blk.Get(0, 0) != 42 || blk.NNZ() != want.NNZ() || mo.DataCharacteristics().NNZ != want.NNZ() {
				t.Errorf("%s: a[1,1] = %v, nnz %d / %d, want 42, %d", tc.name, blk.Get(0, 0), blk.NNZ(), mo.DataCharacteristics().NNZ, want.NNZ())
			}
		}
		ctx.ReleasePool()
	}
}

// TestWrittenBlockSpillsItsNewBits: a block written in place and then
// evicted is written out, not dropped as clean, and comes back with its new
// bits.
func TestWrittenBlockSpillsItsNewBits(t *testing.T) {
	ctx := liveContext(t, poolOf(1))
	ctx.SetMatrix("a", liveBlock(11))
	mo, _ := ctx.GetMatrixObject("a")
	if done, err := mo.Update(cell42); !done || err != nil {
		t.Fatalf("in place = %v (%v), want true", done, err)
	}
	squeeze(ctx.Pool)
	if mo.IsInMemory() {
		t.Fatal("block still resident after the squeeze")
	}
	blk, err := mo.Acquire()
	if err != nil || blk.Get(0, 0) != 42 {
		t.Fatalf("restored a[1,1] = %v (%v), want 42", blk.Get(0, 0), err)
	}
	ctx.ReleasePool()
}
