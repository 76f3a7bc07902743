package systemds_test

import (
	"fmt"
	"math"
	"testing"

	systemds "github.com/systemds/systemds-go"
)

// The tests of row-strip views (DESIGN.md, "Partitioning without copying"):
// a dense local matrix with one column block enters the blocked backend as
// views of its own array, and whatever holds those views sees the bits the
// matrix had when it was partitioned.

// viewScript partitions Z, a fused intermediate whose array comes from the
// engine's free list, into views: cbind of a matrix whose columns fill whole
// blocks shares its blocks, so B holds views of Z's array after Z is rebound
// in the if block, and C reads them. The budget keeps the fused chain and the
// left-index local and the cbind and everything after it blocked.
const viewScript = `
s = 0
for (i in 1:3) {
  Z = (A - 0.5) * 3
  B = cbind(Z, Z)
  if (i > 0) {
    Z = A * 2
  }
  C = B + B
  s = s + sum(C)
}
Z[1:5, ] = matrix(7, rows=5, cols=ncol(Z))
`

func viewOptions(extra ...systemds.Option) []systemds.Option {
	return append([]systemds.Option{systemds.WithParallelism(2), systemds.WithDistributedBackend(true),
		systemds.WithOperatorMemBudget(1200 << 10), systemds.WithDistBlocksize(100)}, extra...)
}

// TestViewsOfRecycledArraysAreNeverRead: with every array the free list takes
// back filled with NaN, three runs on one engine give the bits of a fresh
// engine without the poison. The partition claimed Z's array, so rebinding Z
// does not give it back while B's blocks are views of it.
func TestViewsOfRecycledArraysAreNeverRead(t *testing.T) {
	in := map[string]any{"A": systemds.RandMatrix(600, 100, 1.0, 5)}
	fresh, err := systemds.NewContext(viewOptions()...).Execute(viewScript, in, "s", "C", "Z")
	if err != nil {
		t.Fatal(err)
	}
	if s, _ := fresh.Float("s"); math.IsNaN(s) {
		t.Fatal("s is NaN without the poison")
	}
	systemds.PoisonRecycled(true)
	defer systemds.PoisonRecycled(false)
	shared := systemds.NewContext(viewOptions()...)
	for run := 1; run <= 3; run++ {
		res, err := shared.Execute(viewScript, in, "s", "C", "Z")
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if ds := shared.LastRunStats().DistStats; ds.ViewPartitions != 3 || ds.Partitions != 3 {
			t.Fatalf("run %d: %+v, want the three partitions of Z to be views", run, ds)
		}
		if err := sameResults(fresh, res, []string{"s", "C", "Z"}); err != nil {
			t.Errorf("run %d: %v", run, err)
		}
	}
}

// TestLeftIndexAfterViewPartition: Z is left-indexed after its last
// partition into views. Under the blocked backend the update copies, the
// views keep the old bits, and every output — the cellwise C read through
// the views and the updated Z — has the bits of the local run, where the
// update writes in place.
func TestLeftIndexAfterViewPartition(t *testing.T) {
	in := map[string]any{"A": systemds.RandMatrix(600, 100, 1.0, 6)}
	local, err := systemds.NewContext(systemds.WithParallelism(2)).Execute(viewScript, in, "C", "Z")
	if err != nil {
		t.Fatal(err)
	}
	ctx := systemds.NewContext(viewOptions()...)
	res, err := ctx.Execute(viewScript, in, "C", "Z")
	if err != nil {
		t.Fatal(err)
	}
	if ds := ctx.LastRunStats().DistStats; ds.ViewPartitions == 0 {
		t.Fatalf("%+v: nothing was partitioned into views", ds)
	}
	if err := sameResults(local, res, []string{"C", "Z"}); err != nil {
		t.Error(err)
	}
	if z, _ := res.Matrix("Z"); z.Get(0, 0) != 7 || z.Get(5, 0) == 7 {
		t.Errorf("Z[1,1] = %v, Z[6,1] = %v: the update did not land", z.Get(0, 0), z.Get(5, 0))
	}
}

// TestBlockedMatchesLocalUnderPool: the gradient loop of dist.loop.spill and
// a three-column product, under a 16 MB pool, have the local run's bits at
// blocksizes 7, 100 and 1024 and row counts off every one of them. A dense X
// partitions into views, as y does; in one whose first block row holds a
// single column, that strip falls under the sparse threshold and sends X's
// partition down the copying path.
func TestBlockedMatchesLocalUnderPool(t *testing.T) {
	const script = `
w = matrix(0, rows=ncol(X), cols=1)
for (i in 1:3) {
  q = X %*% w
  g = t(X) %*% (q - y)
  w = w - lr * g
}
P = X %*% B
`
	outputs := []string{"w", "P"}
	for _, rows := range []int{1037, 2050} {
		dense := systemds.RandMatrix(rows, 6, 1.0, 81)
		for _, bs := range []int{7, 100, 1024} {
			sparseStrip := systemds.NewMatrix(rows, 6, nil)
			for r := 0; r < rows; r++ {
				for c := 0; c < 6; c++ {
					if r >= bs || c == 0 {
						sparseStrip.Set(r, c, dense.Get(r, c))
					}
				}
			}
			sparseStrip.RecomputeNNZ()
			for _, x := range []struct {
				name        string
				m           *systemds.Matrix
				copyingPart int64
			}{{"dense", dense, 0}, {"sparse strip", sparseStrip, 1}} {
				name := fmt.Sprintf("%d rows %s bs=%d", rows, x.name, bs)
				in := map[string]any{"X": x.m, "y": systemds.RandMatrix(rows, 1, 1.0, 82),
					"B": systemds.RandMatrix(6, 3, 1.0, 83), "lr": 0.01}
				local, err := systemds.NewContext(systemds.WithParallelism(2)).Execute(script, in, outputs...)
				if err != nil {
					t.Fatal(err)
				}
				ctx := systemds.NewContext(systemds.WithParallelism(2), systemds.WithDistributedBackend(true),
					systemds.WithOperatorMemBudget(16<<10), systemds.WithDistBlocksize(bs),
					systemds.WithBufferPool(16<<20), systemds.WithTempDir(t.TempDir()))
				res, err := ctx.Execute(script, in, outputs...)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if ds := ctx.LastRunStats().DistStats; ds.Partitions != 2 || ds.ViewPartitions != 2-x.copyingPart {
					t.Errorf("%s: %+v, want X and y partitioned, %d of them by copying", name, ds, x.copyingPart)
				}
				if err := sameResults(local, res, outputs); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
	}
}
