package obs

import (
	"strings"
	"sync"
	"testing"
)

// TestDisabledPathZeroAllocs gates the overhead contract: with tracing off,
// Begin/End must not allocate.
func TestDisabledPathZeroAllocs(t *testing.T) {
	tr := New()
	tr.SetEnabled(false)
	allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Begin(CatInstr, "ba+*")
		sp.EndBytes(128)
	})
	if allocs != 0 {
		t.Fatalf("disabled emit path allocated %v times per op, want 0", allocs)
	}
	// The package-level global entry points must be just as cheap.
	Disable()
	allocs = testing.AllocsPerRun(1000, func() {
		sp := Begin(CatDist, "mm")
		child := BeginChild(sp, CatDist, "task")
		child.End()
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled global emit path allocated %v times per op, want 0", allocs)
	}
}

// TestConcurrentEmission hammers one tracer from many goroutines (the
// parfor/dist worker shape); run under -race this validates the
// per-worker buffer scheme.
func TestConcurrentEmission(t *testing.T) {
	tr := New()
	tr.SetEnabled(true)
	const workers = 8
	const spansPer = 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < spansPer; i++ {
				sp := tr.Begin(CatInstr, "op")
				child := tr.BeginChild(sp, CatDist, "task")
				child.EndBytes(8)
				sp.End()
			}
		}()
	}
	wg.Wait()
	recs := tr.Snapshot()
	if got, want := len(recs), workers*spansPer*2; got != want {
		t.Fatalf("got %d records, want %d", got, want)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("dropped %d records, want 0", tr.Dropped())
	}
	seen := make(map[uint64]bool, len(recs))
	for _, r := range recs {
		if seen[r.ID] {
			t.Fatalf("duplicate record ID %d", r.ID)
		}
		seen[r.ID] = true
	}
	tr.Reset()
	if got := len(tr.Snapshot()); got != 0 {
		t.Fatalf("after Reset: %d records, want 0", got)
	}
}

// TestRecordLimit verifies emissions past the limit are counted, not stored.
func TestRecordLimit(t *testing.T) {
	tr := New()
	tr.limit = 4
	tr.SetEnabled(true)
	for i := 0; i < 10; i++ {
		tr.Begin(CatInstr, "op").End()
	}
	if got := len(tr.Snapshot()); got != 4 {
		t.Fatalf("got %d records, want 4", got)
	}
	if got := tr.Dropped(); got != 6 {
		t.Fatalf("dropped = %d, want 6", got)
	}
}

// TestResolveReparenting checks the time-containment sweep: orphans land
// under the innermost containing span, explicit parents are preserved, and
// dangling parents are fixed up.
func TestResolveReparenting(t *testing.T) {
	recs := []Record{
		{ID: 1, Parent: 0, Cat: CatRun, Name: "run", Start: 0, Dur: 100},
		{ID: 2, Parent: 1, Cat: CatBlock, Name: "block", Start: 5, Dur: 90},
		{ID: 3, Parent: 0, Cat: CatInstr, Name: "ba+*", Start: 10, Dur: 40},
		{ID: 4, Parent: 0, Cat: CatDist, Name: "mm", Start: 15, Dur: 20},
		{ID: 5, Parent: 999, Cat: CatPool, Name: "spill", Start: 60, Dur: 10},
		{ID: 6, Parent: 3, Cat: CatCompress, Name: "decompress", Start: 12, Dur: 5},
	}
	parent := map[uint64]uint64{}
	for _, r := range Resolve(recs) {
		parent[r.ID] = r.Parent
	}
	want := map[uint64]uint64{1: 0, 2: 1, 3: 2, 4: 3, 5: 2, 6: 3}
	for id, p := range want {
		if parent[id] != p {
			t.Errorf("record %d: parent = %d, want %d", id, parent[id], p)
		}
	}
}

// TestAggregateSelfTime checks wall vs self accounting and ordering.
func TestAggregateSelfTime(t *testing.T) {
	recs := []Record{
		{ID: 1, Parent: 0, Cat: CatInstr, Name: "ba+*", Start: 0, Dur: 100, Bytes: 64},
		{ID: 2, Parent: 1, Cat: CatDist, Name: "mm", Start: 10, Dur: 30},
		{ID: 3, Parent: 1, Cat: CatDist, Name: "mm", Start: 50, Dur: 40},
		{ID: 4, Parent: 0, Cat: CatInstr, Name: "uak+", Start: 200, Dur: 10},
	}
	ms := Aggregate(recs)
	byName := map[string]OpMetric{}
	for _, m := range ms {
		byName[m.Cat+"/"+m.Name] = m
	}
	mm := byName["dist/mm"]
	if mm.Count != 2 || mm.WallNs != 70 || mm.SelfNs != 70 {
		t.Fatalf("dist/mm = %+v, want count=2 wall=70 self=70", mm)
	}
	ba := byName["instr/ba+*"]
	if ba.Count != 1 || ba.WallNs != 100 || ba.SelfNs != 30 || ba.Bytes != 64 {
		t.Fatalf("instr/ba+* = %+v, want count=1 wall=100 self=30 bytes=64", ba)
	}
	// Sorted by self time descending: dist/mm (70) first.
	if ms[0].Name != "mm" {
		t.Fatalf("top heavy hitter = %s/%s, want dist/mm", ms[0].Cat, ms[0].Name)
	}
}

// TestGraft verifies federated stitching: fresh IDs, preserved internal
// structure, orphans attached to the RPC span, and time alignment.
func TestGraft(t *testing.T) {
	tr := New()
	tr.SetEnabled(true)
	rpc := tr.Begin(CatRPC, "rpc:exec:tsmm")
	worker := []Record{
		{ID: 1, Parent: 0, Cat: CatFed, Name: "worker:exec:tsmm", Start: 5000, Dur: 300},
		{ID: 2, Parent: 1, Cat: CatFed, Name: "kernel", Start: 5100, Dur: 100},
	}
	tr.Graft(worker, rpc)
	rpc.End()
	recs := tr.Snapshot()
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	var root, kernel, rpcRec Record
	for _, r := range recs {
		switch r.Name {
		case "worker:exec:tsmm":
			root = r
		case "kernel":
			kernel = r
		case "rpc:exec:tsmm":
			rpcRec = r
		}
	}
	if root.Parent != rpcRec.ID {
		t.Errorf("worker root parent = %d, want rpc span %d", root.Parent, rpcRec.ID)
	}
	if kernel.Parent != root.ID {
		t.Errorf("kernel parent = %d, want worker root %d", kernel.Parent, root.ID)
	}
	if root.Start != rpcRec.Start {
		t.Errorf("worker root start = %d, want aligned to rpc start %d", root.Start, rpcRec.Start)
	}
	if kernel.Start-root.Start != 100 {
		t.Errorf("kernel offset = %d, want 100", kernel.Start-root.Start)
	}
}

// TestFormatHeavyHitters checks the report shape and the footer labels that
// -stats prints.
func TestFormatHeavyHitters(t *testing.T) {
	recs := []Record{
		{ID: 1, Parent: 0, Cat: CatRun, Name: "run", Start: 0, Dur: 1_000_000},
		{ID: 2, Parent: 1, Cat: CatInstr, Name: "ba+*", Start: 0, Dur: 950_000},
	}
	out := FormatHeavyHitters(recs, 5)
	for _, want := range []string{"Heavy hitter", "ba+*", "run wall time: 1.000 ms", "total instruction time: 0.950 ms (95.0% of run)"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}
