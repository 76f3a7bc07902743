package bufferpool

import (
	"os"
	"sync"
	"testing"
)

// fakeEntry is a test implementation of Entry backed by an in-memory byte
// count; Evict writes a marker file — unless told the file is in place — and
// drops the bytes. writes counts the files it wrote. An entry with a spare
// gives that up first, without writing, like a MatrixObject its memo.
type fakeEntry struct {
	mu     sync.Mutex
	id     int64
	size   int64
	spare  int64
	inMem  bool
	pinned bool
	writes int
}

func (f *fakeEntry) PoolID() int64 { return f.id }

func (f *fakeEntry) MemorySize() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.inMem {
		return 0
	}
	return f.size + f.spare
}

func (f *fakeEntry) Evict(path string, clean bool) (freed, written int64, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.inMem {
		return 0, 0, nil
	}
	if f.spare > 0 {
		freed, f.spare = f.spare, 0
		return freed, 0, nil
	}
	if !clean {
		if err := os.WriteFile(path, make([]byte, 8), 0o644); err != nil {
			return 0, 0, err
		}
		f.writes++
		written = 8
	}
	f.inMem = false
	return f.size, written, nil
}

func (f *fakeEntry) IsPinned() bool { return f.pinned }

func (f *fakeEntry) IsInMemory() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.inMem
}

// restore brings an evicted fake back the way MatrixObject.Acquire does.
func (f *fakeEntry) restore(p *Pool) {
	f.mu.Lock()
	f.inMem = true
	f.mu.Unlock()
	p.NotifyAccess(f, f.size)
}

func newFake(p *Pool, size int64) *fakeEntry {
	return &fakeEntry{id: p.NextID(), size: size, inMem: true}
}

func TestPoolEvictsOverBudget(t *testing.T) {
	dir := t.TempDir()
	p := New(1000, dir)
	entries := make([]*fakeEntry, 4)
	for i := range entries {
		entries[i] = newFake(p, 400)
		p.Register(entries[i])
	}
	if p.InMemoryBytes() > 1000 {
		t.Errorf("in-memory bytes %d exceed budget", p.InMemoryBytes())
	}
	if p.Stats().Evictions == 0 {
		t.Error("expected evictions")
	}
	// least recently used (the first registered) should be evicted first
	if entries[0].IsInMemory() {
		t.Error("expected the coldest entry to be evicted")
	}
	if !entries[3].IsInMemory() {
		t.Error("most recent entry should stay in memory")
	}
}

func TestPoolPinnedEntriesAreNotEvicted(t *testing.T) {
	dir := t.TempDir()
	p := New(500, dir)
	pinned := newFake(p, 400)
	pinned.pinned = true
	p.Register(pinned)
	other := newFake(p, 400)
	p.Register(other)
	if !pinned.IsInMemory() {
		t.Error("pinned entry was evicted")
	}
}

func TestPoolNotifyAccessMovesToFront(t *testing.T) {
	dir := t.TempDir()
	p := New(900, dir)
	a := newFake(p, 400)
	b := newFake(p, 400)
	p.Register(a)
	p.Register(b)
	// touch a so that b becomes the eviction candidate
	p.NotifyAccess(a, 0)
	c := newFake(p, 400)
	p.Register(c)
	if !a.IsInMemory() {
		t.Error("recently accessed entry evicted")
	}
	if b.IsInMemory() {
		t.Error("cold entry should have been evicted")
	}
}

func TestPoolRestoreCounting(t *testing.T) {
	p := New(0, t.TempDir()) // no budget: no evictions
	a := newFake(p, 100)
	p.Register(a)
	p.NotifyAccess(a, 0)
	if p.Stats().Restores != 0 {
		t.Errorf("an access served from memory counted as a restore")
	}
	a.inMem = false
	a.restore(p)
	if p.Stats().Restores != 1 {
		t.Errorf("restores = %d", p.Stats().Restores)
	}
}

func TestPoolUnregisterRemovesSpillFile(t *testing.T) {
	dir := t.TempDir()
	p := New(100, dir)
	a := newFake(p, 400)
	p.Register(a) // immediately over budget -> evicted to file
	if a.IsInMemory() {
		t.Fatal("expected eviction")
	}
	spill := p.SpillPath(a.PoolID())
	if _, err := os.Stat(spill); err != nil {
		t.Fatalf("spill file missing: %v", err)
	}
	p.Unregister(a.PoolID())
	if _, err := os.Stat(spill); !os.IsNotExist(err) {
		t.Error("spill file not removed on unregister")
	}
	if p.Len() != 0 {
		t.Errorf("Len = %d", p.Len())
	}
}

// TestPoolReleaseExcept: the end-of-run release drops every entry the
// predicate rejects together with its spill file, keeps the rest restorable,
// and ids never collide across pools sharing a spill directory.
func TestPoolReleaseExcept(t *testing.T) {
	dir := t.TempDir()
	p := New(100, dir)
	kept, dropped := newFake(p, 400), newFake(p, 400)
	p.Register(kept)
	p.Register(dropped) // both over budget -> evicted to files
	other := New(100, dir)
	if id := newFake(other, 1).PoolID(); id == kept.PoolID() || id == dropped.PoolID() {
		t.Fatalf("entry id %d reused across pools of one directory", id)
	}
	p.ReleaseExcept(func(e Entry) bool { return e == Entry(kept) })
	if _, err := os.Stat(p.SpillPath(dropped.PoolID())); !os.IsNotExist(err) {
		t.Error("released entry's spill file not removed")
	}
	if _, err := os.Stat(p.SpillPath(kept.PoolID())); err != nil {
		t.Errorf("kept entry's spill file: %v", err)
	}
	if p.Len() != 1 {
		t.Errorf("Len = %d, want 1", p.Len())
	}
}

// scanBytes recomputes the in-memory total the slow way, to cross-check the
// running counter.
func scanBytes(p *Pool) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	total := int64(0)
	for el := p.lru.Front(); el != nil; el = el.Next() {
		total += el.Value.(Entry).MemorySize()
	}
	return total
}

func TestPoolRunningCounterStaysConsistent(t *testing.T) {
	dir := t.TempDir()
	p := New(1000, dir)
	check := func(step string) {
		t.Helper()
		if got, want := p.InMemoryBytes(), scanBytes(p); got != want {
			t.Fatalf("%s: running counter %d != scanned total %d", step, got, want)
		}
	}
	entries := make([]*fakeEntry, 5)
	for i := range entries {
		entries[i] = newFake(p, 300)
		p.Register(entries[i])
		check("register")
	}
	// restore an evicted entry the way MatrixObject.Acquire does
	if entries[0].IsInMemory() {
		t.Fatal("expected entries[0] evicted")
	}
	entries[0].restore(p)
	check("restore")
	for _, e := range entries {
		p.Unregister(e.PoolID())
		check("unregister")
	}
	if p.InMemoryBytes() != 0 {
		t.Errorf("counter = %d after unregistering everything", p.InMemoryBytes())
	}
}

type discardingEntry struct {
	fakeEntry
	discarded bool
}

func (d *discardingEntry) Discard() { d.discarded = true }

func TestPoolUnregisterCallsDiscard(t *testing.T) {
	p := New(0, t.TempDir())
	e := &discardingEntry{fakeEntry: fakeEntry{id: p.NextID(), size: 10, inMem: true}}
	p.Register(e)
	p.Unregister(e.PoolID())
	if !e.discarded {
		t.Error("Unregister did not invoke Discard on the entry")
	}
}

func TestPoolZeroBudgetNeverEvicts(t *testing.T) {
	p := New(0, t.TempDir())
	for i := 0; i < 5; i++ {
		p.Register(newFake(p, 1<<20))
	}
	if p.Stats().Evictions != 0 {
		t.Error("zero-budget pool must not evict")
	}
}

func TestPoolNilSafety(t *testing.T) {
	var p *Pool
	p.Register(nil)
	p.Unregister(1)
	p.NotifyAccess(nil, 0)
	if p.InMemoryBytes() != 0 || p.Len() != 0 {
		t.Error("nil pool accessors should return zero values")
	}
	_ = p.Stats()
}

// TestPoolCleanReEviction: entries are immutable, so the file an eviction
// wrote serves every later eviction of the same entry — it is written once,
// and only that write counts as an eviction with bytes spilt.
func TestPoolCleanReEviction(t *testing.T) {
	p := New(500, t.TempDir())
	a := newFake(p, 400)
	p.Register(a)
	for round := 1; round <= 3; round++ {
		b := newFake(p, 400)
		p.Register(b) // pushes a out
		if a.IsInMemory() {
			t.Fatalf("round %d: a still in memory", round)
		}
		if a.writes != 1 {
			t.Fatalf("round %d: a's file written %d times, want once", round, a.writes)
		}
		p.Unregister(b.PoolID())
		a.restore(p)
	}
	st := p.Stats()
	if st.Evictions != 1 || st.BytesSpilt != 8 || st.CleanDrops != 2 || st.Restores != 3 {
		t.Errorf("stats = %+v, want 1 eviction of 8 bytes, 2 clean drops, 3 restores", st)
	}
	if _, err := os.Stat(p.SpillPath(a.PoolID())); err != nil {
		t.Errorf("the spill file must outlive the restores: %v", err)
	}
}

// TestPoolSkipsSmallDirtyEntries: an entry far smaller than the overshoot is
// not given a file of its own while a large one behind it closes the gap.
func TestPoolSkipsSmallDirtyEntries(t *testing.T) {
	p := New(10_000, t.TempDir())
	var small []*fakeEntry
	for i := 0; i < 5; i++ {
		small = append(small, newFake(p, 10))
		p.Register(small[i])
	}
	big := newFake(p, 9_000)
	p.Register(big)
	p.Register(newFake(p, 9_000)) // overshoot 8 050: the small ones cannot close it
	for i, e := range small {
		if e.writes != 0 || !e.IsInMemory() {
			t.Errorf("small entry %d was evicted (writes %d)", i, e.writes)
		}
	}
	if big.IsInMemory() || p.InMemoryBytes() > 10_000 {
		t.Errorf("big entry in memory %v, pool holds %d", big.IsInMemory(), p.InMemoryBytes())
	}
}

// TestPoolSmallEntriesStillEnforceBudget: when nothing large is left to
// evict, the second pass takes the small entries — the rule saves file
// creates, it never lets the budget slip.
func TestPoolSmallEntriesStillEnforceBudget(t *testing.T) {
	p := New(1_000, t.TempDir())
	for i := 0; i < 400; i++ {
		p.Register(newFake(p, 10))
	}
	if got := p.InMemoryBytes(); got > 1_000 {
		t.Errorf("pool holds %d bytes over a budget of 1000", got)
	}
}

// TestPoolEvictsInParts: an entry that frees memory in steps is asked again
// only while the pool is still over budget; a step that writes nothing is a
// clean drop, not an eviction.
func TestPoolEvictsInParts(t *testing.T) {
	p := New(1_000, t.TempDir())
	a := newFake(p, 400)
	a.spare = 400
	p.Register(a)
	p.Register(newFake(p, 400)) // over by 200: the spare suffices
	if !a.IsInMemory() || a.writes != 0 || p.InMemoryBytes() != 800 {
		t.Fatalf("after the first squeeze: in memory %v, writes %d, pool %d", a.IsInMemory(), a.writes, p.InMemoryBytes())
	}
	if st := p.Stats(); st.Evictions != 0 || st.CleanDrops != 1 {
		t.Errorf("stats = %+v, want no eviction and one clean drop", st)
	}
	p.Register(newFake(p, 400)) // over by 200 again: now a goes to disk
	if a.IsInMemory() || a.writes != 1 || p.InMemoryBytes() != 800 {
		t.Errorf("after the second squeeze: in memory %v, writes %d, pool %d", a.IsInMemory(), a.writes, p.InMemoryBytes())
	}
}
