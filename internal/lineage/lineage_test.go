package lineage

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestItemHashDeterminismAndEquality(t *testing.T) {
	x := NewCreation("tread", "X")
	y := NewCreation("tread", "y")
	a1 := NewInstruction("tsmm", "", x)
	a2 := NewInstruction("tsmm", "", NewCreation("tread", "X"))
	if a1.Hash() != a2.Hash() {
		t.Error("structurally identical items must hash equally")
	}
	if !a1.Equals(a2) {
		t.Error("structurally identical items must be equal")
	}
	b := NewInstruction("tsmm", "", y)
	if a1.Equals(b) {
		t.Error("items over different inputs must differ")
	}
	c := NewInstruction("ba+*", "", x, y)
	d := NewInstruction("ba+*", "", y, x)
	if c.Equals(d) {
		t.Error("operand order must matter")
	}
	lit1 := NewLiteral("0.1")
	lit2 := NewLiteral("0.2")
	e1 := NewInstruction("+", "", a1, lit1)
	e2 := NewInstruction("+", "", a1, lit2)
	if e1.Equals(e2) || e1.Hash() == e2.Hash() {
		t.Error("different literals must produce different lineage")
	}
}

// doubleChain builds a depth-deep chain in which every node consumes its
// predecessor twice — the shape of a loop-carried variable. As a tree it has
// 2^depth leaves; as a DAG, depth+1 nodes.
func doubleChain(leaf string, depth int) *Item {
	it := NewCreation("tread", leaf)
	for i := 0; i < depth; i++ {
		it = NewInstruction("+", "", it, it)
	}
	return it
}

// TestDeepSharedChainIsLinear: constructing, hashing, comparing and probing a
// 1000-deep chain of doubly consumed nodes touches each node once. Any walk of
// the input tree would need 2^1000 steps, so finishing at all is the bound;
// the deadline only makes a regression fail instead of hang.
func TestDeepSharedChainIsLinear(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		a, b := doubleChain("X", 1000), doubleChain("X", 1000)
		if a.Hash() != b.Hash() || !a.Equals(b) {
			t.Error("independently built equal chains must be hash-equal and Equals")
		}
		other := doubleChain("Z", 1000)
		if a.Hash() == other.Hash() || a.Equals(other) {
			t.Error("chains differing only in the leaf 1000 levels down must differ")
		}
		if shorter := doubleChain("X", 999); a.Equals(shorter) {
			t.Error("chains of different depth must differ")
		}
		c := NewCache(1 << 20)
		c.Put(a, "va", 8, 1)
		if v, ok := c.Get(b); !ok || v != "va" {
			t.Errorf("probe with the independently built twin = (%v, %v), want a hit", v, ok)
		}
		if _, ok := c.Get(other); ok {
			t.Error("probe with the chain over another leaf must miss")
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("a 1000-deep shared chain did not finish in 30 s: something walks the input tree")
	}
}

// TestCacheSharedByWorkers: parfor workers trace the same loop body over the
// same inputs and share one cache. Eight goroutines build the same chain
// independently, probing and inserting at every level; every level ends up
// cached once and every probe is accounted for (run under -race).
func TestCacheSharedByWorkers(t *testing.T) {
	const workers, depth = 8, 200
	c := NewCache(1 << 20)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			it := NewCreation("tread", "X")
			for level := 0; level < depth; level++ {
				it = NewInstruction("+", "", it, it)
				if _, ok := c.Get(it); !ok {
					c.Put(it, level, 8, 1)
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if c.Len() != depth || st.Hits+st.Misses != workers*depth || st.Puts != depth {
		t.Errorf("Len = %d, stats = %+v; want %d entries, %d probes, %d puts", c.Len(), st, depth, workers*depth, depth)
	}
}

func TestHashStringIsFixedWidth(t *testing.T) {
	for _, h := range []Hash{{}, {Hi: 1, Lo: 0xabc}, {Hi: ^uint64(0), Lo: ^uint64(0)}, NewLiteral("x").Hash()} {
		if s := h.String(); len(s) != 32 {
			t.Errorf("Hash%v renders as %q (%d characters), want 32", h, s, len(s))
		}
	}
	if got, want := (Hash{Hi: 0x0123456789abcdef, Lo: 0xf}).String(), "0123456789abcdef000000000000000f"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestItemStringRendering(t *testing.T) {
	x := NewCreation("tread", "X")
	item := NewInstruction("tsmm", "", NewInstruction("cbind", "", x, NewCreation("tread", "z")))
	s := item.String()
	if !strings.Contains(s, "tsmm(") || !strings.Contains(s, "cbind(") || !strings.Contains(s, "X") {
		t.Errorf("rendering = %q", s)
	}
}

func TestItemSize(t *testing.T) {
	x := NewCreation("tread", "X")
	shared := NewInstruction("t", "", x)
	top := NewInstruction("ba+*", "", shared, shared)
	if top.Size() != 3 {
		t.Errorf("Size = %d, want 3 (shared node counted once)", top.Size())
	}
}

func TestTracer(t *testing.T) {
	tr := NewTracer()
	if tr.Has("X") {
		t.Error("fresh tracer should not have X")
	}
	leaf := tr.Get("X") // lazily created creation item
	if !tr.Has("X") || leaf.Opcode != "tread" {
		t.Errorf("lazy leaf = %+v", leaf)
	}
	it := NewInstruction("tsmm", "", leaf)
	tr.Set("G", it)
	if tr.Get("G") != it {
		t.Error("Set/Get mismatch")
	}
	cp := tr.Copy()
	cp.Set("G", leaf)
	if tr.Get("G") != it {
		t.Error("copy is not independent")
	}
	vars := tr.Variables()
	if len(vars) != 2 || vars[0] != "G" || vars[1] != "X" {
		t.Errorf("variables = %v", vars)
	}
}

func TestCachePutGet(t *testing.T) {
	c := NewCache(1 << 20)
	x := NewCreation("tread", "X")
	item := NewInstruction("tsmm", "", x)
	if _, ok := c.Get(item); ok {
		t.Error("empty cache should miss")
	}
	c.Put(item, "value1", 100, 1000)
	v, ok := c.Get(NewInstruction("tsmm", "", NewCreation("tread", "X")))
	if !ok || v != "value1" {
		t.Errorf("Get = %v, %v", v, ok)
	}
	stats := c.Stats()
	if stats.Hits != 1 || stats.Misses != 1 || stats.Puts != 1 {
		t.Errorf("stats = %+v", stats)
	}
	// duplicate put is a no-op
	c.Put(item, "value2", 100, 1000)
	v, _ = c.Get(item)
	if v != "value1" {
		t.Error("duplicate Put overwrote entry")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d", c.Len())
	}
	c.Clear()
	if c.Len() != 0 {
		t.Error("Clear did not empty cache")
	}
}

// counted is a cached value that counts its holders.
type counted struct{ refs int }

func (c *counted) Retain()  { c.refs++ }
func (c *counted) Release() { c.refs-- }

// TestCacheRetainsValues: every entry is a holder of its value through
// insert, eviction, replacement and Clear, and every hit hands the caller one
// more.
func TestCacheRetainsValues(t *testing.T) {
	c := NewCache(250)
	a, b, d := new(counted), new(counted), new(counted)
	itemA, itemB := NewInstruction("op", "a", NewLiteral("1")), NewInstruction("op", "b", NewLiteral("1"))
	c.Put(itemA, a, 100, 0)
	c.Put(itemB, b, 100, 10)
	c.Put(itemB, b, 100, 10) // the same intermediate again: no second hold
	if a.refs != 1 || b.refs != 1 || d.refs != 0 {
		t.Fatalf("refs(a, b, d) = %d %d %d, want 1 1 0", a.refs, b.refs, d.refs)
	}
	if v, ok := c.Get(itemB); !ok || v != any(b) || b.refs != 2 {
		t.Fatalf("hit = %v %v with %d refs, want b held twice", v, ok, b.refs)
	}
	b.Release() // what a caller does once it has bound the hit
	// a third entry exceeds the budget: the zero-benefit entry is evicted
	c.Put(NewInstruction("op", "d", NewLiteral("1")), d, 100, 10)
	if a.refs != 0 || b.refs != 1 || d.refs != 1 {
		t.Errorf("after eviction refs(a, b, d) = %d %d %d, want 0 1 1", a.refs, b.refs, d.refs)
	}
	c.Clear()
	if b.refs != 0 || d.refs != 0 {
		t.Errorf("Clear left values held: refs(b, d) = %d %d", b.refs, d.refs)
	}
	NewCache(0).Put(itemA, a, 100, 0)
	if a.refs != 0 {
		t.Error("a disabled cache holds nothing")
	}
}

func TestCacheEviction(t *testing.T) {
	c := NewCache(250)
	items := make([]*Item, 5)
	for i := range items {
		items[i] = NewInstruction("op", string(rune('a'+i)), NewLiteral(string(rune('a'+i))))
		c.Put(items[i], i, 100, 0)
	}
	if c.Len() > 2 {
		t.Errorf("cache exceeded budget: %d entries", c.Len())
	}
	if c.Stats().Evictions == 0 {
		t.Error("expected evictions")
	}
	// most recently inserted survives
	if _, ok := c.Get(items[4]); !ok {
		t.Error("most recent entry evicted")
	}
	// oversized values are rejected outright
	big := NewInstruction("op", "big", NewLiteral("big"))
	c.Put(big, "x", 10_000, 0)
	if _, ok := c.Get(big); ok {
		t.Error("oversized value should not be cached")
	}
}

// forceHash overwrites an item's hash, simulating a collision between
// structurally different lineage DAGs (128 honest bits never produce one).
func forceHash(it *Item, h Hash) *Item {
	it.hash = h
	return it
}

func TestCachePutCollisionReplaces(t *testing.T) {
	c := NewCache(1 << 20)
	a := forceHash(NewInstruction("op", "a", NewLiteral("a")), Hash{Hi: 4, Lo: 2})
	b := forceHash(NewInstruction("op", "b", NewLiteral("b")), Hash{Hi: 4, Lo: 2})
	if a.Equals(b) {
		t.Fatal("Equals must tell colliding items apart by their own fields")
	}
	c.Put(a, "va", 100, 0)
	// colliding item must not be locked out forever: the new entry replaces
	// the old one
	c.Put(b, "vb", 100, 0)
	if v, ok := c.Get(b); !ok || v != "vb" {
		t.Errorf("colliding item not cached after Put: %v, %v", v, ok)
	}
	if _, ok := c.Get(a); ok {
		t.Error("replaced entry still returned")
	}
	if c.Len() != 1 {
		t.Errorf("Len = %d, want 1", c.Len())
	}
	if used := c.Stats().BytesCached; used != 100 {
		t.Errorf("BytesCached = %d, want 100", used)
	}
}

func TestCachePutRefreshesLRUPosition(t *testing.T) {
	c := NewCache(200) // fits two 100-byte entries
	x := NewInstruction("op", "x", NewLiteral("x"))
	y := NewInstruction("op", "y", NewLiteral("y"))
	z := NewInstruction("op", "z", NewLiteral("z"))
	c.Put(x, 1, 100, 0)
	c.Put(y, 2, 100, 0)
	// re-putting x must move it to the front so y is the eviction victim
	c.Put(x, 1, 100, 0)
	c.Put(z, 3, 100, 0)
	if _, ok := c.Get(x); !ok {
		t.Error("refreshed entry was evicted")
	}
	if _, ok := c.Get(y); ok {
		t.Error("least recently used entry survived eviction")
	}
}

func TestCacheDisabled(t *testing.T) {
	c := NewCache(0)
	if c.Enabled() {
		t.Error("zero-budget cache should be disabled")
	}
	c.Put(NewLiteral("x"), 1, 10, 0)
	if _, ok := c.Get(NewLiteral("x")); ok {
		t.Error("disabled cache should never hit")
	}
	var nilCache *Cache
	if nilCache.Enabled() {
		t.Error("nil cache should be disabled")
	}
	_ = nilCache.Stats()
	_ = nilCache.Len()
	nilCache.Clear()
}

func TestPropertyHashStability(t *testing.T) {
	f := func(op, data string, nInputs uint8) bool {
		inputs := make([]*Item, int(nInputs%4))
		for i := range inputs {
			inputs[i] = NewLiteral(string(rune('a' + i)))
		}
		a := NewInstruction(op, data, inputs...)
		b := NewInstruction(op, data, inputs...)
		return a.Hash() == b.Hash() && a.Equals(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
