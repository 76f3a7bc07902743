package lineage

import (
	"sync"
	"testing"
)

// TestCacheCostBenefitEviction pins the eviction policy: under budget
// pressure the victim is the entry with the lowest compute-time-saved per
// byte, not the least recently used one. A cheap entry touched to the MRU
// position must still be evicted before an expensive LRU entry.
func TestCacheCostBenefitEviction(t *testing.T) {
	c := NewCache(200) // fits two 100-byte entries
	cheap := NewInstruction("op", "cheap", NewLiteral("a"))
	expensive := NewInstruction("op", "expensive", NewLiteral("b"))
	c.Put(cheap, 1, 100, 1_000)             // 10 ns/byte
	c.Put(expensive, 2, 100, 1_000_000_000) // 1e7 ns/byte
	// touch cheap so it is MRU and expensive is LRU; pure LRU would now
	// evict expensive
	if _, ok := c.Get(cheap); !ok {
		t.Fatal("cheap entry missing before eviction")
	}
	c.Put(NewInstruction("op", "new", NewLiteral("c")), 3, 100, 500_000)
	if _, ok := c.Get(expensive); !ok {
		t.Error("expensive entry evicted despite higher benefit score")
	}
	if _, ok := c.Get(cheap); ok {
		t.Error("cheap entry survived despite lowest benefit score")
	}
}

// TestCacheEvictionTiesDegradeToLRU checks the tie-break: with equal scores
// (all zero computeNs) the least recently used entry is the victim, matching
// the old pure-LRU behavior.
func TestCacheEvictionTiesDegradeToLRU(t *testing.T) {
	c := NewCache(200)
	x := NewInstruction("op", "x", NewLiteral("x"))
	y := NewInstruction("op", "y", NewLiteral("y"))
	c.Put(x, 1, 100, 0)
	c.Put(y, 2, 100, 0)
	if _, ok := c.Get(x); !ok { // x becomes MRU
		t.Fatal("x missing")
	}
	c.Put(NewInstruction("op", "z", NewLiteral("z")), 3, 100, 0)
	if _, ok := c.Get(x); !ok {
		t.Error("MRU entry evicted on a score tie")
	}
	if _, ok := c.Get(y); ok {
		t.Error("LRU entry survived a score tie")
	}
}

// memStore is an in-memory BackingStore double. It records every key whose
// length is not the 32 hex digits of a rendered Hash.
type memStore struct {
	mu      sync.Mutex
	entries map[uint64]memEntry
	lookups int
	badKeys []string
}

type memEntry struct {
	key       string
	value     any
	sizeBytes int64
	computeNs int64
}

func newMemStore() *memStore { return &memStore{entries: map[uint64]memEntry{}} }

func (m *memStore) Lookup(hash uint64, key string) (any, int64, int64, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.lookups++
	m.checkKey(key)
	e, ok := m.entries[hash]
	if !ok || e.key != key {
		return nil, 0, 0, false
	}
	return e.value, e.sizeBytes, e.computeNs, true
}

func (m *memStore) Persist(hash uint64, key string, value any, sizeBytes, computeNs int64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.checkKey(key)
	m.entries[hash] = memEntry{key: key, value: value, sizeBytes: sizeBytes, computeNs: computeNs}
	return true
}

func (m *memStore) checkKey(key string) {
	if len(key) != 32 {
		m.badKeys = append(m.badKeys, key)
	}
}

// TestCacheStoreFallthrough checks the cross-run path at the cache level: a
// memory miss probes the backing store, a store hit re-populates the memory
// cache (so the second Get does not touch the store again), and inserts are
// written through.
func TestCacheStoreFallthrough(t *testing.T) {
	store := newMemStore()
	warm := NewInstruction("tsmm", "", NewCreation("input", "X#abc"))
	store.Persist(warm.Hash().Lo, warm.Hash().String(), "persisted", 100, 777)

	c := NewCache(1 << 20)
	c.SetStore(store)
	v, ok := c.Get(warm)
	if !ok || v != "persisted" {
		t.Fatalf("store fallthrough Get = (%v, %v)", v, ok)
	}
	stats := c.Stats()
	if stats.StoreHits != 1 || stats.Hits != 1 {
		t.Errorf("stats after store hit = %+v", stats)
	}
	lookupsAfterFirst := store.lookups
	if _, ok := c.Get(warm); !ok {
		t.Fatal("second Get must hit memory")
	}
	if store.lookups != lookupsAfterFirst {
		t.Error("second Get went to the store instead of memory")
	}

	// write-through: a fresh Put lands in the store
	item := NewInstruction("ba+*", "", NewCreation("input", "Y#def"))
	c.Put(item, "computed", 50, 123)
	if _, _, _, ok := store.Lookup(item.Hash().Lo, item.Hash().String()); !ok {
		t.Error("Put was not written through to the store")
	}
	if c.Stats().StorePuts != 1 {
		t.Errorf("StorePuts = %d, want 1", c.Stats().StorePuts)
	}
}

// TestCacheStoreMissCountsMiss checks that a miss in both memory and store is
// one miss, and that a disabled cache never probes the store.
func TestCacheStoreMissCountsMiss(t *testing.T) {
	store := newMemStore()
	c := NewCache(1 << 20)
	c.SetStore(store)
	if _, ok := c.Get(NewInstruction("op", "q", NewLiteral("q"))); ok {
		t.Fatal("unexpected hit")
	}
	if s := c.Stats(); s.Misses != 1 || s.StoreHits != 0 {
		t.Errorf("stats = %+v", s)
	}
	off := NewCache(0)
	off.SetStore(store)
	before := store.lookups
	if _, ok := off.Get(NewLiteral("x")); ok {
		t.Fatal("disabled cache must miss")
	}
	if store.lookups != before {
		t.Error("disabled cache probed the store")
	}
}

// TestCacheStoreKeyIsFixedWidth: the store is addressed by the rendered hash,
// never by the rendered DAG — the key stays 32 characters however deep the
// lineage is, on the hit, miss and write-through paths.
func TestCacheStoreKeyIsFixedWidth(t *testing.T) {
	store := newMemStore()
	c := NewCache(1 << 20)
	c.SetStore(store)
	item := NewCreation("input", "X#abc")
	for depth := 0; depth < 200; depth++ {
		item = NewInstruction("+", "0=1", item, item)
		if _, ok := c.Get(item); ok {
			t.Fatalf("depth %d: unexpected hit", depth)
		}
		c.Put(item, depth, 8, 1)
	}
	fresh := NewCache(1 << 20) // empty memory, same store: the hit comes from Lookup
	fresh.SetStore(store)
	if v, ok := fresh.Get(item); !ok || v != 199 {
		t.Fatalf("store hit on the deepest item = (%v, %v), want (199, true)", v, ok)
	}
	if len(store.badKeys) != 0 {
		t.Errorf("%d store keys are not 32 characters, first %q", len(store.badKeys), store.badKeys[0])
	}
	if store.lookups != 201 || len(store.entries) != 200 {
		t.Errorf("store saw %d lookups and holds %d entries, want 201 and 200", store.lookups, len(store.entries))
	}
}
