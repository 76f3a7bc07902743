package lineage

import (
	"container/list"
	"sync"
)

// CacheEntry is one cached intermediate: the value (a runtime data object,
// stored as any to keep the package dependency-free), its size in bytes and
// the compute time that was saved.
type CacheEntry struct {
	Item      *Item
	Value     any
	SizeBytes int64
	ComputeNs int64
}

// CacheStats reports reuse-cache effectiveness. StoreHits and StorePuts
// count traffic with the attached persistent backing store: a StoreHit is a
// hit served from a previous run's spill files.
type CacheStats struct {
	Hits      int64
	Misses    int64
	Puts      int64
	Evictions int64
	// PartialHits is always 0: partial reuse (compensation plans over cached
	// sub-results) was removed. The field stays only because the benchmark
	// module reports it.
	PartialHits int64
	BytesCached int64
	StoreHits   int64
	StorePuts   int64
}

// BackingStore persists cache entries across runs and processes. The cache
// probes it on a memory miss and writes qualifying entries through to it;
// implementations live above this package (the runtime provides the value
// codec, the buffer pool the spill files) so the lineage package stays
// dependency-free. hash is the low lane of the item's 128-bit hash and
// addresses the entry; key is the fixed-width rendering of all 128 bits
// (Hash.String) and verifies it.
type BackingStore interface {
	// Lookup returns the persisted value stored under the lineage hash, or
	// ok=false (a corrupt or missing entry is a miss, never an error).
	Lookup(hash uint64, key string) (value any, sizeBytes, computeNs int64, ok bool)
	// Persist stores a value under the lineage hash, returning whether the
	// value was persistable (encodable and within the store budget).
	Persist(hash uint64, key string, value any, sizeBytes, computeNs int64) bool
}

// Cache is the lineage-based reuse cache: intermediates are identified by the
// hash of their lineage DAG and evicted under a byte budget by a cost-benefit
// score — compute time saved per byte retained — with LRU order breaking ties
// (Section 3.1: reuse of intermediates inspired by recycling in MonetDB).
// With an attached BackingStore the cache spans runs: misses fall through to
// the store and inserts are written through to it.
type Cache struct {
	mu       sync.Mutex
	budget   int64
	used     int64
	entries  map[Hash]*list.Element
	lru      *list.List // of *CacheEntry, front = most recently used
	stats    CacheStats
	disabled bool
	store    BackingStore
	// dropped queues the values of removed entries until their holds can be
	// released outside the lock.
	dropped []any
}

// Retainer is implemented by cached values that count their holders — the
// runtime's buffer-pool-backed objects, whose spill files exist for as long
// as somebody holds them. Every cache entry is a holder of its value, and
// every hit hands the caller a holder of its own, taken under the probe's
// lock: an eviction racing with the hit then cannot be the one that lets the
// value go. The caller Releases it once it has bound or read the value.
type Retainer interface {
	Retain()
	Release()
}

func retain(value any) {
	if r, ok := value.(Retainer); ok {
		r.Retain()
	}
}

// releaseAll runs outside the cache lock: letting go of the last holder
// removes files.
func releaseAll(values []any) {
	for _, v := range values {
		if r, ok := v.(Retainer); ok {
			r.Release()
		}
	}
}

// NewCache creates a reuse cache with the given byte budget. A budget of 0
// disables caching.
func NewCache(budgetBytes int64) *Cache {
	return &Cache{
		budget:   budgetBytes,
		entries:  map[Hash]*list.Element{},
		lru:      list.New(),
		disabled: budgetBytes <= 0,
	}
}

// Enabled reports whether the cache accepts entries.
func (c *Cache) Enabled() bool { return c != nil && !c.disabled }

// SetStore attaches a persistent backing store: subsequent misses probe it
// and subsequent inserts write through to it.
func (c *Cache) SetStore(s BackingStore) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.store = s
	c.mu.Unlock()
}

// Get probes the cache for an intermediate with the given lineage; Equals
// confirms the entry found under the hash. On a memory miss it falls through
// to the attached backing store, reloading the persisted value of a previous
// run lazily. A hit on a Retainer is returned held (see Retainer).
func (c *Cache) Get(item *Item) (any, bool) {
	if !c.Enabled() {
		return nil, false
	}
	v, fromStore, ok := c.lookup(item)
	c.count(ok, fromStore, 1)
	return v, ok
}

// GetAll probes the items of a multi-output result all or none: the values
// when every item is found, in memory or in the store, else nothing. The
// probe stops at the first item not found and lets go of the values found
// before it. Each item counts as a hit when all are found and as a miss
// otherwise.
func (c *Cache) GetAll(items []*Item) ([]any, bool) {
	if !c.Enabled() {
		return nil, false
	}
	values := make([]any, len(items))
	stored := 0
	for i, item := range items {
		v, fromStore, ok := c.lookup(item)
		if !ok {
			releaseAll(values[:i])
			c.count(false, false, len(items))
			return nil, false
		}
		values[i] = v
		if fromStore {
			stored++
		}
	}
	c.mu.Lock()
	c.stats.Hits += int64(len(items))
	c.stats.StoreHits += int64(stored)
	c.mu.Unlock()
	return values, true
}

// lookup finds item in memory or, failing that, in the backing store, and
// counts nothing.
func (c *Cache) lookup(item *Item) (value any, fromStore, ok bool) {
	c.mu.Lock()
	if el, ok := c.entries[item.hash]; ok {
		entry := el.Value.(*CacheEntry)
		if entry.Item.Equals(item) {
			c.lru.MoveToFront(el)
			retain(entry.Value)
			c.mu.Unlock()
			return entry.Value, false, true
		}
	}
	store := c.store
	c.mu.Unlock()
	if store == nil {
		return nil, false, false
	}
	// disk probe outside the lock: parfor workers must not serialize on
	// file reads
	v, sizeBytes, computeNs, ok := store.Lookup(item.hash.Lo, item.hash.String())
	if !ok {
		return nil, false, false
	}
	retain(v)
	c.insert(item, v, sizeBytes, computeNs, false)
	return v, true, true
}

// count adds n hits (StoreHits too when fromStore) or n misses.
func (c *Cache) count(hit, fromStore bool, n int) {
	c.mu.Lock()
	if hit {
		c.stats.Hits += int64(n)
		if fromStore {
			c.stats.StoreHits += int64(n)
		}
	} else {
		c.stats.Misses += int64(n)
	}
	c.mu.Unlock()
}

// Put inserts an intermediate, evicting the lowest-benefit entries if the
// budget would be exceeded, and writes the entry through to the backing
// store when one is attached. Values larger than the whole budget are not
// cached.
func (c *Cache) Put(item *Item, value any, sizeBytes, computeNs int64) {
	c.insert(item, value, sizeBytes, computeNs, true)
}

// insert is the shared insertion path of Put and store reloads; persist
// marks a Put, which counts as a put and writes through (a store reload is
// neither: nothing was computed, and its file already exists).
func (c *Cache) insert(item *Item, value any, sizeBytes, computeNs int64, persist bool) {
	if !c.Enabled() || sizeBytes > c.budget {
		return
	}
	c.mu.Lock()
	if el, exists := c.entries[item.hash]; exists {
		entry := el.Value.(*CacheEntry)
		if entry.Item.Equals(item) {
			// same intermediate: refresh its LRU position
			c.lru.MoveToFront(el)
			c.mu.Unlock()
			return
		}
		// hash collision: replace the old entry, otherwise the colliding item
		// could never be cached (every Get would fail the Equals check)
		c.removeLocked(el)
	}
	for c.used+sizeBytes > c.budget && c.lru.Len() > 0 {
		c.evictMinBenefitLocked()
	}
	entry := &CacheEntry{Item: item, Value: value, SizeBytes: sizeBytes, ComputeNs: computeNs}
	el := c.lru.PushFront(entry)
	c.entries[item.hash] = el
	retain(value)
	c.used += sizeBytes
	if persist {
		c.stats.Puts++
	}
	c.stats.BytesCached = c.used
	store := c.store
	dropped := c.dropped
	c.dropped = nil
	c.mu.Unlock()
	releaseAll(dropped)
	// write-through outside the lock, for the same reason Get probes
	// outside it
	if persist && store != nil {
		if store.Persist(item.hash.Lo, item.hash.String(), value, sizeBytes, computeNs) {
			c.mu.Lock()
			c.stats.StorePuts++
			c.mu.Unlock()
		}
	}
}

// evictMinBenefitLocked implements cost-benefit eviction: the victim is the
// entry with the lowest score of compute nanoseconds saved per byte retained,
// so an expensive small intermediate outlives a cheap large one regardless of
// recency. Walking the LRU list back-to-front with a strict less-than keeps
// the least recently used among equally-scored entries as the victim, which
// degrades to plain LRU when scores tie (e.g. all zero).
func (c *Cache) evictMinBenefitLocked() {
	var victim *list.Element
	var victimScore float64
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		entry := el.Value.(*CacheEntry)
		size := entry.SizeBytes
		if size < 1 {
			size = 1
		}
		score := float64(entry.ComputeNs) / float64(size)
		if victim == nil || score < victimScore {
			victim, victimScore = el, score
		}
	}
	if victim != nil {
		c.removeLocked(victim)
	}
}

// removeLocked drops one entry and counts it as an eviction. The entry's hold
// on its value is queued in dropped, for the caller to release once it has
// let go of the lock.
func (c *Cache) removeLocked(el *list.Element) {
	entry := el.Value.(*CacheEntry)
	c.lru.Remove(el)
	delete(c.entries, entry.Item.hash)
	c.dropped = append(c.dropped, entry.Value)
	c.used -= entry.SizeBytes
	c.stats.Evictions++
}

// Stats returns a snapshot of the cache statistics.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.BytesCached = c.used
	return s
}

// Len returns the number of cached entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// Clear drops all cached entries.
func (c *Cache) Clear() {
	if c == nil {
		return
	}
	c.mu.Lock()
	dropped := c.dropped
	c.dropped = nil
	for el := c.lru.Front(); el != nil; el = el.Next() {
		dropped = append(dropped, el.Value.(*CacheEntry).Value)
	}
	clear(c.entries)
	c.lru.Init()
	c.used = 0
	c.mu.Unlock()
	releaseAll(dropped)
}
