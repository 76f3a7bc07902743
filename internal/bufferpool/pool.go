// Package bufferpool implements the multi-level buffer pool of the SystemDS
// control program (Section 2.3): live matrix intermediates are kept in memory
// up to a configurable budget; when the budget is exceeded, cold unpinned
// objects are evicted to temporary files and restored transparently on the
// next access.
package bufferpool

import (
	"container/list"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
)

// Entry is the interface buffer-pool-managed objects implement. MatrixObject
// in the runtime package is the primary implementation. An entry's data
// never changes once it has been written to a spill file (the one in-place
// write an entry allows happens only while it has no spill file), so a spill
// file stays valid for as long as it exists.
type Entry interface {
	// PoolID returns a stable unique id for the entry.
	PoolID() int64
	// MemorySize returns the bytes the entry holds in memory (0 when evicted).
	MemorySize() int64
	// Evict frees in-memory data: all of it, or — for an entry that holds its
	// data in more than one form — the form it can best do without; the pool
	// calls again if it needs the rest. Data with no copy on disk is written
	// to the spill file(s) at path first. clean reports that an earlier Evict
	// already wrote them, so they are not written again. Evict returns the
	// bytes it freed and the bytes it wrote.
	Evict(path string, clean bool) (freed, written int64, err error)
	// IsPinned reports whether the entry is currently in use and must not be
	// evicted.
	IsPinned() bool
}

// Stats reports buffer pool activity.
type Stats struct {
	// Evictions counts the evictions that wrote an entry to disk and
	// BytesSpilt the bytes they wrote; CleanDrops counts the evictions that
	// freed memory without writing, because the data was already on disk or
	// can be derived from what the entry keeps.
	Evictions  int64
	BytesSpilt int64
	CleanDrops int64
	Restores   int64
	// BlocksRestored / BlocksSkipped account partial restores of per-block
	// spilled entries: how many spill blocks an operator actually read back
	// versus how many the partial access let it skip.
	BlocksRestored int64
	BlocksSkipped  int64
}

// Discarder is an optional Entry extension: entries that manage their own
// spill files (e.g. per-block spills) are asked to remove them when they are
// unregistered from the pool.
type Discarder interface {
	Discard()
}

// Pool tracks registered entries and enforces the memory budget with LRU
// eviction of unpinned entries.
type Pool struct {
	mu      sync.Mutex
	budget  int64
	dir     string
	entries map[int64]*list.Element
	lru     *list.List // of Entry, front = most recently used
	// inMem is the running total of in-memory bytes across registered
	// entries, maintained on register/restore/evict/unregister so budget
	// enforcement does not rescan the LRU list on every access.
	inMem int64
	stats Stats
	// spilt holds the ids whose entry was written to disk: their spill files
	// stay valid — a restored entry is evicted again without writing — until
	// they are removed when the entry is unregistered.
	spilt map[int64]bool
}

// smallEntryFactor bounds what an eviction may cost relative to what it
// gains: an entry that needs a spill file of its own is passed over while
// its bytes are less than 1/smallEntryFactor of the overshoot. Creating a
// file costs the same for 2 KB as for 2 MB, and entries that small are the
// scalars-as-matrices and vectors an iterative script rebinds every
// iteration; the large entry behind them in the LRU order closes the gap in
// one write.
const smallEntryFactor = 16

// entryIDs hands out entry ids for every pool of the process. Ids name spill
// files, and pools can share a spill directory — every run has its own pool,
// and entries the lineage cache retains outlive their run — so they must be
// unique across pools, not per pool.
var entryIDs atomic.Int64

// New creates a buffer pool with the given byte budget and spill directory.
// A budget <= 0 disables eviction (everything stays in memory).
func New(budgetBytes int64, dir string) *Pool {
	if dir == "" {
		dir = os.TempDir()
	}
	return &Pool{budget: budgetBytes, dir: dir, entries: map[int64]*list.Element{}, lru: list.New()}
}

// NextID returns a fresh id for a new entry.
func (p *Pool) NextID() int64 { return entryIDs.Add(1) }

// SpillPath returns the spill file path for an entry id.
func (p *Pool) SpillPath(id int64) string {
	return filepath.Join(p.dir, fmt.Sprintf("sysds_spill_%d.bin", id))
}

// Register adds an entry to the pool (most recently used position) and
// enforces the budget.
func (p *Pool) Register(e Entry) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if _, ok := p.entries[e.PoolID()]; !ok {
		p.entries[e.PoolID()] = p.lru.PushFront(e)
		p.inMem += e.MemorySize()
	}
	p.mu.Unlock()
	p.enforceBudget()
}

// Unregister removes an entry (e.g. when a variable goes out of scope).
func (p *Pool) Unregister(id int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	var discard Discarder
	if el, ok := p.entries[id]; ok {
		e := el.Value.(Entry)
		p.inMem -= e.MemorySize()
		discard, _ = e.(Discarder)
		p.lru.Remove(el)
		delete(p.entries, id)
	}
	spilt := p.spilt[id]
	delete(p.spilt, id)
	p.mu.Unlock()
	// best effort clean up of the spill file(s)
	if spilt {
		_ = os.Remove(p.SpillPath(id))
	}
	if discard != nil {
		discard.Discard()
	}
}

// ReleaseExcept unregisters every entry keep rejects, removing its spill
// file(s). A run calls it when it ends, keeping only what outlives the run.
func (p *Pool) ReleaseExcept(keep func(Entry) bool) {
	if p == nil {
		return
	}
	p.mu.Lock()
	entries := make([]Entry, 0, p.lru.Len())
	for el := p.lru.Front(); el != nil; el = el.Next() {
		entries = append(entries, el.Value.(Entry))
	}
	p.mu.Unlock()
	for _, e := range entries {
		if !keep(e) {
			p.Unregister(e.PoolID())
		}
	}
}

// NotifyAccess moves the entry to the most-recently-used position. restored
// is the number of bytes the caller just read back from the entry's spill
// file(s) — 0 when the access was served from memory — so the running
// in-memory counter stays consistent.
func (p *Pool) NotifyAccess(e Entry, restored int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	if el, ok := p.entries[e.PoolID()]; ok {
		p.lru.MoveToFront(el)
		p.inMem += restored
	} else {
		p.entries[e.PoolID()] = p.lru.PushFront(e)
		p.inMem += e.MemorySize()
	}
	if restored > 0 {
		p.stats.Restores++
	}
	p.mu.Unlock()
	p.enforceBudget()
}

// enforceBudget evicts unpinned entries, coldest first, until the running
// in-memory total fits the budget. The first pass leaves small entries that
// would need a file alone (smallEntryFactor); if the large ones did not
// suffice, the second takes whatever is left, so the budget holds either way.
func (p *Pool) enforceBudget() {
	if p == nil || p.budget <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for pass := 0; pass < 2 && p.inMem > p.budget; pass++ {
		for el := p.lru.Back(); el != nil && p.inMem > p.budget; el = el.Prev() {
			e := el.Value.(Entry)
			if e.IsPinned() {
				continue
			}
			id := e.PoolID()
			if pass == 0 && !p.spilt[id] && e.MemorySize()*smallEntryFactor < p.inMem-p.budget {
				continue
			}
			for p.inMem > p.budget {
				freed, written, err := e.Evict(p.SpillPath(id), p.spilt[id])
				if err != nil || freed == 0 {
					break
				}
				p.inMem -= freed
				if written > 0 {
					if p.spilt == nil {
						p.spilt = map[int64]bool{}
					}
					p.spilt[id] = true
					p.stats.Evictions++
					p.stats.BytesSpilt += written
				} else {
					p.stats.CleanDrops++
				}
			}
		}
	}
}

// NotifyResize adjusts the running in-memory total after a registered
// entry's resident size changed (e.g. a derived representation was memoized
// on it), then re-enforces the budget. The caller reports the delta it is
// responsible for; pairing every grow with the entry's MemorySize including
// the grown bytes keeps the counter balanced regardless of how the resize
// interleaves with an eviction.
func (p *Pool) NotifyResize(e Entry, delta int64) {
	if p == nil || delta == 0 {
		return
	}
	p.mu.Lock()
	if _, ok := p.entries[e.PoolID()]; ok {
		p.inMem += delta
	}
	p.mu.Unlock()
	p.enforceBudget()
}

// RecordPartialRestore accounts a partial restore of a per-block spilled
// entry: restored blocks were read back from their spill files, skipped
// blocks stayed on disk because the operator did not touch them.
func (p *Pool) RecordPartialRestore(restored, skipped int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.stats.BlocksRestored += restored
	p.stats.BlocksSkipped += skipped
	p.mu.Unlock()
}

// InMemoryBytes returns the total bytes currently held in memory by
// registered entries (the running counter maintained on
// register/restore/evict/unregister).
func (p *Pool) InMemoryBytes() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.inMem
}

// Stats returns a snapshot of eviction/restore statistics.
func (p *Pool) Stats() Stats {
	if p == nil {
		return Stats{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// Len returns the number of registered entries.
func (p *Pool) Len() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.lru.Len()
}
