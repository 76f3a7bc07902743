package matrix

import (
	"math"
	"sync"
	"sync/atomic"
)

// Recycler is a bounded free list of dense value arrays. An engine keeps one
// for its lifetime: the fused cell kernel takes its output arrays from it,
// and the arrays of dead intermediates go back to it, so a prepared script
// called in a loop stops allocating (and collecting) its intermediates.
// Arrays are matched by exact length and handed out as they were left, not
// zeroed: the kernel that takes one overwrites every cell.
//
// Whether an array may come back is decided by a claim on the block that
// carries it, the same claim that decides whether the block may be written
// in place. Every block a kernel allocates starts with a fresh claim; the
// first handle that wraps the block claims it (Claim), a second wrap revokes
// the claim for good, and only the claiming handle, once its last holder has
// let go, gives the array back (Recycle) — unless the handle gave up the
// right, as one handed to a caller does. Nothing else returns an array: not
// eviction, not a block the list did not hand out. A Recycler is safe for
// concurrent use, and a nil *Recycler hands out ordinary zeroed blocks that
// never come back.
type Recycler struct {
	mu    sync.Mutex
	free  [][]float64 // oldest first
	bytes int64
}

// The list's fixed bounds. When a returned array would exceed either, the
// oldest arrays are dropped to the garbage collector; an array larger than
// recycleMaxBytes is never kept.
const (
	recycleMaxArrays = 16
	recycleMaxBytes  = 32 << 20
)

// The claim states of a block (MatrixBlock.claim).
const (
	claimNone   int32 = iota // foreign memory, turned sparse, or given back
	claimFresh               // allocated by a kernel, not wrapped yet
	claimOwned               // wrapped by exactly one handle
	claimShared              // wrapped twice: never written, never given back
)

// poisonRecycled makes put fill every array it takes back with NaN.
var poisonRecycled atomic.Bool

// PoisonRecycled switches NaN-filling of returned arrays on or off (off by
// default). It exists for tests: with it on, a reader of an array that went
// back too early sees NaN instead of plausible stale values.
func PoisonRecycled(on bool) { poisonRecycled.Store(on) }

// NewRecycler returns an empty free list.
func NewRecycler() *Recycler { return &Recycler{} }

// Dense returns a rows x cols dense block whose every cell the caller must
// write: its array comes from the list when one of exactly that length is
// there, else it is allocated. The block carries a fresh claim.
func (r *Recycler) Dense(rows, cols int) *MatrixBlock {
	n := rows * cols
	if r == nil || n == 0 {
		return NewDense(rows, cols)
	}
	var vals []float64
	r.mu.Lock()
	for i := len(r.free) - 1; i >= 0; i-- {
		if len(r.free[i]) == n {
			vals = r.free[i]
			r.free = append(r.free[:i], r.free[i+1:]...)
			r.bytes -= int64(n) * 8
			break
		}
	}
	r.mu.Unlock()
	if vals == nil {
		vals = make([]float64, n)
	}
	return &MatrixBlock{rows: rows, cols: cols, dense: vals, claim: claimFresh, from: r}
}

// put takes an array back, dropping the oldest ones beyond the bounds.
func (r *Recycler) put(vals []float64) {
	size := int64(len(vals)) * 8
	if size > recycleMaxBytes {
		return
	}
	if poisonRecycled.Load() {
		for i := range vals {
			vals[i] = math.NaN()
		}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.free = append(r.free, vals)
	r.bytes += size
	for len(r.free) > recycleMaxArrays || r.bytes > recycleMaxBytes {
		r.bytes -= int64(len(r.free[0])) * 8
		r.free[0] = nil
		r.free = r.free[1:]
	}
}

// Claim is called by every handle that wraps m, and by every memo that keeps
// it. It reports whether this handle is the only one and may write m in
// place or Recycle it; a second wrap also revokes the first handle's right,
// since either may outlive the other.
func (m *MatrixBlock) Claim() bool {
	if atomic.CompareAndSwapInt32(&m.claim, claimFresh, claimOwned) {
		return true
	}
	atomic.CompareAndSwapInt32(&m.claim, claimOwned, claimShared)
	return false
}

// Owned reports whether the one handle whose Claim returned true still holds
// the claim: no second handle wrapped m, and m was neither given back nor
// turned sparse.
func (m *MatrixBlock) Owned() bool { return atomic.LoadInt32(&m.claim) == claimOwned }

// Recycle gives m's array back to the list it came from. Only the handle
// whose Claim returned true calls it, after its last holder has let go: from
// then on nobody may read m. A revoked claim, a block turned sparse, a block
// no list handed out and a second call do nothing.
func (m *MatrixBlock) Recycle() {
	if !atomic.CompareAndSwapInt32(&m.claim, claimOwned, claimNone) {
		return
	}
	if m.from != nil && m.sparse == nil && len(m.dense) == m.rows*m.cols {
		m.from.put(m.dense)
	}
}
