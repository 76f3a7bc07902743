// Package runtime implements the control program of SystemDS-Go
// (Section 2.3 of the paper): runtime data objects (scalars, matrices backed
// by the buffer pool, frames, lists, federated matrices), the execution
// context with its symbol table, program blocks for control flow including
// the parfor backend, dynamic recompilation hooks, and the integration of
// lineage tracing and the lineage-based reuse cache into instruction
// execution.
package runtime

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/systemds/systemds-go/internal/bufferpool"
	"github.com/systemds/systemds-go/internal/dist"
	"github.com/systemds/systemds-go/internal/fed"
	"github.com/systemds/systemds-go/internal/frame"
	sdsio "github.com/systemds/systemds-go/internal/io"
	"github.com/systemds/systemds-go/internal/lineage"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/obs"
	"github.com/systemds/systemds-go/internal/types"
)

// Data is the common interface of all runtime values held in the symbol
// table. Runtime values are immutable unless exclusively held: an instruction
// creates a new object for its output, except that a left-indexing update (and
// the parfor merge of a left-indexed variable) writes a local matrix's block
// in place when nothing but the binding it replaces can see the block
// (MatrixObject.exclusive). That keeps parfor workers, the lineage cache and
// the buffer pool safe without fine-grained locking: each of them holds what
// it can see, and a held value is never written.
type Data interface {
	DataType() types.DataType
	String() string
}

// Scalar is a scalar runtime value of one of the supported value types.
type Scalar struct {
	VT types.ValueType
	F  float64
	S  string
	B  bool
}

// NewDouble creates an FP64 scalar.
func NewDouble(v float64) *Scalar { return &Scalar{VT: types.FP64, F: v} }

// NewInt creates an INT64 scalar.
func NewInt(v int64) *Scalar { return &Scalar{VT: types.INT64, F: float64(v)} }

// NewBool creates a boolean scalar.
func NewBool(v bool) *Scalar {
	f := 0.0
	if v {
		f = 1
	}
	return &Scalar{VT: types.Boolean, B: v, F: f}
}

// NewString creates a string scalar.
func NewString(s string) *Scalar { return &Scalar{VT: types.String, S: s} }

// DataType returns types.Scalar.
func (s *Scalar) DataType() types.DataType { return types.Scalar }

// Number returns the numeric value of the scalar: a string is parsed, and
// one that is not a number is an error, never 0.
func (s *Scalar) Number() (float64, error) {
	if s.VT == types.String {
		v, err := strconv.ParseFloat(s.S, 64)
		if err != nil {
			return 0, fmt.Errorf("runtime: string %q is not a number", s.S)
		}
		return v, nil
	}
	return s.F, nil
}

// Float64 is Number with a string that is not a number read as 0: it is
// for values known to be numeric, and a DML value read as a number goes
// through Number.
func (s *Scalar) Float64() float64 {
	v, _ := s.Number()
	return v
}

// Int64 returns the value truncated to an integer.
func (s *Scalar) Int64() int64 { return int64(s.Float64()) }

// Bool returns the boolean interpretation of the scalar.
func (s *Scalar) Bool() bool {
	if s.VT == types.Boolean {
		return s.B
	}
	if s.VT == types.String {
		return s.S == "TRUE" || s.S == "true"
	}
	return s.F != 0
}

// StringValue returns the string rendering of the scalar value.
func (s *Scalar) StringValue() string {
	switch s.VT {
	case types.String:
		return s.S
	case types.Boolean:
		if s.B {
			return "TRUE"
		}
		return "FALSE"
	case types.INT64, types.INT32:
		return strconv.FormatInt(int64(s.F), 10)
	default:
		return strconv.FormatFloat(s.F, 'g', -1, 64)
	}
}

// String implements Data.
func (s *Scalar) String() string { return s.StringValue() }

// ScalarItem is the lineage of a scalar: a literal leaf of its typed value,
// the value-type tag followed by the eight float bits or by the string. A
// literal, a loop variable, a computed value, a parameter default and an API
// input that are equal therefore trace to one item.
func ScalarItem(s *Scalar) *lineage.Item {
	var b [9]byte
	b[0] = byte(s.VT)
	if s.VT == types.String {
		return lineage.NewLiteral(string(b[:1]) + s.S)
	}
	binary.LittleEndian.PutUint64(b[1:], math.Float64bits(s.F))
	return lineage.NewLiteral(string(b[:]))
}

// poolRef is what the buffer-pool-backed handles share: their identity in the
// pool and the count of their holders. A holder is a symbol-table binding in
// any context of the run, a list the value is an element of, a reuse-cache
// entry, or a caller a value is being handed to (a function's results, a
// cache hit). The value leaves the pool, and its spill files are removed,
// when the last holder lets go — it can no longer be asked for, so the pool
// must neither count it nor write it. A value nobody ever held (an output
// that was never bound) is only collected when the run releases its pool.
type poolRef struct {
	id   int64
	pool *bufferpool.Pool
	refs atomic.Int32
}

// PoolID implements bufferpool.Entry.
func (r *poolRef) PoolID() int64 { return r.id }

// Retain adds a holder.
func (r *poolRef) Retain() { r.refs.Add(1) }

// Release drops a holder; the last one takes the value out of the pool.
func (r *poolRef) Release() {
	if r.refs.Add(-1) == 0 {
		r.pool.Unregister(r.id)
	}
}

// Held reports whether the value has a holder.
func (r *poolRef) Held() bool { return r.refs.Load() > 0 }

// IsPinned implements bufferpool.Entry. In-flight readers keep their own
// reference to the data, so eviction is safe whenever the pool asks; the one
// write a value can see, an in-place update, holds the object's lock, which
// Evict waits for.
func (r *poolRef) IsPinned() bool { return false }

// refCounted is implemented by the values whose holders are counted: the
// pooled handles, and the values that hold such handles in turn.
type refCounted interface {
	Retain()
	Release()
}

// Retain adds a holder to d if d counts its holders (see poolRef).
func Retain(d Data) {
	if r, ok := d.(refCounted); ok {
		r.Retain()
	}
}

// Release drops a holder of d if d counts its holders.
func Release(d Data) {
	if r, ok := d.(refCounted); ok {
		r.Release()
	}
}

// MatrixData is the one handle of every matrix-typed runtime value, whatever
// its physical representation — local (MatrixObject), blocked
// (BlockedMatrixObject), column-group compressed (CompressedMatrixObject),
// federated (FederatedObject) or a Transposed view of any of them. A consumer
// that has no kernel for a representation asks for the local block and never
// needs to know which representation it was handed.
type MatrixData interface {
	Data
	// DataCharacteristics returns the matrix metadata without touching data.
	DataCharacteristics() types.DataCharacteristics
	// LocalFor returns the value as one local block for the consumer op: a
	// local matrix is acquired through the buffer pool, a blocked one collected
	// and a compressed one decompressed (each memoized, the latter two counted
	// by ctx, the decompression against op); a federated matrix answers
	// ErrFederated — its data stays at the sites.
	LocalFor(ctx *Context, op string) (*matrix.MatrixBlock, error)
}

// ErrFederated is what LocalFor answers for federated data.
var ErrFederated = errors.New("federated; operation requires a local matrix")

// LocalBlockOf returns the value bound to name as one local block for the
// consumer op (see MatrixData.LocalFor); scalars are promoted to 1x1 matrices,
// mirroring DML's implicit casting in matrix contexts.
func LocalBlockOf(ctx *Context, name string, d Data, op string) (*matrix.MatrixBlock, error) {
	switch v := d.(type) {
	case MatrixData:
		blk, err := v.LocalFor(ctx, op)
		if errors.Is(err, ErrFederated) {
			return nil, fmt.Errorf("runtime: variable %q is %w", name, err)
		}
		return blk, err
	case *Scalar:
		x, err := v.Number()
		if err != nil {
			return nil, err
		}
		m := matrix.NewDense(1, 1)
		m.Set(0, 0, x)
		return m, nil
	}
	return nil, fmt.Errorf("runtime: variable %q is a %s, expected a matrix", name, d.DataType())
}

// Transposed is the transpose of a matrix whose representation has no cheap
// materialized transpose (compressed, federated), kept as a zero-cost view:
// t(X) %*% Y over the view runs the transpose-free kernels on X itself (the hot
// gradient step of iterative algorithms), t(t(X)) folds back to X, and a
// consumer without such a kernel gets the transposed local block.
type Transposed struct {
	Source MatrixData

	mu sync.Mutex
	// local memoizes the materialized transpose so repeated fallback consumers
	// of the same view pay the O(m*n) transpose once (the source memoizes its
	// own decompression or collect).
	local *matrix.MatrixBlock
}

// DataType implements Data.
func (t *Transposed) DataType() types.DataType { return types.Matrix }

// String implements Data.
func (t *Transposed) String() string { return fmt.Sprintf("t(%s)", t.Source.String()) }

// DataCharacteristics returns the transposed metadata.
func (t *Transposed) DataCharacteristics() types.DataCharacteristics {
	dc := t.Source.DataCharacteristics()
	dc.Rows, dc.Cols = dc.Cols, dc.Rows
	return dc
}

// LocalFor implements MatrixData: the transpose of the source's local block.
func (t *Transposed) LocalFor(ctx *Context, op string) (*matrix.MatrixBlock, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.local == nil {
		blk, err := t.Source.LocalFor(ctx, op)
		if err != nil {
			return nil, err
		}
		t.local = matrix.Transpose(blk)
		t.local.Claim() // the memo is a handle: no wrap of it may write it
	}
	return t.local, nil
}

// Retain makes the view's holder a holder of its source.
func (t *Transposed) Retain() { Retain(t.Source) }

// Release drops what Retain added.
func (t *Transposed) Release() { Release(t.Source) }

// MatrixObject is the buffer-pool-backed handle of a matrix: it carries the
// data characteristics and either holds the block in memory or a reference to
// its spill file.
type MatrixObject struct {
	poolRef
	mu        sync.Mutex
	dc        types.DataCharacteristics
	block     *matrix.MatrixBlock
	spillPath string // set once the block has been written; valid from then on
	// blocked memoizes the partitioned form of this object so named inputs
	// consumed by distributed operators in several DAGs partition once, not
	// once per DAG. The block is never written in place while the memo
	// exists (exclusive's callers refuse), so the memo can never serve stale
	// data. A memo of row-strip views (blocked.View, a dense block with one
	// column block) shares the block's array: it owns no bytes, the
	// partition claimed the block so nothing writes or recycles the array,
	// and it leaves memory with the block. Any other memo is a second copy
	// of the data and counts in MemorySize while it is resident; under
	// memory pressure the object gives up one of the two forms and keeps the
	// other (Evict), so that the consumers that come next — dist operators
	// through the memo, CP operators through the block — find theirs in
	// memory.
	blocked   *dist.BlockedMatrix
	blockedBS int
	// blockedLast records which form the latest consumer asked for.
	blockedLast bool
	// owns says this object won the block's claim (matrix.MatrixBlock.Claim)
	// and was never handed to a caller (Share): see exclusive.
	owns bool
}

// exclusive is the one answer to "who else can see m's block". It holds when
// the block is resident, m still holds the block's claim — no second handle or
// memo ever wrapped it, it was not turned sparse, and m was never handed to a
// caller — and m has exactly holders holders (poolRef: bindings in any
// context, parfor workers' copies and function parameters included, list
// elements, views, reuse-cache entries, callers a value is being handed to).
// A restored block is never claimed, so an exclusive block has no spill file
// to go stale. The recycler asks with 0: the last holder has let go and
// nobody can see the array. An in-place writer asks with 1: its own binding,
// which the write replaces. The caller holds m.mu.
func (m *MatrixObject) exclusive(holders int32) bool {
	return m.owns && m.refs.Load() == holders && m.block != nil && m.block.Owned()
}

// Update writes the regions into m's block in place and reports whether it
// did: only when m is exclusive with one holder — the binding the caller is
// replacing by m — and its block is dense with no partitioned memo, which
// would go stale. Eviction waits for the write. Otherwise nothing is
// written, and the caller writes a copy (matrix.Update) instead.
func (m *MatrixObject) Update(writes []matrix.RegionWrite) (bool, error) {
	m.mu.Lock()
	if !m.exclusive(1) || m.block.IsSparse() || m.blocked != nil {
		m.mu.Unlock()
		return false, nil
	}
	before := m.block.InMemorySize()
	blk, err := matrix.Update(m.block, writes, true)
	if err != nil {
		m.mu.Unlock()
		return false, err
	}
	m.dc.NNZ = blk.NNZ()
	delta := blk.InMemorySize() - before
	m.mu.Unlock()
	m.pool.NotifyResize(m, delta)
	return true, nil
}

// NewMatrixObject wraps a matrix block into a managed matrix object and
// registers it with the pool (which may trigger evictions).
func NewMatrixObject(block *matrix.MatrixBlock, pool *bufferpool.Pool) *MatrixObject {
	mo := &MatrixObject{
		dc:    types.DataCharacteristics{Rows: int64(block.Rows()), Cols: int64(block.Cols()), Blocksize: types.DefaultBlocksize, NNZ: block.NNZ()},
		block: block,
		owns:  block.Claim(),
	}
	if pool != nil {
		mo.id, mo.pool = pool.NextID(), pool
		pool.Register(mo)
	}
	return mo
}

// Release drops a holder (see poolRef). When the last one lets go and the
// object is exclusive, the block's array goes back to the engine's free list
// — nobody can ask for the value any more — and the object drops the block,
// so a stale reader gets an error, not a recycled array. An evicted block is
// not given back: its array left with it.
func (m *MatrixObject) Release() {
	if m.refs.Add(-1) != 0 {
		return
	}
	m.pool.Unregister(m.id)
	m.mu.Lock()
	blk := m.block
	recycle := m.exclusive(0)
	if recycle {
		m.block, m.owns = nil, false
	}
	m.mu.Unlock()
	if recycle {
		blk.Recycle()
	}
}

// Share revokes d's right to write in place or recycle any block it holds,
// through lists and views: d is being handed to a caller who may keep it.
func Share(d Data) {
	switch v := d.(type) {
	case *MatrixObject:
		v.mu.Lock()
		v.owns = false
		v.mu.Unlock()
	case *ListObject:
		for _, e := range v.Values {
			Share(e)
		}
	case *Transposed:
		Share(v.Source)
	}
}

// DataType returns types.Matrix.
func (m *MatrixObject) DataType() types.DataType { return types.Matrix }

// DataCharacteristics returns the matrix metadata without touching the data.
func (m *MatrixObject) DataCharacteristics() types.DataCharacteristics {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.dc
}

// Acquire returns the in-memory matrix block, restoring it from the spill
// file if it was evicted by the buffer pool.
func (m *MatrixObject) Acquire() (*matrix.MatrixBlock, error) {
	m.mu.Lock()
	var restored int64
	if m.block == nil {
		if m.spillPath == "" {
			m.mu.Unlock()
			return nil, fmt.Errorf("runtime: matrix object %d has neither data nor spill file", m.id)
		}
		blk, err := restoreBlock(m.spillPath, types.DefaultBlocksize)
		if err != nil {
			m.mu.Unlock()
			return nil, fmt.Errorf("runtime: restore evicted matrix: %w", err)
		}
		m.block = blk
		restored = blk.InMemorySize()
	}
	m.blockedLast = false
	blk := m.block
	m.mu.Unlock()
	m.pool.NotifyAccess(m, restored)
	return blk, nil
}

// LocalFor implements MatrixData.
func (m *MatrixObject) LocalFor(*Context, string) (*matrix.MatrixBlock, error) { return m.Acquire() }

// restoreBlock reads one spill file, written with the given blocksize, back
// under a pool "restore" span carrying the bytes read.
func restoreBlock(path string, blocksize int) (*matrix.MatrixBlock, error) {
	sp := obs.Begin(obs.CatPool, "restore")
	blk, err := sdsio.ReadMatrixBinary(path)
	if err != nil {
		sp.End()
		return nil, err
	}
	sp.EndBytes(sdsio.EncodedSize(blk.Rows(), blk.Cols(), blocksize))
	return blk, nil
}

// spillBlock writes one spill file under a pool "spill" span carrying the
// bytes written, which it returns.
func spillBlock(path string, blk *matrix.MatrixBlock, blocksize int) (int64, error) {
	sp := obs.Begin(obs.CatPool, "spill")
	if err := sdsio.WriteMatrixBinary(path, blk, blocksize); err != nil {
		sp.End()
		return 0, err
	}
	written := sdsio.EncodedSize(blk.Rows(), blk.Cols(), blocksize)
	sp.EndBytes(written)
	return written, nil
}

// MemorySize implements bufferpool.Entry: the local block plus the bytes the
// memoized blocked form owns (none for views of the block), whichever are
// resident.
func (m *MatrixObject) MemorySize() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var size int64
	if m.block != nil {
		size += m.block.InMemorySize()
	}
	if m.blocked != nil {
		size += m.blocked.OwnedSize()
	}
	return size
}

// AppendArrays implements bufferpool.Sharer: a memo's arrays — the block,
// for a memo of views — may be held by a concatenation that took the
// partitioned form's blocks by reference. Without a memo nothing else holds
// the block.
func (m *MatrixObject) AppendArrays(dst []bufferpool.Array) []bufferpool.Array {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.blocked != nil {
		m.blocked.EachArray(func(a *matrix.MatrixBlock) {
			dst = append(dst, bufferpool.Array{Key: a, Bytes: a.InMemorySize()})
		})
	}
	return dst
}

// Evict implements bufferpool.Entry. An object holding both forms sheds the
// one its latest consumer did not ask for: the memo, which the block can
// rebuild, for free; the block for free if it is on disk already (clean),
// else for one write — after which the object serves dist consumers from the
// memo without touching disk. An object down to one form gives that up: the
// block is written unless clean, the memo is only ever dropped (its block
// went to disk before it). A memo of views is no second form: dropping it
// alone frees nothing, so the block goes and takes the memo with it, and the
// array they share is counted once.
func (m *MatrixObject) Evict(path string, clean bool) (freed, written int64, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.blocked != nil && m.blocked.View == nil && (m.block == nil || !m.blockedLast) {
		freed = m.blocked.InMemorySize()
		m.blocked = nil
		return freed, 0, nil
	}
	if m.block == nil {
		return 0, 0, nil
	}
	if !clean {
		if written, err = spillBlock(path, m.block, types.DefaultBlocksize); err != nil {
			return 0, 0, err
		}
		m.spillPath = path
	}
	freed = m.block.InMemorySize()
	m.block = nil
	if m.blocked != nil && m.blocked.View != nil {
		m.blocked = nil
	}
	return freed, written, nil
}

// CachedBlocked returns the memoized partitioned form of the matrix for the
// given block size, if one is resident.
func (m *MatrixObject) CachedBlocked(blocksize int) (*dist.BlockedMatrix, bool) {
	m.mu.Lock()
	bm := m.blocked
	if bm == nil || m.blockedBS != blocksize {
		m.mu.Unlock()
		return nil, false
	}
	m.blockedLast = true
	m.mu.Unlock()
	m.pool.NotifyAccess(m, 0)
	return bm, true
}

// StoreBlocked memoizes the partitioned form of the matrix so later
// distributed consumers of the same symbol-table entry reuse it, and reports
// the bytes the memo owns to the buffer pool so budget enforcement sees a
// copy (views of the block own none). The first store wins: concurrent
// instructions racing to memoize the same input must notify the pool exactly
// once. Views of a block the object no longer holds — it was evicted while
// the partition ran — are not kept: they would pin an array the pool counts
// as freed.
func (m *MatrixObject) StoreBlocked(bm *dist.BlockedMatrix, blocksize int) {
	m.mu.Lock()
	stored := m.blocked == nil && (bm.View == nil || bm.View == m.block)
	if stored {
		m.blocked, m.blockedBS, m.blockedLast = bm, blocksize, true
	}
	m.mu.Unlock()
	if stored {
		m.pool.NotifyResize(m, bm.OwnedSize())
	}
}

// IsInMemory reports whether the local block is resident.
func (m *MatrixObject) IsInMemory() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.block != nil
}

// String implements Data.
func (m *MatrixObject) String() string {
	return fmt.Sprintf("Matrix%s", m.DataCharacteristics())
}

// FrameObject wraps a frame block.
type FrameObject struct {
	Frame *frame.FrameBlock
}

// NewFrameObject wraps a frame block.
func NewFrameObject(f *frame.FrameBlock) *FrameObject { return &FrameObject{Frame: f} }

// DataType returns types.Frame.
func (f *FrameObject) DataType() types.DataType { return types.Frame }

// String implements Data.
func (f *FrameObject) String() string { return f.Frame.String() }

// ListObject is an ordered, optionally named collection of runtime values
// (the DML list type used to pass around models and hyper-parameters).
type ListObject struct {
	Values []Data
	Names  []string
}

// NewListObject creates a list.
func NewListObject(values []Data, names []string) *ListObject {
	return &ListObject{Values: values, Names: names}
}

// DataType returns types.List.
func (l *ListObject) DataType() types.DataType { return types.List }

// Retain makes the list's holder a holder of every element.
func (l *ListObject) Retain() {
	for _, v := range l.Values {
		Retain(v)
	}
}

// Release drops what Retain added.
func (l *ListObject) Release() {
	for _, v := range l.Values {
		Release(v)
	}
}

// String implements Data.
func (l *ListObject) String() string { return fmt.Sprintf("List[%d]", len(l.Values)) }

// Lookup returns the named element of the list.
func (l *ListObject) Lookup(name string) (Data, bool) {
	for i, n := range l.Names {
		if n == name && i < len(l.Values) {
			return l.Values[i], true
		}
	}
	return nil, false
}

// FederatedObject wraps a federated matrix so it can live in the symbol table
// like any other data object; federated instructions dispatch on it.
type FederatedObject struct {
	Fed *fed.FederatedMatrix
}

// NewFederatedObject wraps a federated matrix.
func NewFederatedObject(fm *fed.FederatedMatrix) *FederatedObject { return &FederatedObject{Fed: fm} }

// DataType returns types.Matrix (a federated matrix is a matrix to the
// compiler; only the runtime placement differs).
func (f *FederatedObject) DataType() types.DataType { return types.Matrix }

// DataCharacteristics returns the federated matrix metadata.
func (f *FederatedObject) DataCharacteristics() types.DataCharacteristics {
	return f.Fed.DataCharacteristics()
}

// LocalFor implements MatrixData: there is no local block to hand out.
func (f *FederatedObject) LocalFor(*Context, string) (*matrix.MatrixBlock, error) {
	return nil, ErrFederated
}

// String implements Data.
func (f *FederatedObject) String() string {
	return fmt.Sprintf("FederatedMatrix[%dx%d, %d ranges]", f.Fed.Rows, f.Fed.Cols, len(f.Fed.Ranges))
}

// SizeOf estimates the in-memory size of a runtime value in bytes (used by
// the reuse cache accounting).
func SizeOf(d Data) int64 {
	switch v := d.(type) {
	case *Scalar:
		return 64
	case *MatrixObject:
		return types.EstimateSize(v.DataCharacteristics())
	case *BlockedMatrixObject:
		return types.EstimateSize(v.DataCharacteristics())
	case *CompressedMatrixObject:
		return v.MemorySize()
	case *Transposed:
		return 64
	case *FrameObject:
		return int64(v.Frame.NumRows()*v.Frame.NumCols()) * 16
	case *ListObject:
		var s int64
		for _, e := range v.Values {
			s += SizeOf(e)
		}
		return s
	default:
		return 1024
	}
}
