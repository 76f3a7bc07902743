// Package obs is the runtime observability layer of SystemDS-Go: a
// low-overhead hierarchical span tracer plus a per-opcode metrics aggregator.
// Spans nest run → basic-block → instruction → kernel sub-phases (dist
// partition tasks, bufferpool spill/restore, compression encode/decompress,
// lineage-store get/put, federated RPCs). Completed spans are appended to
// per-worker buffers drawn from a sync.Pool — the hot path never contends on
// a shared lock — and merged into one sorted record list at flush time.
//
// The overhead contract: when tracing is disabled, Begin is a single atomic
// load returning the zero Span, and End on the zero Span is a nil check —
// zero allocations on the emit path (gated by testing.AllocsPerRun in
// obs_test.go). Deep layers (bufferpool, dist, compress) call the package
// level Begin/End on the process-global tracer directly, so no tracer handle
// needs to be plumbed through their APIs; the engine enables the global
// tracer per traced run (tracing is therefore process-wide, not per-session).
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span categories. Aggregation and the trace viewers group by these.
const (
	// CatRun is the root span of one engine run.
	CatRun = "run"
	// CatBlock is one basic-block (instruction DAG) execution.
	CatBlock = "block"
	// CatInstr is one instruction execution; the span name is the opcode.
	CatInstr = "instr"
	// CatDist covers blocked-backend sub-phases: partition, collect, and the
	// per-block tasks of the dist worker pool (named by operator).
	CatDist = "dist"
	// CatPool covers buffer-pool spill and restore I/O.
	CatPool = "pool"
	// CatCompress covers compression encode and transparent decompress.
	CatCompress = "compress"
	// CatLineage covers persistent lineage-store get/put I/O.
	CatLineage = "lineage"
	// CatRPC is a master-side federated RPC (one request/response exchange).
	CatRPC = "rpc"
	// CatFed is a federated-worker-side span, grafted into the master trace
	// under its issuing RPC span.
	CatFed = "fed"
)

// Record is one completed span. All fields are plain exported values so
// records travel over the federated gob wire protocol unchanged.
type Record struct {
	// ID is unique within one tracer; Parent is the enclosing span's ID, or 0
	// for spans re-parented later by time containment (see Resolve).
	ID     uint64
	Parent uint64
	Cat    string
	Name   string
	// Start is in nanoseconds since the tracer's epoch; Dur is the span's
	// wall-clock duration in nanoseconds.
	Start int64
	Dur   int64
	// Bytes is the number of payload bytes the spanned operation moved
	// (spilled, restored, shipped, encoded), 0 when not applicable.
	Bytes int64
}

// End returns the end time of the record (Start + Dur).
func (r Record) End() int64 { return r.Start + r.Dur }

// DefaultLimit bounds the number of records one tracer retains; emissions
// past the limit are counted in Dropped instead of growing memory without
// bound on pathological runs.
const DefaultLimit = 1 << 20

// Tracer records spans into per-worker append-only buffers. The zero value
// is not usable; use New.
type Tracer struct {
	enabled atomic.Bool
	nextID  atomic.Uint64
	count   atomic.Int64
	dropped atomic.Int64
	limit   int64
	epoch   time.Time

	// bufPool hands each emitting goroutine a private buffer for the duration
	// of one append (per-P caches make Get/Put contention-free in practice);
	// every buffer ever created is also registered under regMu so Snapshot
	// can merge them all even after the pool dropped its reference.
	bufPool sync.Pool
	regMu   sync.Mutex
	bufs    []*spanBuf
}

type spanBuf struct {
	mu   sync.Mutex
	recs []Record
}

// New creates a disabled tracer with the default record limit.
func New() *Tracer {
	t := &Tracer{limit: DefaultLimit, epoch: time.Now()}
	t.bufPool.New = func() any {
		b := &spanBuf{}
		t.regMu.Lock()
		t.bufs = append(t.bufs, b)
		t.regMu.Unlock()
		return b
	}
	return t
}

// SetEnabled switches span recording on or off.
func (t *Tracer) SetEnabled(v bool) { t.enabled.Store(v) }

// IsEnabled reports whether span recording is on.
func (t *Tracer) IsEnabled() bool { return t.enabled.Load() }

// now returns nanoseconds since the tracer epoch (monotonic).
func (t *Tracer) now() int64 { return int64(time.Since(t.epoch)) }

// Span is an in-flight span handle. The zero Span (returned by Begin when
// tracing is disabled) is valid to End and does nothing.
type Span struct {
	tr     *Tracer
	id     uint64
	parent uint64
	cat    string
	name   string
	start  int64
}

// Valid reports whether the span is actually recording.
func (s Span) Valid() bool { return s.tr != nil }

// SpanID returns the span's record ID (0 for the zero Span).
func (s Span) SpanID() uint64 { return s.id }

// Begin starts a span with no explicit parent; Resolve later re-parents it
// under the innermost span that contains it in time. This is the entry point
// for deep layers (bufferpool, dist, compress, lineage store) that have no
// parent handle in scope.
func (t *Tracer) Begin(cat, name string) Span {
	if !t.enabled.Load() {
		return Span{}
	}
	return Span{tr: t, id: t.nextID.Add(1), cat: cat, name: name, start: t.now()}
}

// BeginChild starts a span explicitly parented under parent. A zero parent
// degrades to Begin semantics (containment re-parenting).
func (t *Tracer) BeginChild(parent Span, cat, name string) Span {
	if !t.enabled.Load() {
		return Span{}
	}
	return Span{tr: t, id: t.nextID.Add(1), parent: parent.id, cat: cat, name: name, start: t.now()}
}

// End completes the span with no byte annotation.
func (s Span) End() { s.EndBytes(0) }

// EndBytes completes the span, annotating the payload bytes the operation
// moved. No-op on the zero Span.
func (s Span) EndBytes(bytes int64) {
	if s.tr == nil {
		return
	}
	t := s.tr
	t.emit(Record{ID: s.id, Parent: s.parent, Cat: s.cat, Name: s.name,
		Start: s.start, Dur: t.now() - s.start, Bytes: bytes})
}

// emit appends one record to a pooled per-worker buffer.
func (t *Tracer) emit(r Record) {
	if t.count.Load() >= t.limit {
		t.dropped.Add(1)
		return
	}
	t.count.Add(1)
	b := t.bufPool.Get().(*spanBuf)
	b.mu.Lock()
	b.recs = append(b.recs, r)
	b.mu.Unlock()
	t.bufPool.Put(b)
}

// Graft appends externally recorded spans (e.g. shipped back from a
// federated worker) under the given parent span: IDs are re-allocated in this
// tracer's space, intra-batch parent links are preserved, parentless spans
// attach to the parent span, and start times are shifted so the earliest
// grafted span aligns with the parent's start (the two processes have
// unrelated epochs and clocks; alignment at the RPC start is the documented
// stitching convention).
func (t *Tracer) Graft(recs []Record, under Span) {
	if under.tr != t || len(recs) == 0 || !t.enabled.Load() {
		return
	}
	minStart := recs[0].Start
	for _, r := range recs {
		if r.Start < minStart {
			minStart = r.Start
		}
	}
	shift := under.start - minStart
	idMap := make(map[uint64]uint64, len(recs))
	for _, r := range recs {
		idMap[r.ID] = t.nextID.Add(1)
	}
	for _, r := range recs {
		nr := r
		nr.ID = idMap[r.ID]
		if p, ok := idMap[r.Parent]; ok {
			nr.Parent = p
		} else {
			nr.Parent = under.id
		}
		nr.Start += shift
		t.emit(nr)
	}
}

// Snapshot merges all per-worker buffers into one list sorted by start time
// (ID breaks ties). Buffers are locked one at a time; emitters keep running.
func (t *Tracer) Snapshot() []Record {
	t.regMu.Lock()
	bufs := make([]*spanBuf, len(t.bufs))
	copy(bufs, t.bufs)
	t.regMu.Unlock()
	var out []Record
	for _, b := range bufs {
		b.mu.Lock()
		out = append(out, b.recs...)
		b.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Reset drops all recorded spans and clears the drop counter. The epoch is
// kept; record IDs keep growing (uniqueness across resets is harmless).
func (t *Tracer) Reset() {
	t.regMu.Lock()
	bufs := make([]*spanBuf, len(t.bufs))
	copy(bufs, t.bufs)
	t.regMu.Unlock()
	for _, b := range bufs {
		b.mu.Lock()
		b.recs = b.recs[:0]
		b.mu.Unlock()
	}
	t.count.Store(0)
	t.dropped.Store(0)
}

// Dropped returns how many spans were discarded after the record limit.
func (t *Tracer) Dropped() int64 { return t.dropped.Load() }

// global is the process-wide tracer the engine and all runtime layers share.
var global = New()

// Enable turns on recording on the global tracer.
func Enable() { global.SetEnabled(true) }

// Disable turns off recording on the global tracer.
func Disable() { global.SetEnabled(false) }

// Enabled reports whether the global tracer is recording.
func Enabled() bool { return global.IsEnabled() }

// Begin starts a containment-parented span on the global tracer.
func Begin(cat, name string) Span { return global.Begin(cat, name) }

// BeginChild starts an explicitly parented span on the global tracer.
func BeginChild(parent Span, cat, name string) Span { return global.BeginChild(parent, cat, name) }

// Graft appends externally recorded spans under parent on the global tracer.
func Graft(recs []Record, under Span) { global.Graft(recs, under) }

// Snapshot returns the merged, sorted records of the global tracer.
func Snapshot() []Record { return global.Snapshot() }

// Reset clears the global tracer's records.
func Reset() { global.Reset() }

// Dropped returns the global tracer's drop count.
func Dropped() int64 { return global.Dropped() }
