package runtime

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"github.com/systemds/systemds-go/internal/bufferpool"
	"github.com/systemds/systemds-go/internal/compress"
	"github.com/systemds/systemds-go/internal/dist"
	"github.com/systemds/systemds-go/internal/lineage"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/types"
)

// Config collects the runtime and compiler configuration of one SystemDS-Go
// session.
type Config struct {
	// Parallelism is the number of threads used by multi-threaded kernels and
	// parfor workers (0 = number of CPUs).
	Parallelism int
	// OperatorMemBudget is the per-operator memory budget in bytes used for
	// CP-vs-distributed execution-type selection.
	OperatorMemBudget int64
	// BufferPoolBudget is the in-memory budget of the buffer pool in bytes
	// (0 disables eviction).
	BufferPoolBudget int64
	// LineageEnabled turns on lineage tracing.
	LineageEnabled bool
	// ReuseEnabled turns on lineage-based reuse of intermediates (requires
	// lineage tracing).
	ReuseEnabled bool
	// CacheBudget is the reuse-cache budget in bytes.
	CacheBudget int64
	// DistEnabled allows the compiler to select the blocked distributed
	// backend for large operations.
	DistEnabled bool
	// FusionDisabled turns off the HOP-level operator fusion pass (row chains,
	// cellwise-aggregate pipelines and fused cellwise chains; t(X) %*% Y still
	// runs transpose-free). Fusion is on by default.
	FusionDisabled bool
	// CompressionEnabled turns on compressed linear algebra: the compiler
	// plants compression decision sites before loops that re-read large
	// operands, the runtime's sample-based planner picks per-column encodings
	// (or rejects), and supported operators execute directly on the
	// compressed representation.
	CompressionEnabled bool
	// DistBlocksize is the block size of the distributed backend.
	DistBlocksize int
	// TempDir is the spill directory of the buffer pool.
	TempDir string
	// PersistentLineageDir, when non-empty, roots the cross-run persistent
	// lineage store: reuse-cache entries are written through to spill files
	// there and later processes reload them instead of recomputing. Implies
	// lineage tracing and reuse.
	PersistentLineageDir string
	// PersistentLineageBudget is the payload byte budget of the persistent
	// lineage store (0 = default).
	PersistentLineageBudget int64
	// TraceEnabled turns on the hierarchical span tracer (internal/obs) for
	// engine runs: instruction and kernel sub-phase spans are recorded and
	// surfaced as per-opcode heavy-hitter metrics, Chrome-trace export and
	// annotated EXPLAIN. Off by default; the disabled emit path is a single
	// atomic flag check with zero allocations.
	TraceEnabled bool
}

// DefaultConfig returns a local-execution configuration with lineage tracing
// enabled and reuse disabled.
func DefaultConfig() *Config {
	return &Config{
		Parallelism:       0,
		OperatorMemBudget: 2 << 30, // 2 GB
		BufferPoolBudget:  0,
		LineageEnabled:    true,
		ReuseEnabled:      false,
		CacheBudget:       1 << 30,
		DistEnabled:       false,
		DistBlocksize:     types.DefaultBlocksize,
		TempDir:           os.TempDir(),
	}
}

// Threads resolves the configured parallelism.
func (c *Config) Threads() int {
	if c.Parallelism <= 0 {
		return matrix.DefaultParallelism()
	}
	return c.Parallelism
}

// Context is the execution context of a control program: the symbol table of
// live variables, configuration, lineage tracer, reuse cache, buffer pool and
// the program being executed (for function call resolution).
type Context struct {
	Config  *Config
	Lineage *lineage.Tracer
	Cache   *lineage.Cache
	Pool    *bufferpool.Pool
	Prog    *Program
	Out     io.Writer
	// Recycler is the engine's free list of dense arrays (matrix.Recycler),
	// shared by child contexts; nil allocates every output afresh.
	Recycler *matrix.Recycler

	mu   sync.RWMutex
	vars map[string]Data

	// stats is the run's statistics, shared across child contexts.
	stats *runStats
	// log is a parfor worker's record for the result merge; nil outside one.
	log *iterLog
}

// NewContext creates a root execution context.
func NewContext(cfg *Config) *Context {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	ctx := &Context{
		Config:  cfg,
		Lineage: lineage.NewTracer(),
		Pool:    bufferpool.New(cfg.BufferPoolBudget, cfg.TempDir),
		Out:     os.Stdout,
		vars:    map[string]Data{},
		stats:   &runStats{},
	}
	if cfg.ReuseEnabled || cfg.PersistentLineageDir != "" {
		ctx.Cache = lineage.NewCache(cfg.CacheBudget)
	} else {
		ctx.Cache = lineage.NewCache(0)
	}
	return ctx
}

// ChildEmpty creates a child context with an empty symbol table (function
// scopes); configuration, cache, pool, program, output and run statistics are
// shared. The scope ends with ReleaseVars.
func (ctx *Context) ChildEmpty() *Context {
	return &Context{
		Config:   ctx.Config,
		Lineage:  lineage.NewTracer(),
		Cache:    ctx.Cache,
		Pool:     ctx.Pool,
		Prog:     ctx.Prog,
		Out:      ctx.Out,
		Recycler: ctx.Recycler,
		vars:     map[string]Data{},
		stats:    ctx.stats,
	}
}

// ChildCopy creates a child context with a copied symbol table (parfor
// workers) that counts into the parent's run statistics; values are shared,
// and the child holds every value it copied until its ReleaseVars, so none
// of them is written in place meanwhile.
func (ctx *Context) ChildCopy() *Context {
	ctx.mu.RLock()
	vars := make(map[string]Data, len(ctx.vars))
	for k, v := range ctx.vars {
		vars[k] = v
		Retain(v)
	}
	ctx.mu.RUnlock()
	return &Context{
		Config:   ctx.Config,
		Lineage:  ctx.Lineage.Copy(),
		Cache:    ctx.Cache,
		Pool:     ctx.Pool,
		Prog:     ctx.Prog,
		Out:      ctx.Out,
		Recycler: ctx.Recycler,
		vars:     vars,
		stats:    ctx.stats,
	}
}

// Set binds a variable to a value. The binding holds the value (see poolRef);
// a value it replaces loses that holder, and with its last one its place in
// the buffer pool. In a parfor worker it also logs the binding of a result
// variable for the merge.
func (ctx *Context) Set(name string, d Data) {
	if l := ctx.log; l != nil {
		if _, ok := l.bound[name]; ok {
			l.bound[name] = l.iter
		}
	}
	Retain(d)
	ctx.mu.Lock()
	old := ctx.vars[name]
	ctx.vars[name] = d
	ctx.mu.Unlock()
	Release(old)
}

// Get returns the value of a variable.
func (ctx *Context) Get(name string) (Data, error) {
	ctx.mu.RLock()
	d, ok := ctx.vars[name]
	ctx.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("runtime: variable %q is not defined", name)
	}
	return d, nil
}

// Has reports whether a variable is bound.
func (ctx *Context) Has(name string) bool {
	ctx.mu.RLock()
	_, ok := ctx.vars[name]
	ctx.mu.RUnlock()
	return ok
}

// Remove unbinds a variable.
func (ctx *Context) Remove(name string) {
	ctx.mu.Lock()
	d := ctx.vars[name]
	delete(ctx.vars, name)
	ctx.mu.Unlock()
	Release(d)
}

// ReleaseVars unbinds every variable: the end of a function scope, a parfor
// worker or the run.
func (ctx *Context) ReleaseVars() {
	ctx.mu.Lock()
	defer ctx.mu.Unlock()
	for _, d := range ctx.vars {
		Release(d)
	}
	clear(ctx.vars)
}

// ReleasePool ends a run's claim on its buffer pool: the symbol table is
// dropped, and every entry nobody holds any more is unregistered — values
// that were created but never bound, above all — so no spill file outlives
// the run except those of values the reuse cache holds, which a later hit
// restores from.
func (ctx *Context) ReleasePool() {
	ctx.ReleaseVars()
	ctx.Pool.ReleaseExcept(func(e bufferpool.Entry) bool {
		h, ok := e.(interface{ Held() bool })
		return ok && h.Held()
	})
}

// Variables returns the names of all bound variables in sorted order, so
// callers that print or walk the symbol table behave identically across runs.
func (ctx *Context) Variables() []string {
	ctx.mu.RLock()
	defer ctx.mu.RUnlock()
	names := make([]string, 0, len(ctx.vars))
	for k := range ctx.vars {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// LineageOf returns a variable's lineage item. A bound scalar is traced by
// its typed value (ScalarItem), however it was computed; anything else by the
// item its producer traced.
func (ctx *Context) LineageOf(name string) *lineage.Item {
	ctx.mu.RLock()
	s, isScalar := ctx.vars[name].(*Scalar)
	ctx.mu.RUnlock()
	if isScalar {
		return ScalarItem(s)
	}
	return ctx.Lineage.Get(name)
}

// GetScalar returns a variable as a scalar.
func (ctx *Context) GetScalar(name string) (*Scalar, error) {
	d, err := ctx.Get(name)
	if err != nil {
		return nil, err
	}
	s, ok := d.(*Scalar)
	if !ok {
		return nil, fmt.Errorf("runtime: variable %q is a %s, expected a scalar", name, d.DataType())
	}
	return s, nil
}

// GetMatrixObject returns a variable as a (local) matrix object.
func (ctx *Context) GetMatrixObject(name string) (*MatrixObject, error) {
	d, err := ctx.Get(name)
	if err != nil {
		return nil, err
	}
	mo, ok := d.(*MatrixObject)
	if !ok {
		return nil, fmt.Errorf("runtime: variable %q is a %s, expected a matrix", name, d.DataType())
	}
	return mo, nil
}

// GetMatrixBlock returns a variable's matrix block, acquiring it through the
// buffer pool. Scalars are auto-promoted to 1x1 matrices, mirroring DML's
// implicit casting in matrix contexts.
func (ctx *Context) GetMatrixBlock(name string) (*matrix.MatrixBlock, error) {
	return ctx.GetMatrixBlockFor(name, "other")
}

// GetMatrixBlockFor is GetMatrixBlock with the consuming opcode recorded when
// the read forces a fallback decompression of a compressed variable.
func (ctx *Context) GetMatrixBlockFor(name, op string) (*matrix.MatrixBlock, error) {
	d, err := ctx.Get(name)
	if err != nil {
		return nil, err
	}
	return LocalBlockOf(ctx, name, d, op)
}

// GetFrame returns a variable as a frame.
func (ctx *Context) GetFrame(name string) (*FrameObject, error) {
	d, err := ctx.Get(name)
	if err != nil {
		return nil, err
	}
	f, ok := d.(*FrameObject)
	if !ok {
		return nil, fmt.Errorf("runtime: variable %q is a %s, expected a frame", name, d.DataType())
	}
	return f, nil
}

// SetMatrix wraps a block into a matrix object and binds it.
func (ctx *Context) SetMatrix(name string, block *matrix.MatrixBlock) {
	ctx.Set(name, NewMatrixObject(block, ctx.Pool))
}

// SetBlocked wraps a blocked matrix into a first-class blocked object and
// binds it; downstream blocked operators consume it without re-partitioning.
func (ctx *Context) SetBlocked(name string, bm *dist.BlockedMatrix) {
	ctx.Set(name, NewBlockedMatrixObject(bm, ctx.Pool))
}

// SetCompressed wraps a compressed matrix into a first-class compressed
// object and binds it; downstream compressed kernels consume it directly.
func (ctx *Context) SetCompressed(name string, cm *compress.CompressedMatrix) {
	ctx.Set(name, NewCompressedMatrixObject(cm, ctx.Pool))
}

// CleanupTemporaries removes temporary variables created by DAG lowering
// (names with the compiler's temporary prefix). Victims are removed in
// sorted order so buffer-pool unregistration and any cleanup-driven stats
// are identical across runs.
func (ctx *Context) CleanupTemporaries(prefix string) {
	ctx.mu.Lock()
	var victims []string
	for k := range ctx.vars {
		if len(k) >= len(prefix) && k[:len(prefix)] == prefix {
			victims = append(victims, k)
		}
	}
	ctx.mu.Unlock()
	sort.Strings(victims)
	for _, v := range victims {
		ctx.Remove(v)
	}
}
