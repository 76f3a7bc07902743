// Package systemds is the public API of SystemDS-Go, a declarative machine
// learning system for the end-to-end data science lifecycle (a Go
// reproduction of "SystemDS: A Declarative Machine Learning System for the
// End-to-End Data Science Lifecycle", CIDR 2020).
//
// A Context compiles and executes DML scripts — an R-like language for linear
// algebra, statistics and control flow — against in-memory matrices, frames
// and federated data. The engine performs HOP-level rewrites, size
// propagation, operator selection between local and blocked-distributed
// backends, lineage tracing, and lineage-based reuse of intermediates across
// lifecycle tasks.
//
// Quickstart:
//
//	ctx := systemds.NewContext()
//	X := systemds.RandMatrix(1000, 10, 1.0, 7)
//	res, err := ctx.Execute(`
//	    B = lm(X, y)
//	    yhat = lmPredict(X, B)
//	    err = mse(yhat, y)
//	`, map[string]any{"X": X, "y": y}, "B", "err")
package systemds

import (
	"fmt"
	"io"
	"os"

	"github.com/systemds/systemds-go/internal/bufferpool"
	"github.com/systemds/systemds-go/internal/core"
	"github.com/systemds/systemds-go/internal/fed"
	"github.com/systemds/systemds-go/internal/frame"
	sdsio "github.com/systemds/systemds-go/internal/io"
	"github.com/systemds/systemds-go/internal/lineage"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/obs"
	"github.com/systemds/systemds-go/internal/runtime"
)

// Matrix is a dense or sparse FP64 matrix (the primary data type of DML
// scripts).
type Matrix = matrix.MatrixBlock

// Frame is a 2D table with a per-column schema, used for raw heterogeneous
// data before feature transformation.
type Frame = frame.FrameBlock

// FederatedMatrix references data partitions living on federated workers.
type FederatedMatrix = fed.FederatedMatrix

// FederatedRange maps an index range of a federated matrix to a worker
// address and worker-local variable.
type FederatedRange = fed.Range

// CacheStats reports reuse-cache effectiveness (hits, misses, puts,
// evictions, persistent-store traffic). PartialHits is always 0: partial
// reuse was removed.
type CacheStats = lineage.CacheStats

// LineageStoreStats reports persistent lineage-store activity (files, bytes,
// hits, evictions, corrupt files dropped).
type LineageStoreStats = bufferpool.FileStoreStats

// TraceSpan is one recorded span of a traced run: a hierarchical interval
// (run, basic block, instruction, or kernel sub-phase) with parent linkage,
// monotonic start/duration in nanoseconds, and bytes moved where meaningful.
type TraceSpan = obs.Record

// OpMetric is one row of the per-opcode heavy-hitter table aggregated from a
// traced run: execution count, cumulative wall and self time, bytes produced.
type OpMetric = obs.OpMetric

// ExecStats is the per-run execution statistics bundle: reuse cache, buffer
// pool, distributed backend, fused operators, compression, per-instruction
// plan records, lineage store, and (when tracing is on) per-opcode metrics.
type ExecStats = core.Stats

// FormatHeavyHitters renders trace spans as a SystemDS-style top-k
// heavy-hitter table (by self time) with a run wall-time footer.
var FormatHeavyHitters = obs.FormatHeavyHitters

// Option configures a Context.
type Option func(*runtime.Config)

// WithParallelism sets the number of threads used by kernels and parfor.
func WithParallelism(n int) Option {
	return func(c *runtime.Config) { c.Parallelism = n }
}

// WithLineage enables or disables lineage tracing.
func WithLineage(enabled bool) Option {
	return func(c *runtime.Config) { c.LineageEnabled = enabled }
}

// WithReuse toggles lineage-based reuse of intermediates; enabling it also
// enables lineage tracing. The cache budget is set with WithCacheBudget.
func WithReuse(enabled bool) Option {
	return func(c *runtime.Config) {
		c.ReuseEnabled = enabled
		if enabled {
			c.LineageEnabled = true
		}
	}
}

// WithCacheBudget sets the reuse-cache budget in bytes.
func WithCacheBudget(bytes int64) Option {
	return func(c *runtime.Config) { c.CacheBudget = bytes }
}

// WithBufferPool sets the buffer-pool budget in bytes; intermediates beyond
// the budget are evicted to temporary files.
func WithBufferPool(bytes int64) Option {
	return func(c *runtime.Config) { c.BufferPoolBudget = bytes }
}

// WithDistributedBackend allows the compiler to select the blocked
// distributed backend for operations whose memory estimate exceeds the
// operator budget.
func WithDistributedBackend(enabled bool) Option {
	return func(c *runtime.Config) { c.DistEnabled = enabled }
}

// WithOperatorMemBudget sets the per-operator memory budget in bytes used for
// CP-vs-distributed operator selection.
func WithOperatorMemBudget(bytes int64) Option {
	return func(c *runtime.Config) { c.OperatorMemBudget = bytes }
}

// WithDistBlocksize sets the block side length of the blocked distributed
// backend (default 1024). The planner's grid-based matmult strategy costs
// are derived from it.
func WithDistBlocksize(n int) Option {
	return func(c *runtime.Config) { c.DistBlocksize = n }
}

// WithFusion toggles the HOP-level operator fusion pass (fused mmchain,
// transpose-free t(X) %*% Y, cellwise-aggregate pipelines and fused cellwise
// chains). Fusion is enabled by default; disabling it is mainly useful for
// fused-vs-unfused comparisons.
func WithFusion(enabled bool) Option {
	return func(c *runtime.Config) { c.FusionDisabled = !enabled }
}

// WithCompression toggles compressed linear algebra: before loops that
// re-read large operands, the compiler plants cost-gated compression sites;
// the runtime's sample-based planner picks per-column encodings (dense
// dictionary coding, run-length encoding, or an uncompressed fallback) or
// rejects compression when the estimated ratio is too small, and supported
// operators (matrix-vector and vector-matrix products, scalar and cellwise
// unary operations, sums and extrema) execute directly on the compressed
// representation. Unsupported operators decompress transparently (counted in
// the execution statistics). Compression is disabled by default.
func WithCompression(enabled bool) Option {
	return func(c *runtime.Config) { c.CompressionEnabled = enabled }
}

// WithTempDir sets the spill directory for the buffer pool.
func WithTempDir(dir string) Option {
	return func(c *runtime.Config) { c.TempDir = dir }
}

// WithPersistentLineage enables cross-run lineage reuse rooted at dir:
// reuse-cache entries are written through to spill files there, and later
// sessions (including separate processes) pointed at the same directory
// reload them instead of recomputing. Implies lineage tracing and reuse.
func WithPersistentLineage(dir string) Option {
	return func(c *runtime.Config) {
		c.PersistentLineageDir = dir
		if dir != "" {
			c.LineageEnabled = true
			c.ReuseEnabled = true
		}
	}
}

// WithPersistentLineageBudget sets the payload byte budget of the persistent
// lineage store (default 4 GB); the lowest-benefit entries (compute time
// saved per byte retained) are evicted first.
func WithPersistentLineageBudget(bytes int64) Option {
	return func(c *runtime.Config) { c.PersistentLineageBudget = bytes }
}

// WithTracing enables the hierarchical span tracer for runs on this context:
// each Execute records nested spans (run, basic block, instruction, kernel
// sub-phases like distributed partition tasks, buffer-pool spill/restore,
// compression encode/decompress, lineage-store access, and federated RPCs,
// with worker-side spans stitched under their RPC). Inspect results with
// Trace, WriteTrace, LastRunStats, and ExplainPlanAnnotated. Tracing off (the
// default) costs one atomic flag check per potential span, with no
// allocations.
func WithTracing(enabled bool) Option {
	return func(c *runtime.Config) { c.TraceEnabled = enabled }
}

// Context is a SystemDS-Go session: it owns the compiler configuration, the
// builtin registry and the session-wide reuse cache.
type Context struct {
	engine *core.Engine
}

// NewContext creates a session with the given options.
func NewContext(opts ...Option) *Context {
	cfg := runtime.DefaultConfig()
	for _, opt := range opts {
		opt(cfg)
	}
	return &Context{engine: core.NewEngine(cfg)}
}

// SetOutput redirects the output of DML print() statements (default: stdout).
func (c *Context) SetOutput(w io.Writer) { c.engine.SetOutput(w) }

// RegisterBuiltin registers an additional DML-bodied builtin function under
// the given name (Section 2.2's registration mechanism).
func (c *Context) RegisterBuiltin(name, dmlSource string) {
	c.engine.Registry().Register(name, dmlSource)
}

// Builtins returns the names of all registered DML-bodied builtins.
func (c *Context) Builtins() []string { return c.engine.Registry().Names() }

// CacheStats returns the session reuse-cache statistics.
func (c *Context) CacheStats() CacheStats { return c.engine.CacheStats() }

// LineageStoreStats returns the persistent lineage-store statistics (the zero
// value when WithPersistentLineage is not configured).
func (c *Context) LineageStoreStats() LineageStoreStats { return c.engine.LineageStoreStats() }

// ClearCache drops all reuse-cache entries.
func (c *Context) ClearCache() { c.engine.ClearCache() }

// Execute compiles and runs a DML script with the given named inputs and
// returns the requested outputs. Supported input types: *Matrix, *Frame,
// *FederatedMatrix, float64, int, bool and string.
func (c *Context) Execute(script string, inputs map[string]any, outputs ...string) (Results, error) {
	res, _, err := c.engine.Execute(script, inputs, outputs)
	if err != nil {
		return nil, err
	}
	return Results(res), nil
}

// ExplainPlan compiles a DML script against the given inputs and returns the
// physical plan chosen by the cost-based planner: per operator the
// dimensions, memory estimate, CP/DIST placement, the matmult strategy
// (broadcast-left/right, grid join, shuffle) and the modeled compute and
// shuffle costs. Blocks whose sizes are unknown at compile time show their
// conservative initial plan; dynamic recompilation re-plans them at runtime.
func (c *Context) ExplainPlan(script string, inputs map[string]any) (string, error) {
	return c.engine.ExplainPlan(script, inputs)
}

// ExplainPlanAnnotated renders the plan like ExplainPlan and, when the
// context's last Execute ran with tracing enabled (WithTracing), joins the
// measured per-opcode metrics onto the operator lines: execution count, wall
// and self time, bytes produced.
func (c *Context) ExplainPlanAnnotated(script string, inputs map[string]any) (string, error) {
	return c.engine.ExplainPlanAnnotated(script, inputs)
}

// Trace returns the span records of the last traced Execute (nil without
// WithTracing): merged across workers, sorted by start time, with kernel
// sub-phase spans parented under their instruction spans.
func (c *Context) Trace() []TraceSpan { return c.engine.TraceRecords() }

// WriteTrace writes the last traced Execute as Chrome trace-event JSON,
// loadable in Perfetto (https://ui.perfetto.dev) or chrome://tracing.
func (c *Context) WriteTrace(w io.Writer) error { return c.engine.WriteTrace(w) }

// LastRunStats returns the execution statistics of the most recent Execute on
// this context, or nil before the first run. With tracing enabled the bundle
// includes the per-opcode heavy-hitter metrics.
func (c *Context) LastRunStats() *ExecStats { return c.engine.LastRunStats() }

// ExecuteFile reads a DML script from a file and executes it.
func (c *Context) ExecuteFile(path string, inputs map[string]any, outputs ...string) (Results, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("systemds: read script %s: %w", path, err)
	}
	return c.Execute(string(src), inputs, outputs...)
}

// Prepare pre-compiles a script for repeated low-latency execution with
// different inputs (the JMLC-style embedded scoring API).
func (c *Context) Prepare(script string, outputs ...string) (*PreparedScript, error) {
	p, err := c.engine.Prepare(script, outputs)
	if err != nil {
		return nil, err
	}
	return &PreparedScript{prepared: p}, nil
}

// PreparedScript is a pre-compiled script.
type PreparedScript struct {
	prepared *core.Prepared
}

// Execute runs the prepared script with the given inputs.
func (p *PreparedScript) Execute(inputs map[string]any) (Results, error) {
	res, err := p.prepared.Execute(inputs)
	if err != nil {
		return nil, err
	}
	return Results(res), nil
}

// Results holds named script outputs.
type Results map[string]any

// Matrix returns a matrix output.
func (r Results) Matrix(name string) (*Matrix, error) {
	v, ok := r[name]
	if !ok {
		return nil, fmt.Errorf("systemds: no output %q", name)
	}
	m, ok := v.(*Matrix)
	if !ok {
		return nil, fmt.Errorf("systemds: output %q is %T, not a matrix", name, v)
	}
	return m, nil
}

// Float returns a numeric scalar output.
func (r Results) Float(name string) (float64, error) {
	v, ok := r[name]
	if !ok {
		return 0, fmt.Errorf("systemds: no output %q", name)
	}
	switch x := v.(type) {
	case float64:
		return x, nil
	case bool:
		if x {
			return 1, nil
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("systemds: output %q is %T, not a scalar", name, v)
	}
}

// Bool returns a boolean scalar output.
func (r Results) Bool(name string) (bool, error) {
	v, ok := r[name]
	if !ok {
		return false, fmt.Errorf("systemds: no output %q", name)
	}
	switch x := v.(type) {
	case bool:
		return x, nil
	case float64:
		return x != 0, nil
	default:
		return false, fmt.Errorf("systemds: output %q is %T, not a boolean", name, v)
	}
}

// String returns a string scalar output.
func (r Results) String(name string) (string, error) {
	v, ok := r[name]
	if !ok {
		return "", fmt.Errorf("systemds: no output %q", name)
	}
	s, ok := v.(string)
	if !ok {
		return "", fmt.Errorf("systemds: output %q is %T, not a string", name, v)
	}
	return s, nil
}

// --- Matrix and frame construction helpers ---

// NewMatrix creates a dense rows x cols matrix from row-major data (data may
// be nil for an all-zero matrix).
func NewMatrix(rows, cols int, data []float64) *Matrix {
	if data == nil {
		return matrix.NewDense(rows, cols)
	}
	return matrix.NewDenseFromSlice(rows, cols, data)
}

// MatrixFromRows creates a matrix from a slice of rows.
func MatrixFromRows(rows [][]float64) *Matrix { return matrix.FromRows(rows) }

// RandMatrix creates a uniformly random matrix with the given sparsity and
// seed.
func RandMatrix(rows, cols int, sparsity float64, seed int64) *Matrix {
	return matrix.RandUniform(rows, cols, 0, 1, sparsity, seed)
}

// SyntheticRegression generates a synthetic regression dataset (features X
// and response y = X*w + noise) with the given sparsity.
func SyntheticRegression(rows, cols int, sparsity float64, seed int64) (x, y *Matrix) {
	return matrix.SyntheticRegression(rows, cols, sparsity, seed)
}

// SyntheticClassification generates a synthetic binary classification dataset
// with labels in {0, 1}.
func SyntheticClassification(rows, cols int, sparsity float64, seed int64) (x, y *Matrix) {
	return matrix.SyntheticClassification(rows, cols, sparsity, seed)
}

// ReadMatrixCSV reads a numeric CSV file into a matrix using the
// multi-threaded reader.
func ReadMatrixCSV(path string) (*Matrix, error) {
	return sdsio.ReadMatrixCSV(path, sdsio.DefaultCSVOptions())
}

// WriteMatrixCSV writes a matrix to a CSV file.
func WriteMatrixCSV(path string, m *Matrix) error {
	return sdsio.WriteMatrixCSV(path, m, sdsio.DefaultCSVOptions())
}

// ReadFrameCSV reads a CSV file into a frame with schema inference; header
// selects whether the first line holds column names.
func ReadFrameCSV(path string, header bool) (*Frame, error) {
	opts := sdsio.DefaultCSVOptions()
	opts.Header = header
	return sdsio.ReadFrameCSV(path, nil, opts)
}

// --- Federated ML helpers (Section 3.3) ---

// FederatedWorker is an in-process federated worker (sites normally run the
// standalone fedworker binary).
type FederatedWorker struct {
	worker *fed.Worker
	Addr   string
}

// StartFederatedWorker starts a federated worker listening on addr (use
// "127.0.0.1:0" for an ephemeral port) and optionally preloads data under the
// given variable names.
func StartFederatedWorker(addr string, data map[string]*Matrix) (*FederatedWorker, error) {
	w := fed.NewWorker(nil)
	for name, m := range data {
		w.PutLocal(name, m)
	}
	bound, err := w.Serve(addr)
	if err != nil {
		return nil, err
	}
	return &FederatedWorker{worker: w, Addr: bound}, nil
}

// Shutdown stops the worker.
func (w *FederatedWorker) Shutdown() { w.worker.Shutdown() }

// Federated creates a federated matrix of the given total size from per-site
// ranges. The federated matrix can be bound as a script input like any other
// matrix; federated instructions push computation to the sites.
func Federated(rows, cols int64, ranges []FederatedRange) (*FederatedMatrix, error) {
	return fed.NewFederatedMatrix(rows, cols, ranges)
}
