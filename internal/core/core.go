// Package core ties the SystemDS-Go components together into an engine: it
// compiles DML scripts against the builtin registry, binds in-memory inputs,
// executes the resulting runtime program in a control-program context, and
// returns the requested outputs together with execution statistics. It is the
// layer the public API (root package) and the command-line tools build on.
package core

import (
	"fmt"
	"io"
	"os"
	"sync"
	"sync/atomic"

	"github.com/systemds/systemds-go/internal/bufferpool"
	"github.com/systemds/systemds-go/internal/builtins"
	"github.com/systemds/systemds-go/internal/compiler"
	"github.com/systemds/systemds-go/internal/fed"
	"github.com/systemds/systemds-go/internal/frame"
	"github.com/systemds/systemds-go/internal/lineage"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/obs"
	"github.com/systemds/systemds-go/internal/runtime"
	"github.com/systemds/systemds-go/internal/types"
)

// Engine is a SystemDS-Go session: configuration, builtin registry and the
// session-wide reuse cache shared by all executions (so intermediates can be
// reused across scripts in exploratory workflows). With a persistent lineage
// directory configured, the cache additionally spans processes: entries are
// written through to spill files there.
type Engine struct {
	cfg      *runtime.Config
	registry *builtins.Registry
	cache    *lineage.Cache
	out      io.Writer
	store    *runtime.PersistentLineageStore
	// recycler is the session's free list of dense arrays: the fused
	// kernels of every run take their outputs from it, and the dead
	// intermediates of every run go back to it (matrix.Recycler).
	recycler *matrix.Recycler

	statsMu   sync.Mutex
	lastStats *Stats
}

// defaultPersistentBudget bounds the spill directory when the caller does not
// set one.
const defaultPersistentBudget = int64(4) << 30

// runNonce distinguishes lineage leaves of non-fingerprintable inputs across
// runs and processes, so they can never falsely match a cached or persisted
// entry.
var runNonce atomic.Int64

// Stats reports execution statistics of one script run: the run's own
// counters (RunStats, promoted: DistStats, FusedStats, CompressStats,
// PlanStats, PlanRecordsDropped) beside the counters of the components the
// engine shares across runs.
type Stats struct {
	runtime.RunStats
	// CacheStats are the engine's cumulative reuse-cache counters (the cache
	// is shared by every run on the engine), not this run's alone.
	CacheStats lineage.CacheStats
	PoolStats  bufferpool.Stats
	// LineageStore reports the engine's cumulative persistent lineage-store
	// counters since it opened the store, not this run's alone (zero value
	// when persistence is off).
	LineageStore bufferpool.FileStoreStats
	// OpMetrics is the per-opcode heavy-hitter table (count, wall ns, self ns,
	// bytes moved) aggregated from the run's trace spans, sorted by self time.
	// Nil when tracing is off (Config.TraceEnabled).
	OpMetrics []obs.OpMetric
	// TraceDropped counts spans discarded after the tracer's record cap.
	TraceDropped int64
}

// NewEngine creates an engine with the given configuration (nil uses the
// default configuration). A configured persistent lineage directory implies
// lineage tracing and reuse.
func NewEngine(cfg *runtime.Config) *Engine {
	if cfg == nil {
		cfg = runtime.DefaultConfig()
	}
	if cfg.PersistentLineageDir != "" {
		cfg.LineageEnabled = true
		cfg.ReuseEnabled = true
	}
	cacheBudget := int64(0)
	if cfg.ReuseEnabled {
		cacheBudget = cfg.CacheBudget
	}
	e := &Engine{
		cfg:      cfg,
		registry: builtins.NewRegistry(),
		cache:    lineage.NewCache(cacheBudget),
		out:      os.Stdout,
		recycler: matrix.NewRecycler(),
	}
	if dir := cfg.PersistentLineageDir; dir != "" {
		budget := cfg.PersistentLineageBudget
		if budget <= 0 {
			budget = defaultPersistentBudget
		}
		// the store is a cache: if the directory is unusable the session
		// simply runs without persistence rather than failing
		if store, err := runtime.OpenPersistentLineage(dir, budget); err == nil {
			e.store = store
			e.cache.SetStore(store)
		}
	}
	return e
}

// LineageStoreStats returns the persistent lineage-store statistics (zero
// value when persistence is off).
func (e *Engine) LineageStoreStats() bufferpool.FileStoreStats { return e.store.Stats() }

// Config returns the engine configuration.
func (e *Engine) Config() *runtime.Config { return e.cfg }

// Registry returns the builtin registry (for registering additional
// DML-bodied builtins).
func (e *Engine) Registry() *builtins.Registry { return e.registry }

// SetOutput redirects print() output.
func (e *Engine) SetOutput(w io.Writer) { e.out = w }

// ClearCache drops all entries of the session reuse cache.
func (e *Engine) ClearCache() { e.cache.Clear() }

// CacheStats returns the session reuse-cache statistics.
func (e *Engine) CacheStats() lineage.CacheStats { return e.cache.Stats() }

// Execute compiles and runs a DML script. Inputs are bound by name before
// execution; the named outputs are extracted from the final symbol table.
// Supported input types: *matrix.MatrixBlock, *frame.FrameBlock,
// *fed.FederatedMatrix, float64, int, int64, bool, string and runtime.Data.
func (e *Engine) Execute(script string, inputs map[string]any, outputs []string) (map[string]any, *Stats, error) {
	prog, err := e.Compile(script, inputs)
	if err != nil {
		return nil, nil, err
	}
	return e.Run(prog, inputs, outputs)
}

// knownCharacteristics extracts the data characteristics of matrix inputs so
// the compiler can propagate sizes from the start.
func knownCharacteristics(inputs map[string]any) map[string]types.DataCharacteristics {
	known := map[string]types.DataCharacteristics{}
	for name, v := range inputs {
		if m, ok := v.(*matrix.MatrixBlock); ok {
			known[name] = types.DataCharacteristics{
				Rows: int64(m.Rows()), Cols: int64(m.Cols()),
				Blocksize: types.DefaultBlocksize, NNZ: m.NNZ(),
			}
		}
	}
	return known
}

// Compile compiles a script with size information from the given inputs.
func (e *Engine) Compile(script string, inputs map[string]any) (*runtime.Program, error) {
	comp := compiler.New(e.cfg, e.registry)
	prog, err := comp.Compile(script, knownCharacteristics(inputs))
	if err != nil {
		return nil, err
	}
	return prog, nil
}

// Run executes a compiled program with the given inputs and returns the
// requested outputs. A failed run still records its statistics, up to the
// failure, for LastRunStats.
func (e *Engine) Run(prog *runtime.Program, inputs map[string]any, outputs []string) (map[string]any, *Stats, error) {
	ctx := runtime.NewContext(e.cfg)
	ctx.Cache = e.cache
	ctx.Out = e.out
	ctx.Prog = prog
	ctx.Recycler = e.recycler
	// whatever the run spills is released when it returns, success or error
	defer ctx.ReleasePool()
	for name, v := range inputs {
		d, err := toRuntimeData(v, ctx)
		if err != nil {
			e.recordStats(ctx, false)
			return nil, nil, fmt.Errorf("core: input %q: %w", name, err)
		}
		runtime.Share(d) // the caller keeps its inputs: never written, never recycled
		ctx.Set(name, d)
		ctx.Lineage.Set(name, e.inputLeaf(name, d))
	}
	if e.cfg.TraceEnabled {
		// Per-run trace: earlier spans are dropped so the exported trace and
		// the heavy-hitter table describe exactly this run. The tracer is
		// process-global, so concurrent traced runs share one span stream.
		obs.Reset()
		obs.Enable()
	}
	runSp := obs.Begin(obs.CatRun, "run")
	err := prog.Execute(ctx)
	runSp.End()
	if e.cfg.TraceEnabled {
		// stop emission but keep the records: TraceRecords/WriteTrace read
		// them until the next traced run resets the stream, and output
		// extraction below won't smear extra spans past the run span
		obs.Disable()
	}
	var results map[string]any
	if err == nil {
		results, err = outputsOf(ctx, outputs)
	}
	stats := e.recordStats(ctx, e.cfg.TraceEnabled)
	if err != nil {
		return nil, nil, err
	}
	return results, stats, nil
}

// outputsOf extracts the named outputs from the final symbol table.
func outputsOf(ctx *runtime.Context, outputs []string) (map[string]any, error) {
	results := map[string]any{}
	for _, name := range outputs {
		d, err := ctx.Get(name)
		if err != nil {
			return nil, fmt.Errorf("core: output %q was not produced by the script", name)
		}
		v, err := fromRuntimeData(ctx, d)
		if err != nil {
			return nil, fmt.Errorf("core: output %q: %w", name, err)
		}
		results[name] = v
	}
	return results, nil
}

// recordStats makes the run's statistics the engine's last; traced says
// whether this run's spans are in the tracer.
func (e *Engine) recordStats(ctx *runtime.Context, traced bool) *Stats {
	stats := &Stats{RunStats: ctx.Stats(), CacheStats: ctx.Cache.Stats(), PoolStats: ctx.Pool.Stats(),
		LineageStore: e.store.Stats()}
	if traced {
		stats.OpMetrics = obs.Aggregate(obs.Resolve(obs.Snapshot()))
		stats.TraceDropped = obs.Dropped()
	}
	e.statsMu.Lock()
	e.lastStats = stats
	e.statsMu.Unlock()
	return stats
}

// LastRunStats returns the statistics of the most recent Run on this engine,
// failed or not (nil before the first run). The public API's Execute discards
// the per-call stats value; this accessor is how the CLI and embedders get at
// it.
func (e *Engine) LastRunStats() *Stats {
	e.statsMu.Lock()
	defer e.statsMu.Unlock()
	return e.lastStats
}

// TraceRecords returns the resolved span records of the last traced run:
// merged across worker buffers, sorted by start time, with orphan kernel
// sub-phase spans re-parented under their containing instruction spans.
func (e *Engine) TraceRecords() []obs.Record {
	return obs.Resolve(obs.Snapshot())
}

// WriteTrace writes the last traced run as Chrome trace-event JSON, loadable
// in Perfetto or chrome://tracing.
func (e *Engine) WriteTrace(w io.Writer) error {
	return obs.WriteChromeTrace(w, e.TraceRecords())
}

// inputLeaf builds the lineage leaf of a named input (a bound scalar is
// traced by its value instead, see runtime.Context.LineageOf). A leaf keyed
// by name is used only with reuse off, where no entry is ever looked up: a
// name says nothing about the data bound to it, so a session that rebinds X
// between two runs would be answered from the first run's entries. With the
// cache on — in memory or persistent — the leaf carries a content
// fingerprint: rebinding the name to different data changes every
// downstream lineage hash, while identical data keeps the hashes stable and
// the next run hits. Inputs without a cheap stable fingerprint are keyed by a
// per-process nonce, which makes them never match — correct, just without
// reuse of their derivations.
func (e *Engine) inputLeaf(name string, d runtime.Data) *lineage.Item {
	if !e.cache.Enabled() {
		return lineage.NewCreation("input", name)
	}
	if fp, ok := runtime.Fingerprint(d); ok {
		return lineage.NewCreation("input", fmt.Sprintf("%s#%016x", name, fp))
	}
	return lineage.NewCreation("input", fmt.Sprintf("%s!%d.%d", name, os.Getpid(), runNonce.Add(1)))
}

// ExplainPlan compiles a script (with size information from the given inputs)
// and returns the cost-annotated physical plan chosen by the compiler's
// planner: per operator the dimensions, memory estimate, CP/DIST placement,
// matmult strategy and modeled costs.
func (e *Engine) ExplainPlan(script string, inputs map[string]any) (string, error) {
	comp := compiler.New(e.cfg, e.registry)
	return comp.ExplainPlan(script, knownCharacteristics(inputs))
}

// ExplainPlanAnnotated renders the plan like ExplainPlan and joins the
// measured per-opcode metrics of the engine's last traced run onto the
// operator lines (count, wall/self time, bytes). Requires a preceding Run
// with tracing enabled; without one the output equals ExplainPlan.
func (e *Engine) ExplainPlanAnnotated(script string, inputs map[string]any) (string, error) {
	measured := map[string]obs.OpMetric{}
	if stats := e.LastRunStats(); stats != nil {
		for _, m := range stats.OpMetrics {
			if m.Cat != obs.CatInstr {
				continue
			}
			if _, ok := measured[m.Name]; !ok {
				measured[m.Name] = m
			}
		}
	}
	comp := compiler.New(e.cfg, e.registry)
	return comp.ExplainPlanAnnotated(script, knownCharacteristics(inputs), measured)
}

// toRuntimeData converts an API value to a runtime data object.
func toRuntimeData(v any, ctx *runtime.Context) (runtime.Data, error) {
	switch x := v.(type) {
	case runtime.Data:
		return x, nil
	case *matrix.MatrixBlock:
		return runtime.NewMatrixObject(x, ctx.Pool), nil
	case *frame.FrameBlock:
		return runtime.NewFrameObject(x), nil
	case *fed.FederatedMatrix:
		return runtime.NewFederatedObject(x), nil
	case float64:
		return runtime.NewDouble(x), nil
	case float32:
		return runtime.NewDouble(float64(x)), nil
	case int:
		return runtime.NewInt(int64(x)), nil
	case int64:
		return runtime.NewInt(x), nil
	case bool:
		return runtime.NewBool(x), nil
	case string:
		return runtime.NewString(x), nil
	default:
		return nil, fmt.Errorf("unsupported input type %T", v)
	}
}

// fromRuntimeData converts a runtime data object to an API value. The caller
// keeps what it is handed, so nothing in it is ever recycled.
func fromRuntimeData(ctx *runtime.Context, d runtime.Data) (any, error) {
	runtime.Share(d)
	switch x := d.(type) {
	case *runtime.Scalar:
		switch x.VT {
		case types.String:
			return x.StringValue(), nil
		case types.Boolean:
			return x.Bool(), nil
		default:
			return x.Float64(), nil
		}
	case *runtime.FrameObject:
		return x.Frame, nil
	case *runtime.FederatedObject:
		return x.Fed, nil
	case runtime.MatrixData:
		// API outputs are sinks: blocked matrices collect here, compressed
		// ones decompress (counted by this run)
		return x.LocalFor(ctx, "output")
	case *runtime.ListObject:
		return x, nil
	default:
		return nil, fmt.Errorf("unsupported output type %T", d)
	}
}

// Prepared is a pre-compiled script that can be executed repeatedly with
// different inputs (the JMLC-style embedded scoring API of Section 2.2).
type Prepared struct {
	engine  *Engine
	prog    *runtime.Program
	outputs []string
}

// Prepare compiles a script once for repeated low-latency execution.
func (e *Engine) Prepare(script string, outputs []string) (*Prepared, error) {
	prog, err := e.Compile(script, nil)
	if err != nil {
		return nil, err
	}
	return &Prepared{engine: e, prog: prog, outputs: outputs}, nil
}

// Execute runs the prepared script with the given inputs.
func (p *Prepared) Execute(inputs map[string]any) (map[string]any, error) {
	out, _, err := p.engine.Run(p.prog, inputs, p.outputs)
	return out, err
}
