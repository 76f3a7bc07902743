package main

// The traced set. The benchmark records its own spans around the calls into
// each layer — lang.Parse/Validate, compiler.CompileProgram, core.Engine.Run —
// and merges the engine's obs records under the Run span. Layers are measured
// from outside; spans inside the compiler are a later change.

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	systemds "github.com/systemds/systemds-go"
	"github.com/systemds/systemds-go/internal/compiler"
	"github.com/systemds/systemds-go/internal/core"
	"github.com/systemds/systemds-go/internal/lang"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/obs"
	sysruntime "github.com/systemds/systemds-go/internal/runtime"
	"github.com/systemds/systemds-go/internal/types"
)

// span is one record of the trace file. Spans of one op share Op; Parent is
// the span that caused this one (0 for an op's root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     int    `json:"op"`
	Cat    string `json:"cat"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

// benchIDBase keeps the benchmark's span ids clear of the engine tracer's.
const benchIDBase = uint64(1) << 48

// tracer keeps the spans of one workload's traced set in memory until the
// benchmark ends.
type tracer struct {
	epoch time.Time
	// obsOffset converts the engine tracer's clock (ns since its own epoch)
	// to this tracer's.
	obsOffset int64
	next      uint64
	spans     []span
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now(), next: benchIDBase}
	// The engine tracer's epoch is private; one marker span read on both
	// clocks gives the offset to within the cost of a time.Now call.
	obs.Reset()
	obs.Enable()
	mark := t.now()
	obs.Begin("bench", "clock-sync").End()
	obs.Disable()
	if recs := obs.Snapshot(); len(recs) > 0 {
		t.obsOffset = mark - recs[0].Start
	}
	obs.Reset()
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index in t.spans.
func (t *tracer) begin(parent uint64, op int, cat, name string) int {
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Op: op, Cat: cat, Name: name, Start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) time.Duration {
	t.spans[i].End = t.now()
	return time.Duration(t.spans[i].End - t.spans[i].Start)
}

// graft appends engine records under the bench span parent.
func (t *tracer) graft(recs []obs.Record, parent uint64, op int) {
	for _, r := range recs {
		p := r.Parent
		if p == 0 {
			p = parent
		}
		t.spans = append(t.spans, span{ID: r.ID, Parent: p, Op: op, Cat: r.Cat, Name: r.Name,
			Start: r.Start + t.obsOffset, End: r.End() + t.obsOffset, Bytes: r.Bytes})
	}
}

func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// knownCharacteristics mirrors what core.Engine.Compile passes the compiler:
// the dimensions of bound matrices.
func knownCharacteristics(inputs map[string]any) map[string]types.DataCharacteristics {
	known := map[string]types.DataCharacteristics{}
	for name, v := range inputs {
		if m, ok := v.(*matrix.MatrixBlock); ok {
			known[name] = types.DataCharacteristics{Rows: int64(m.Rows()), Cols: int64(m.Cols()),
				Blocksize: types.DefaultBlocksize, NNZ: m.NNZ()}
		}
	}
	return known
}

// tracedEngine is a tracing engine with the compiler that feeds it; the
// prepared workload keeps one, with its compiled program, across traced ops
// the way Prepare keeps them across untraced ones.
type tracedEngine struct {
	eng  *core.Engine
	comp *compiler.Compiler
	prog *sysruntime.Program
}

// newTracedEngine builds the engine the public API would build from the
// instance's options, with tracing on. Engine creation is never timed.
func (in *instance) newTracedEngine() *tracedEngine {
	cfg := sysruntime.DefaultConfig()
	for _, opt := range in.opts {
		opt(cfg)
	}
	systemds.WithTracing(true)(cfg)
	eng := core.NewEngine(cfg)
	eng.SetOutput(io.Discard)
	return &tracedEngine{eng: eng, comp: compiler.New(cfg, eng.Registry())}
}

// compile parses and compiles the script under one span each — the steps of
// core.Engine.Compile, taken apart — and returns the compile-phase layer
// values. m0 is a MemStats reading from before the op.
func (te *tracedEngine) compile(t *tracer, parent uint64, op int, script string, inputs map[string]any, m0 *runtime.MemStats) (layerSample, error) {
	ls := layerSample{}
	sp := t.begin(parent, op, "lang", "parse")
	prog, err := lang.Parse(script)
	if err == nil {
		err = lang.Validate(prog, te.comp.IsCallable(prog))
	}
	ls["lang.parse_s"] = t.end(sp).Seconds()
	if err != nil {
		return nil, err
	}
	sp = t.begin(parent, op, "compiler", "compile")
	te.prog, err = te.comp.CompileProgram(prog, knownCharacteristics(inputs))
	ls["compiler.compile_s"] = t.end(sp).Seconds()
	if err != nil {
		return nil, err
	}
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	ls["compiler.alloc_kb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / 1e3
	return ls, nil
}

// runTracedOp runs one op with tracing on, through the same layers
// Context.Execute goes through, and returns its layer sample beside the
// result. The op's wall time is the bench "op" span.
func (in *instance) runTracedOp(t *tracer, op int, sc scale) (opResult, layerSample) {
	var res opResult
	if in.beforeOp != nil {
		if res.err = in.beforeOp(); res.err != nil {
			return res, nil
		}
	}
	if in.calls > 0 {
		return in.runTracedCalls(t, op, sc)
	}
	te := in.newTracedEngine()
	var m0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	root := t.begin(0, op, "bench", "op")
	rootID := t.spans[root].ID
	ls, err := te.compile(t, rootID, op, in.script, in.inputs, &m0)
	if err != nil {
		res.err = err
		return res, nil
	}
	sp := t.begin(rootID, op, "core", "run")
	out, stats, err := te.eng.Run(te.prog, in.inputs, in.outputs)
	runWall := t.end(sp)
	res.wall = t.end(root)
	if err != nil {
		res.err = err
		return res, nil
	}
	t.graft(te.eng.TraceRecords(), t.spans[sp].ID, op)
	ls.addRun(runWall, stats)
	ls["bench.span_coverage"] = (ls["lang.parse_s"] + ls["compiler.compile_s"] + runWall.Seconds()) / res.wall.Seconds()
	res.fp, res.err = in.verify([]systemds.Results{systemds.Results(out)})
	ls["bufferpool.leaked_files"] = float64(in.sweepSpills())
	return res, ls
}

// runTracedCalls is the traced op of the prepared workload: the script is
// compiled once (spans with op 0), then every call is one Engine.Run under
// its own span. Engine records are kept for the first PreparedTrace calls of
// each op only, which bounds the trace file; the layer sample covers all.
func (in *instance) runTracedCalls(t *tracer, op int, sc scale) (opResult, layerSample) {
	var res opResult
	if in.traced == nil {
		te := in.newTracedEngine()
		var m0 runtime.MemStats
		runtime.ReadMemStats(&m0)
		ls, err := te.compile(t, 0, 0, in.script, nil, &m0)
		if err != nil {
			res.err = err
			return res, nil
		}
		in.traced, in.tracedCompile = te, ls
	}
	ls := layerSample{}
	for k, v := range in.tracedCompile {
		ls[k] = v
	}
	results := make([]systemds.Results, 0, in.calls)
	runtime.GC()
	root := t.begin(0, op, "bench", "op")
	rootID := t.spans[root].ID
	var covered time.Duration
	for c := 0; c < in.calls; c++ {
		inputs := in.batches[c%len(in.batches)]
		sp := t.begin(rootID, op, "core", "run")
		out, stats, err := in.traced.eng.Run(in.traced.prog, inputs, in.outputs)
		runWall := t.end(sp)
		if err != nil {
			res.err = err
			return res, nil
		}
		covered += runWall
		if c < sc.PreparedTrace {
			t.graft(in.traced.eng.TraceRecords(), t.spans[sp].ID, op)
		}
		ls.addRun(runWall, stats)
		results = append(results, systemds.Results(out))
	}
	res.wall = t.end(root)
	ls["bench.span_coverage"] = covered.Seconds() / res.wall.Seconds()
	res.fp, res.err = in.verify(results)
	ls["bufferpool.leaked_files"] = float64(in.sweepSpills())
	return res, ls
}

// layerSample is the per-layer vector of one traced op.
type layerSample map[string]float64

// addRun folds one Engine.Run — its wall time seen from outside and its
// statistics bundle, whose OpMetrics are the engine's obs records aggregated
// per span class — into the sample. Self time is a span's duration minus its
// direct children, so run/block self time (the interpreter), instruction self
// time by class and the kernel sub-phase spans partition the run span.
func (ls layerSample) addRun(runWall time.Duration, stats *core.Stats) {
	var runNs int64
	for _, m := range stats.OpMetrics {
		wall, self := float64(m.WallNs)/1e9, float64(m.SelfNs)/1e9
		switch m.Cat {
		case obs.CatRun:
			runNs += m.WallNs
			ls["runtime.interp_s"] += self
		case obs.CatBlock:
			ls["runtime.interp_s"] += self
		case obs.CatInstr:
			ls["runtime.instr_count"] += float64(m.Count)
			ls["instructions."+opcodeClass(m.Name)+"_s"] += self
		case obs.CatCompress:
			if m.Name == "encode" {
				ls["compress.encode_s"] += wall
			}
		case obs.CatLineage:
			ls["lineage."+m.Name+"_s"] += wall
		case obs.CatPool:
			ls["bufferpool."+m.Name+"_s"] += wall
		case obs.CatDist:
			if m.Name != "partition" && m.Name != "collect" {
				ls["dist.task_s"] += wall
			}
		}
	}
	ls["core.bind_collect_s"] += (runWall - time.Duration(runNs)).Seconds()

	// the statistics of a fresh engine are this run's; only the prepared
	// workload reuses an engine, and it touches none of these layers
	cs, ps, ds, ks, fs := stats.CacheStats, stats.PoolStats, stats.DistStats, stats.CompressStats, stats.LineageStore
	ls["lineage.hits"] = float64(cs.Hits)
	ls["lineage.misses"] = float64(cs.Misses)
	ls["lineage.partial_hits"] = float64(cs.PartialHits)
	ls["lineage.cached_mb"] = float64(cs.BytesCached) / 1e6
	ls["bufferpool.store_write_mb"] = float64(fs.BytesWritten) / 1e6
	ls["bufferpool.store_read_mb"] = float64(fs.BytesRead) / 1e6
	ls["bufferpool.store_hits"] = float64(fs.Hits)
	ls["bufferpool.evictions"] += float64(ps.Evictions)
	ls["bufferpool.spilt_mb"] += float64(ps.BytesSpilt) / 1e6
	ls["dist.partitions"] += float64(ds.Partitions)
	ls["dist.collects"] += float64(ds.Collects)
	ls["dist.blocked_ops"] += float64(ds.BlockedOps)
	ls["compress.ops"] += float64(ks.CompressedOps)
	ls["compress.decompressions"] += float64(ks.Decompressions)
	ls["compress.bytes_in"] += float64(ks.BytesUncompressed)
	ls["compress.bytes_out"] += float64(ks.BytesCompressed)
}

// layerMetrics reduces the samples of a traced set to the per-layer vector:
// the median over ops of every value, then the derived ratios.
func layerMetrics(samples []layerSample) metricSet {
	ms := metricSet{}
	med := func(key string) float64 {
		vals := make([]float64, len(samples))
		for i, s := range samples {
			vals[i] = s[key]
		}
		return median(vals)
	}
	for _, d := range metricDefs {
		if d.Kind == perLayer && !d.Derived && !d.Probe {
			ms.set(d.Name, med(d.Name))
		}
	}
	ms.set("bench.span_coverage", med("bench.span_coverage"))
	ms.set("traced_ops", float64(len(samples)))
	total := 0.0
	for _, c := range instrClasses {
		total += ms["instructions."+c+"_s"].Value
	}
	ms.set("instructions.other_share", ratio(ms["instructions.other_s"].Value, total))
	ms.set("compress.ratio", ratio(med("compress.bytes_in"), med("compress.bytes_out")))
	ms.set("lineage.hit_ratio", ratio(ms["lineage.hits"].Value, ms["lineage.hits"].Value+ms["lineage.misses"].Value))
	return ms
}

// ratio is a/b, and 0 when the layer saw no activity.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// dominantLayer names the layer metric with the largest time in a vector and
// its share of the traced op's run span, for the README's result table.
func dominantLayer(ms metricSet, tracedRunS float64) (string, float64) {
	best, bestV := "", 0.0
	for _, d := range metricDefs {
		if d.Kind == perLayer && d.Unit == "s" && !d.Probe && ms[d.Name].Value > bestV {
			best, bestV = d.Name, ms[d.Name].Value
		}
	}
	return best, ratio(bestV, tracedRunS)
}
