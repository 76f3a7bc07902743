package main

// The measuring harness: set-up, one untraced op, and the summary of a set of
// ops. Everything that is not the operation itself — context creation, store
// wipes, GC, the reference check, the spill-directory check — happens outside
// the timed region.

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	systemds "github.com/systemds/systemds-go"
)

// opResult is the outcome of one operation.
type opResult struct {
	wall  time.Duration
	alloc uint64          // TotalAlloc delta over the timed region
	calls []time.Duration // prepared workload: per-call latencies
	fp    uint64          // FNV-64 of the output bits
	err   error           // execution error or reference miss
}

// setUp builds a fresh instance of w under dir: inputs from the seed, the
// reference, store priming and the warm-ups. This is what setup_s times.
func setUp(w workload, sc scale, seed int64, dir string) (*instance, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	in, err := w.build(sc, rand.New(rand.NewSource(workloadSeed(seed, w.Name))), dir)
	if err != nil {
		return nil, err
	}
	in.verified = map[uint64]bool{}
	warmUps := sc.WarmUps
	if in.primeStore {
		warmUps++
	}
	for i := 0; i < warmUps; i++ {
		if op := in.runOp(); op.err != nil {
			return nil, fmt.Errorf("warm-up: %w", op.err)
		}
	}
	return in, nil
}

// workloadSeed derives an independent generator seed per workload, so adding
// or reordering workloads never changes another workload's inputs.
func workloadSeed(seed int64, name string) int64 {
	h := fnv.New64a()
	writeU64(h, uint64(seed))
	h.Write([]byte(name))
	return int64(h.Sum64() >> 1)
}

func writeU64(h hash.Hash64, u uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], u)
	h.Write(b[:])
}

// timedSetUp repeats set-up reps times and returns the last instance with
// every repetition's duration.
func timedSetUp(w workload, sc scale, seed int64, dir string, reps int) (*instance, []float64, error) {
	var in *instance
	var times []float64
	for i := 0; i < reps; i++ {
		in = nil
		runtime.GC()
		start := time.Now()
		var err error
		if in, err = setUp(w, sc, seed, dir); err != nil {
			return nil, nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return in, times, nil
}

// beginOp does the untimed preparation of an op: store wipe, context (and
// prepared script) creation, and a GC so one op's garbage is not collected
// on the next op's clock.
func (in *instance) beginOp() error {
	if in.beforeOp != nil {
		if err := in.beforeOp(); err != nil {
			return err
		}
	}
	if in.freshCtx || in.ctx == nil {
		in.ctx = systemds.NewContext(in.opts...)
		in.ctx.SetOutput(io.Discard)
		if in.calls > 0 {
			p, err := in.ctx.Prepare(in.script, in.outputs...)
			if err != nil {
				return err
			}
			in.prepared = p
		}
	}
	runtime.GC()
	return nil
}

// runOp runs one untraced op through the public API.
func (in *instance) runOp() opResult {
	var op opResult
	if op.err = in.beginOp(); op.err != nil {
		return op
	}
	var m0, m1 runtime.MemStats
	var results []systemds.Results
	runtime.ReadMemStats(&m0)
	start := time.Now()
	if in.calls == 0 {
		res, err := in.ctx.Execute(in.script, in.inputs, in.outputs...)
		op.wall = time.Since(start)
		op.err = err
		results = append(results, res)
	} else {
		results = make([]systemds.Results, 0, in.calls)
		op.calls = make([]time.Duration, 0, in.calls)
		last := start
		for c := 0; c < in.calls && op.err == nil; c++ {
			res, err := in.prepared.Execute(in.batches[c%len(in.batches)])
			now := time.Now()
			op.calls = append(op.calls, now.Sub(last))
			last = now
			op.err = err
			results = append(results, res)
		}
		op.wall = time.Since(start)
	}
	runtime.ReadMemStats(&m1)
	op.alloc = m1.TotalAlloc - m0.TotalAlloc
	if op.err == nil {
		op.fp, op.err = in.verify(results)
	}
	in.sweepSpills()
	return op
}

// verify checks every result of an op against the reference and fingerprints
// the outputs. A result whose bits were already verified is not checked
// again: equal bits, equal verdict.
func (in *instance) verify(results []systemds.Results) (uint64, error) {
	batches := len(in.batches)
	if batches == 0 {
		batches = 1
	}
	h := fnv.New64a()
	for c, res := range results {
		fp, err := fingerprint(res, in.outputs)
		if err != nil {
			return 0, err
		}
		if !in.verified[fp] {
			if err := in.check(res, c%batches); err != nil {
				return 0, fmt.Errorf("reference check: %w", err)
			}
			in.verified[fp] = true
		}
		// the op fingerprint covers one rotation of the input batches
		if c < batches {
			writeU64(h, fp)
		}
	}
	return h.Sum64(), nil
}

// sweepSpills counts and removes what an op left in the spill directory, so
// one op's leak is not counted on the next. At the commit this benchmark was
// written on every run that spills leaks, so the traced set reports the count
// as bufferpool.leaked_files rather than failing the op: a workload that
// fails every op measures nothing.
func (in *instance) sweepSpills() int {
	left, _ := os.ReadDir(in.tmpDir)
	for _, e := range left {
		os.RemoveAll(filepath.Join(in.tmpDir, e.Name()))
	}
	return len(left)
}

// fingerprint is the FNV-64a hash of the named outputs' dimensions and bits.
func fingerprint(res systemds.Results, outputs []string) (uint64, error) {
	h := fnv.New64a()
	put := func(u uint64) { writeU64(h, u) }
	for _, name := range outputs {
		h.Write([]byte(name))
		switch v := res[name].(type) {
		case *systemds.Matrix:
			put(uint64(v.Rows()))
			put(uint64(v.Cols()))
			for r := 0; r < v.Rows(); r++ {
				for c := 0; c < v.Cols(); c++ {
					put(math.Float64bits(v.Get(r, c)))
				}
			}
		case float64:
			put(math.Float64bits(v))
		default:
			return 0, fmt.Errorf("output %q is %T, want a matrix or a number", name, v)
		}
	}
	return h.Sum64(), nil
}

// opSet accumulates the untraced ops of one workload.
type opSet struct {
	walls  []float64
	allocs []float64
	calls  []float64 // µs
	fps    map[uint64]int
	first  uint64
	failed int
	errs   []string
}

func (s *opSet) add(op opResult) {
	if op.err != nil {
		s.failed++
		if len(s.errs) < 3 {
			s.errs = append(s.errs, op.err.Error())
		}
		return
	}
	s.walls = append(s.walls, op.wall.Seconds())
	s.allocs = append(s.allocs, float64(op.alloc)/1e6)
	for _, c := range op.calls {
		s.calls = append(s.calls, float64(c.Nanoseconds())/1e3)
	}
	if s.fps == nil {
		s.fps = map[uint64]int{}
		s.first = op.fp
	}
	s.fps[op.fp]++
}

func (s *opSet) attempted() int { return len(s.walls) + s.failed }

// metrics summarises the set: medians for the gated metrics, quartiles and
// the minimum beside them.
func (s *opSet) metrics(setupTimes []float64) metricSet {
	ms := metricSet{}
	ms.set("samples", float64(len(s.walls)))
	ms.set("fail_ratio", float64(s.failed)/float64(max(1, s.attempted())))
	if len(s.walls) > 0 {
		q1, med, q3 := quartiles(s.walls)
		ms.set("run_s", med)
		ms.set("run_q1_s", q1)
		ms.set("run_q3_s", q3)
		ms.set("run_min_s", slices.Min(s.walls))
		q1, med, q3 = quartiles(s.allocs)
		ms.set("alloc_mb", med)
		ms.set("alloc_q1_mb", q1)
		ms.set("alloc_q3_mb", q3)
	}
	if len(s.calls) > 0 {
		ms.set("call_p50_us", percentile(s.calls, 50))
		ms.set("call_p99_us", percentile(s.calls, 99))
	}
	if len(setupTimes) > 0 {
		ms.set("setup_s", median(setupTimes))
		ms.set("setup_min_s", slices.Min(setupTimes))
		ms.set("setup_max_s", slices.Max(setupTimes))
	}
	return ms
}

// workDir is the private directory of a workload under the output directory.
func workDir(outDir, name string) string {
	return filepath.Join(outDir, "work", fmt.Sprintf("%s.%d", name, os.Getpid()))
}
