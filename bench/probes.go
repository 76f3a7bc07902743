package main

// Kernel probes: direct calls into single layers on the workload shapes,
// reported against the machine profile measured in the same process, so a
// kernel number reads as a fraction of what this machine can do rather than
// as raw ns/op.

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"github.com/systemds/systemds-go/internal/compress"
	"github.com/systemds/systemds-go/internal/frame"
	"github.com/systemds/systemds-go/internal/hops"
	sdsio "github.com/systemds/systemds-go/internal/io"
	"github.com/systemds/systemds-go/internal/matrix"
)

// timeKernel calls fn until at least seconds have passed (and at least
// twice, the first call being a warm-up) and returns the median call time.
func timeKernel(seconds float64, fn func() error) (float64, error) {
	if err := fn(); err != nil {
		return 0, err
	}
	var times []float64
	for begin := time.Now(); len(times) < 2 || time.Since(begin).Seconds() < seconds; {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), nil
}

// runProbes measures the kernel probes; seconds is the measuring time of each.
func runProbes(sc scale, seed int64, seconds float64, profile hops.MachineProfile) (metricSet, error) {
	ms := metricSet{}
	rng := rand.New(rand.NewSource(workloadSeed(seed, "probes")))

	// TSMM on the lm shape. The kernel computes the upper triangle only:
	// rows·cols·(cols+1) flops. Peak is the profile's one-thread GEMM rate
	// times the thread count.
	n, d := sc.ProbeTsmmRows, sc.ProbeTsmmCols
	x := matrix.NewDenseFromSlice(n, d, uniform(rng, n*d, -1, 1))
	t, err := timeKernel(seconds, func() error { matrix.TSMM(x, threads); return nil })
	if err != nil {
		return nil, err
	}
	gflops := float64(n) * float64(d) * float64(d+1) / t / 1e9
	ms.set("matrix.tsmm_gflops", gflops)
	ms.set("matrix.tsmm_peak_frac", ratio(gflops, float64(threads)*profile.GFLOPS))

	// MV and t(X)·v on the l2svm shape; bytes moved are computed from the
	// array sizes (X read once for MV; read, written transposed and read
	// again for the dense t(X)·v, which materialises the transpose).
	n, d = sc.ProbeMvRows, sc.ProbeMvCols
	x = matrix.NewDenseFromSlice(n, d, uniform(rng, n*d, -1, 1))
	v := matrix.NewDenseFromSlice(d, 1, uniform(rng, d, -1, 1))
	u := matrix.NewDenseFromSlice(n, 1, uniform(rng, n, -1, 1))
	xBytes := 8 * float64(n) * float64(d)
	t, err = timeKernel(seconds, func() error { _, err := matrix.MatVec(x, v, threads); return err })
	if err != nil {
		return nil, err
	}
	ms.set("matrix.mv_gbs", xBytes/t/1e9)
	ms.set("matrix.mv_bw_frac", ratio(xBytes/t, profile.MemBWBytes))
	t, err = timeKernel(seconds, func() error { _, err := matrix.Multiply(matrix.Transpose(x), u, threads); return err })
	if err != nil {
		return nil, err
	}
	ms.set("matrix.tmv_gbs", 3*xBytes/t/1e9)

	// compressed against dense MV on the compressed loop's data shape
	n, d = sc.ProbeCompressRows, sc.GdCols
	vals := make([]float64, n*d)
	for i := range vals {
		vals[i] = float64(rng.Intn(5))
	}
	x = matrix.NewDenseFromSlice(n, d, vals)
	v = matrix.NewDenseFromSlice(d, 1, uniform(rng, d, -1, 1))
	cm, _, ok := compress.Compress(x, compress.PlannerConfig{}, threads)
	if !ok {
		return nil, fmt.Errorf("probe: planner rejected compressing the %dx%d low-cardinality matrix", n, d)
	}
	if t, err = timeKernel(seconds, func() error { _, err := matrix.MatVec(x, v, threads); return err }); err != nil {
		return nil, err
	}
	ms.set("matrix.mv_s", t)
	if t, err = timeKernel(seconds, func() error { _, err := cm.MatVec(v, threads); return err }); err != nil {
		return nil, err
	}
	ms.set("compress.mv_s", t)

	// CSV parse and frame encode on the lifecycle file's shape
	var csv bytes.Buffer
	if err := writeLifecycleRows(&csv, rng, sc.ProbeCsvRows); err != nil {
		return nil, err
	}
	opts := sdsio.DefaultCSVOptions()
	opts.Header, opts.Threads = true, threads
	var fr *frame.FrameBlock
	t, err = timeKernel(seconds, func() error {
		var err error
		fr, err = sdsio.ParseFrameCSV(csv.Bytes(), nil, opts)
		return err
	})
	if err != nil {
		return nil, err
	}
	ms.set("io.csv_mb_s", float64(csv.Len())/1e6/t)
	spec := frame.TransformSpec{DummyCode: []string{"site"}, Impute: map[string]string{"temperature": "mean"},
		Scale: []string{"temperature", "vibration", "rpm", "noise1", "noise2"}}
	t, err = timeKernel(seconds, func() error { _, _, err := frame.Encode(fr, spec); return err })
	if err != nil {
		return nil, err
	}
	ms.set("frame.encode_rows_s", float64(sc.ProbeCsvRows)/t)
	return ms, nil
}
