// Command sysds executes a DML script from the command line (the equivalent
// of SystemDS' command-line invocation in Figure 3). Script inputs can be
// bound to CSV or SDSB binary files or scalar values with -input flags, and
// outputs are printed or written to CSV files in the order given.
//
// Usage:
//
//	sysds -f script.dml \
//	      -input X=features.csv -input y=labels.csv -input reg=0.001 \
//	      -output B=model.csv -print err \
//	      -reuse -parallelism 8
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	systemds "github.com/systemds/systemds-go"
	sdsio "github.com/systemds/systemds-go/internal/io"
)

type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	var (
		scriptPath  = flag.String("f", "", "path to the DML script (required)")
		inputs      multiFlag
		outputs     multiFlag
		prints      multiFlag
		reuse       = flag.Bool("reuse", false, "enable lineage-based reuse of intermediates")
		persistDir  = flag.String("persist-lineage", "", "directory for cross-run lineage reuse (implies -reuse)")
		lineageOff  = flag.Bool("no-lineage", false, "disable lineage tracing")
		parallelism = flag.Int("parallelism", 0, "number of threads (0 = all cores)")
		distributed = flag.Bool("distributed", false, "enable the blocked distributed backend for large operations")
		compression = flag.Bool("compress", false, "enable compressed linear algebra for loop-reused operands")
		memBudget   = flag.Int64("mem-budget", 0, "per-operator memory budget in bytes for CP-vs-distributed selection (0 = default)")
		printStats  = flag.Bool("stats", false, "print execution statistics and the per-opcode heavy-hitter table after execution")
		tracePath   = flag.String("trace", "", "write the run as Chrome trace-event JSON to this file (view in Perfetto)")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file at exit")
	)
	flag.Var(&inputs, "input", "bind a script input: name=file.csv, name=file.bin or name=scalar (repeatable)")
	flag.Var(&outputs, "output", "write a script output to CSV: name=file.csv (repeatable)")
	flag.Var(&prints, "print", "print a script output variable (repeatable)")
	flag.Parse()

	if *scriptPath == "" {
		fmt.Fprintln(os.Stderr, "sysds: -f <script.dml> is required")
		flag.Usage()
		os.Exit(2)
	}
	opts := []systemds.Option{
		systemds.WithParallelism(*parallelism),
		systemds.WithReuse(*reuse),
		systemds.WithDistributedBackend(*distributed),
		systemds.WithCompression(*compression),
		// the heavy-hitter table and the trace export both come from the span
		// tracer, so either flag turns it on
		systemds.WithTracing(*printStats || *tracePath != ""),
	}
	if *persistDir != "" {
		opts = append(opts, systemds.WithPersistentLineage(*persistDir))
	}
	if *memBudget > 0 {
		opts = append(opts, systemds.WithOperatorMemBudget(*memBudget))
	}
	if *lineageOff {
		opts = append(opts, systemds.WithLineage(false))
	}
	ctx := systemds.NewContext(opts...)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("create cpu profile %s: %v", *cpuProfile, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("start cpu profile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fatalf("create heap profile %s: %v", *memProfile, err)
			}
			defer f.Close()
			runtime.GC() // materialize up-to-date allocation stats
			if err := pprof.WriteHeapProfile(f); err != nil {
				fatalf("write heap profile: %v", err)
			}
		}()
	}

	boundInputs := map[string]any{}
	for _, in := range inputs {
		name, value, ok := strings.Cut(in, "=")
		if !ok {
			fatalf("invalid -input %q, expected name=value", in)
		}
		v, err := parseInputValue(value)
		if err != nil {
			fatalf("read input %s: %v", value, err)
		}
		boundInputs[name] = v
	}

	// requested[i] is written to outFiles[i], in flag order
	var requested, outFiles []string
	for _, out := range outputs {
		name, file, ok := strings.Cut(out, "=")
		if !ok {
			fatalf("invalid -output %q, expected name=file.csv", out)
		}
		requested = append(requested, name)
		outFiles = append(outFiles, file)
	}
	requested = append(requested, prints...)

	results, err := ctx.ExecuteFile(*scriptPath, boundInputs, requested...)
	if err != nil {
		fatalf("execution failed: %v", err)
	}
	for i, file := range outFiles {
		name := requested[i]
		m, err := results.Matrix(name)
		if err != nil {
			fatalf("output %s: %v", name, err)
		}
		if err := systemds.WriteMatrixCSV(file, m); err != nil {
			fatalf("write %s: %v", file, err)
		}
		fmt.Printf("wrote %s (%dx%d) to %s\n", name, m.Rows(), m.Cols(), file)
	}
	for _, name := range prints {
		fmt.Printf("%s = %v\n", name, results[name])
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fatalf("create trace %s: %v", *tracePath, err)
		}
		if err := ctx.WriteTrace(f); err != nil {
			fatalf("write trace: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("close trace %s: %v", *tracePath, err)
		}
	}
	if *printStats {
		printExecStats(ctx, *persistDir != "")
	}
}

// printExecStats renders the full execution-statistics picture of the run
// from its one statistics value: reuse cache, buffer pool, distributed
// backend, fused operators, compression and persistent lineage store
// counters, followed by the per-opcode heavy-hitter table from the span
// tracer.
func printExecStats(ctx *systemds.Context, persist bool) {
	stats := ctx.LastRunStats()
	cs := stats.CacheStats
	fmt.Printf("reuse cache: hits=%d misses=%d puts=%d evictions=%d\n",
		cs.Hits, cs.Misses, cs.Puts, cs.Evictions)
	fmt.Printf("buffer pool: evictions=%d cleanDrops=%d restores=%d spilt=%dB blocksRestored=%d blocksSkipped=%d\n",
		stats.PoolStats.Evictions, stats.PoolStats.CleanDrops, stats.PoolStats.Restores, stats.PoolStats.BytesSpilt,
		stats.PoolStats.BlocksRestored, stats.PoolStats.BlocksSkipped)
	fmt.Printf("distributed: partitions=%d viewPartitions=%d collects=%d blockedOps=%d\n",
		stats.DistStats.Partitions, stats.DistStats.ViewPartitions, stats.DistStats.Collects, stats.DistStats.BlockedOps)
	fmt.Printf("fused ops: mmchain=%d cellwiseAgg=%d cellwise=%d\n",
		stats.FusedStats.MMChainOps, stats.FusedStats.FusedAggOps, stats.FusedStats.FusedCellOps)
	co := stats.CompressStats
	fmt.Printf("compression: compressed=%d rejected=%d compressedOps=%d decompressions=%d bytes=%d->%d\n",
		co.Compressions, co.Rejected, co.CompressedOps, co.Decompressions,
		co.BytesUncompressed, co.BytesCompressed)
	if len(co.DecompressionsByOp) > 0 {
		ops := make([]string, 0, len(co.DecompressionsByOp))
		for op := range co.DecompressionsByOp {
			ops = append(ops, op)
		}
		sort.Strings(ops)
		parts := make([]string, len(ops))
		for i, op := range ops {
			parts[i] = fmt.Sprintf("%s=%d", op, co.DecompressionsByOp[op])
		}
		fmt.Printf("decompressions by op: %s\n", strings.Join(parts, " "))
	}
	fmt.Printf("plan records: %d (dropped=%d)\n", len(stats.PlanStats), stats.PlanRecordsDropped)
	if persist {
		ls := stats.LineageStore
		fmt.Printf("lineage store: files=%d bytes=%d hits=%d misses=%d puts=%d evictions=%d corrupt=%d\n",
			ls.Files, ls.Bytes, ls.Hits, ls.Misses, ls.Puts, ls.Evictions, ls.CorruptDropped)
	}
	if recs := ctx.Trace(); len(recs) > 0 {
		fmt.Print(systemds.FormatHeavyHitters(recs, 15))
		if stats.TraceDropped > 0 {
			fmt.Printf("trace spans dropped after record cap: %d\n", stats.TraceDropped)
		}
	}
}

// parseInputValue binds CSV and SDSB binary files as matrices, numbers and
// TRUE/FALSE as scalars, and everything else as a string.
func parseInputValue(value string) (any, error) {
	switch {
	case strings.HasSuffix(value, ".csv"):
		return systemds.ReadMatrixCSV(value)
	case strings.HasSuffix(value, ".bin"):
		return sdsio.ReadMatrixBinary(value)
	}
	if v, err := strconv.ParseFloat(value, 64); err == nil {
		return v, nil
	}
	if value == "TRUE" || value == "FALSE" {
		return value == "TRUE", nil
	}
	return value, nil
}

// fatalf reports the error and exits 1. os.Exit skips deferred calls, so the
// CPU profile (a no-op when none runs) is stopped here to leave a complete
// file behind.
func fatalf(format string, args ...any) {
	pprof.StopCPUProfile()
	fmt.Fprintf(os.Stderr, "sysds: "+format+"\n", args...)
	os.Exit(1)
}
