GO ?= go
SHELL := /bin/bash

.PHONY: all build vet lint test race fuzz-smoke bench bench-compare bench-kernels bench-all trace-check

all: lint build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static contract checks: go vet plus sysdslint, the in-repo analyzer suite
# enforcing the determinism, layering, and concurrency contracts (maporder,
# nofma, threadplumb, layering, goroutineerr; see DESIGN.md "Enforced
# invariants"). Suppressions require a written //sysds:ok(<analyzer>): reason.
lint: vet
	$(GO) run ./cmd/sysdslint ./...

test:
	$(GO) test ./...

# Race-enabled run of the full module (bufferpool, paramserv, frame, tensor
# and lineage included — nothing is skipped), followed by the compressed
# lm-loop determinism gate run twice in one process (-count=2 compares
# fingerprints across invocations via package state), the O(1)-lineage-probe
# gates repeated (the 200-trip reuse-on loop; workers sharing one cache), the
# buffer-pool liveness and budget-differential tests repeated (reference
# counts across contexts, parfor workers and the reuse cache; outputs
# bitwise-equal from 1/4 of the working set to no limit), and a bench smoke that drives the tiled GEMM engine's multi-threaded row-panel
# workers (the kernel-naming benchmarks live in internal/matrix) plus the deep
# compressed kernels (TSMM, matrix right-hand side, partitioned dist MV) under
# the race detector.
race:
	$(GO) test -race ./...
	$(GO) test -race -run TestCompressedLmLoopDeterminism -count=2 ./internal/core/
	$(GO) test -race -run 'TestReuseLoopCostsLikeReuseOff|TestCacheSharedByWorkers' -count=3 . ./internal/lineage/
	$(GO) test -race -run 'TestSpillDifferential|TestSharedValueSurvivesRebind|TestFunctionResultOutlivesItsScope|TestParforChildrenReleaseWhatTheyHeld|TestSpiltBlockResidentMemo|TestCacheRetainsValues' -count=3 . ./internal/runtime/ ./internal/lineage/
	$(GO) test -race -bench 'KernelGEMMTiled512|KernelMultiplyAccTiled|CompressedTSMM$$|CompressedMMDense$$|CompressedDistMV' -benchtime=1x -run '^$$' . ./internal/matrix/

# Ten seconds of coverage-guided fuzzing of the SDSB decoder from its
# checked-in seed corpus: spill files, persistent-store payloads and `read`
# inputs all come in through it, and it must answer any bytes with a block or
# an error.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReadMatrixBinary -fuzztime 10s ./internal/io/

# Observability acceptance gate: run the traced lm-loop scenario end to end
# (distributed backend forced by a small memory budget, compression site
# planted) with -trace and -stats, then validate the exported Chrome trace —
# well-formed JSON, resolvable parents, strict per-lane nesting, instruction
# spans covering >= 90% of the run span — and reconcile the heavy-hitter
# footer against the trace within 20%.
trace-check:
	$(GO) run ./cmd/sysds -f scripts/lm_trace.dml -compress -distributed -mem-budget 65536 \
		-trace /tmp/sysds-trace.json -stats -print s > /tmp/sysds-stats.txt
	$(GO) run ./cmd/tracecheck -trace /tmp/sysds-trace.json -stats /tmp/sysds-stats.txt

# The repo's benchmark (bench/, a module of its own; see bench/README.md):
# all eight script-level workloads, every end-to-end and per-layer metric by
# name and unit, written to BENCH_OUT for bench-compare.
BENCH_OUT ?= bench.json
bench:
	bash bench/run.sh -seed 1 -out $(BENCH_OUT)

# The regression gate between two result files of `make bench`: markdown
# delta table, exit 1 when a median worsens beyond its bound.
#   make bench-compare BASE=base.json NEW=new.json
bench-compare:
	bash bench/run.sh -compare $(BASE) $(NEW)

# The go-test kernel sweep: compressed-vs-dense MV/TSMM/matrix-RHS kernels
# (plus the partitioned dist executor), planner-vs-forced matmult strategies,
# the cellwise row-kernel drivers and the fused-vs-unfused two-operator chain
# (GB/s and the fraction of the measured copy bandwidth, on the scoring-batch
# and the design-matrix shape), fused-vs-unfused, kernel-parallelism and
# tiled-vs-simple GEMM/TSMM/
# MultiplyAcc benchmarks with allocation stats, plus the adaptive-runtime
# pairs (cold-vs-warm cross-run lineage reuse, uncalibrated-vs-calibrated
# planning), the lineage probe at chain depth 10/100/1000 (ns/op and
# allocs/op are per probe and must not depend on depth) and the SDSB codec
# into and out of memory (MB/s over the dense payload), parsed into
# BENCH_KERNELS_OUT. The compressed and lineage
# benchmarks additionally report databytes/op (bytes of matrix representation
# streamed or spilled per operation) and the dense kernel benchmarks report
# gflops.
BENCH_KERNELS_OUT ?= bench_kernels.json
bench-kernels:
	set -o pipefail; $(GO) test -bench 'Compressed|LoopEpoch|MatMultStrategy|Cellwise|Fused|Unfused|MMChain|KernelParallel|KernelGEMM|KernelTSMM|KernelMultiplyAcc|LineageReuse|LineageProbe|CalibrationDelta|SDSB' -benchmem -timeout 30m -run '^$$' . ./internal/io/ ./internal/matrix/ | $(GO) run ./cmd/benchjson -out $(BENCH_KERNELS_OUT)

# Full benchmark sweep (single iteration per benchmark).
bench-all:
	$(GO) test -bench . -benchtime=1x -run '^$$' .
