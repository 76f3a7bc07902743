GO ?= go
SHELL := /bin/bash

.PHONY: all build vet lint test race fuzz-smoke bench bench-compare bench-kernels trace-check

all: lint build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Static contract checks: go vet plus sysdslint, the in-repo analyzer suite
# enforcing the determinism, layering, and concurrency contracts (maporder,
# nofma, threadplumb, layering, goroutineerr, spanend; `sysdslint -list`; see
# DESIGN.md "Enforced invariants"). Suppressions require a written
# //sysds:ok(<analyzer>): reason, checked by the sysdsok pseudo-analyzer.
lint: vet
	$(GO) run ./cmd/sysdslint ./...

test:
	$(GO) test ./...

# Race-enabled run of the full module (nothing is skipped), followed by the
# compressed lm-loop determinism gate run twice in one process (-count=2
# compares fingerprints across invocations via package state), the
# O(1)-lineage-probe gates repeated (the 200-trip reuse-on loop; workers
# sharing one cache; steplm bitwise-equal with reuse on and off, its hit and
# miss counts pinned), the buffer-pool liveness and budget-differential tests
# repeated (reference counts across contexts, parfor workers and the reuse
# cache; outputs bitwise-equal from 1/4 of the working set to no limit), and a
# bench smoke under the race detector: the tiled GEMM engine's multi-threaded
# row-panel workers (internal/matrix), the deep compressed kernels — TSMM and
# matrix right-hand side (internal/compress) — and the partitioned dist MV
# (internal/dist).
race:
	$(GO) test -race ./...
	$(GO) test -race -run TestCompressedLmLoopDeterminism -count=2 ./internal/core/
	$(GO) test -race -run 'TestReuseLoopCostsLikeReuseOff|TestCacheSharedByWorkers|TestSteplmReuseIsBitwiseEqual' -count=3 . ./internal/lineage/ ./internal/core/
	$(GO) test -race -run 'TestSpillDifferential|TestSharedValueSurvivesRebind|TestFunctionResultOutlivesItsScope|TestParforChildrenReleaseWhatTheyHeld|TestSpiltBlockResidentMemo|TestCacheRetainsValues' -count=3 . ./internal/runtime/ ./internal/lineage/
	$(GO) test -race -bench 'KernelGEMMTiled512|KernelMultiplyAccTiled|CompressedTSMM$$|CompressedMMDense$$|CompressedDistMV' -benchtime=1x -run '^$$' ./internal/matrix/ ./internal/compress/ ./internal/dist/

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

# The go-test kernel sweep: every Benchmark* in the module, each in the package
# that owns its kernel (internal/*/…_bench_test.go) plus the public-API
# benchmarks of the root package, with allocation stats. The output is plain
# `go test -bench` text, which benchstat reads; CI runs the same command once
# per benchmark (-benchtime=1x) as a smoke test.
bench-kernels:
	$(GO) test -bench . -benchmem -timeout 30m -run '^$$' ./...
