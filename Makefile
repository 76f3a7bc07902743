GO ?= go
SHELL := /bin/bash

.PHONY: all build vet lint test race fuzz-smoke bench bench-compare bench-kernels

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
# miss counts pinned), the worker pool repeated (every task once, no more
# goroutines than tasks, the lowest failed task's error, a panic recovered by
# the caller with no goroutine left behind; parfor reporting the lowest
# failing worker's error), the run statistics repeated (parfor workers and
# function scopes counting into their run's one RunStats), the buffer-pool
# liveness and budget-differential tests repeated (reference counts across
# contexts, parfor workers and the reuse cache; outputs bitwise-equal from 1/4
# of the working set to no limit), the free list of dense arrays repeated
# (eight goroutines calling one prepared script on one engine, every call
# checked against a naive reference), the in-place updates repeated (every
# other holder of an updated value — second binding, reuse-cache entry,
# caller, function result, parfor worker, list, view, second handle,
# partitioned memo, spill file — keeps its bits while the update and the
# parfor region merge write; parfor leaves what the sequential loop leaves at
# T = 1, 2, 3), function-level reuse repeated (impure calls run their body;
# a rebound input, or an output missing from the store, misses; a caller's
# update and the free list leave a hit output's bits alone; outputs bitwise
# equal to reuse off at T = 1, 2, 3; parfor workers calling one pure function
# at once), the blocked t(X) %*% Y repeated (dist.XtY bitwise-equal to the
# local row-scatter leg at 1, 2, 3 and 7 pool workers; the collect writing
# every block into one output; the GD loop on the dist.loop.spill shape with
# one xty per epoch, no transpose and no eviction, bitwise-equal to local at
# T = 1, 2, 3), the row-wise fused gradient repeated (matrix.RowChain
# bitwise-equal to MV, the cell program and xty over generated programs,
# dense and CSR X, sparse and empty v, at 1, 2, 3 and 7 threads; the
# CSR-driven dense-sparse multiply against the full loop), the row-strip
# views repeated (a dense one-column-block partition viewing its parent's
# array, copying where a view would differ; the broadcast matmult bitwise-equal
# to the local multiply at 1, 2 and 3 pool workers; the pool counting a view
# memo's array once; an update, a rebinding and the free list leaving viewed
# bits alone; blocked runs bitwise-equal to local under a 16 MB pool), the
# recompile memo repeated (the L2SVM loop planning twice in 20 calls; the
# examples/lifecycle pipeline's plans, static answers and calls pinned; at
# every recompilation of the golden corpus the plan from exact sizes equal to
# the plan from their plan-visible form — parfor workers recompile
# concurrently under one lock), and a
# bench smoke under the race detector: the tiled GEMM engine's multi-threaded
# row-panel workers, the tiled TSMM's triangle-panel workers and the blocked
# Cholesky's row-panel workers, each set writing one shared output
# (internal/matrix), the deep compressed kernels — TSMM and
# matrix right-hand side (internal/compress) — and the blocked backend's
# shuffle matmult and xty, their block tasks on the worker pool (internal/dist).
race:
	$(GO) test -race ./...
	$(GO) test -race -run TestCompressedLmLoopDeterminism -count=2 ./internal/core/
	$(GO) test -race -run 'TestReuseLoopCostsLikeReuseOff|TestCacheSharedByWorkers|TestSteplmReuseIsBitwiseEqual' -count=3 . ./internal/lineage/ ./internal/core/
	$(GO) test -race -run 'TestParallelFor|TestParforErrorIsTheLowestWorkers' -count=3 ./internal/matrix/ ./internal/core/
	$(GO) test -race -run 'TestChildContextsCountIntoTheRun' -count=3 ./internal/core/
	$(GO) test -race -run 'TestSpillDifferential|TestSharedValueSurvivesRebind|TestFunctionResultOutlivesItsScope|TestParforChildrenReleaseWhatTheyHeld|TestSpiltBlockResidentMemo|TestCacheRetainsValues' -count=3 . ./internal/runtime/ ./internal/lineage/
	$(GO) test -race -run 'TestConcurrentPreparedCalls' -count=3 .
	$(GO) test -race -run 'TestInPlaceOnlyWhenNothingElseSees|TestWrittenBlockSpillsItsNewBits|TestUpdatesLeaveOtherHoldersAlone|TestResultsOutputIsNeverWritten|TestParforMatchesFor' -count=3 . ./internal/runtime/
	$(GO) test -race -run 'TestImpureCallsRunTheirBody|TestVerboseGridSearchRunsItsBody|TestReboundInputMisses|TestOneOutputMissingFromTheStoreRerunsTheBody|TestCallerUpdateLeavesTheCachedBitsAlone|TestHitOutputsAreNeverRecycled|TestFunctionReuseIsBitwiseEqual|TestParforWorkersShareOnePureCall' -count=3 .
	$(GO) test -race -run 'TestXtYBitwiseEqualsTransposeMultiply|TestToMatrixBlockWritesInPlace|TestGDLoopRunsXtYBlocked|TestXtYUnderDistMatchesLocal' -count=3 ./internal/dist/ ./internal/core/
	$(GO) test -race -run 'TestRowChainBitwiseEqualsUnfused|TestMultDenseSparseVisitsOnlyStoredRows' -count=3 ./internal/matrix/
	$(GO) test -race -run 'TestPartitionViewsTheDenseArray|TestPartitionCopiesWhereViewsWouldDiffer|TestMatMultBroadcastMatchesLocal|TestViewMemoCountsTheArrayOnce|TestInPlaceOnlyWhenNothingElseSees|TestViewsOfRecycledArraysAreNeverRead|TestLeftIndexAfterViewPartition|TestBlockedMatchesLocalUnderPool|TestConcatenationCountsSharedBlocksOnce|TestEvictingASharerFreesOnlyWhatNoOneHolds|TestRBindLoopStaysCounted' -count=3 . ./internal/dist/ ./internal/runtime/
	$(GO) test -race -run 'TestRecompileMemoHitsOnStableSizes|TestLifecyclePlansOncePerPlanVisibleSize|TestRecompilePlansAlikeFromExactAndVisibleSizes' -count=3 . ./internal/compiler/
	$(GO) test -race -bench 'KernelGEMMTiled512|KernelMultiplyAccTiled|KernelTSMMTiled4096x512|KernelCholesky512|CompressedTSMM$$|CompressedMMDense$$|MatMultStrategyForcedSH|XtYBlocked' -benchtime=1x -run '^$$' ./internal/matrix/ ./internal/compress/ ./internal/dist/

# Ten seconds each of coverage-guided fuzzing from the checked-in seed
# corpora: the SDSB decoder (spill files, persistent-store payloads and `read`
# inputs all come in through it; any bytes give a block or an error), the CSV
# frame and matrix readers (same schema, names, cell bits and error-or-not as
# the naive line-splitting oracle in the test file, at 1 and 3 threads), the
# persistent lineage store file (open + Get on any bytes serve the entry or
# drop and count it, never panic, never allocate from an unchecked length),
# the compressed-matrix spill file (any bytes give a matrix or an error, never
# a panic; a matrix writes back the bytes it came from and its kernels run),
# the lineage-store entry payload (any bytes decode to a matrix or scalar
# or an error, never a panic, and a decoded value re-encodes to the same bits),
# the DML parser (any source parses and validates to a program or an
# error, never a panic; seeded with the builtin and golden-plan scripts), the
# HOP rewrite pass (the DAG generated from any seed and size rewrites to the
# fixpoint of the separate reference passes in rewrite_ref_test.go) and the
# federated worker's request handler (any gob-decoded request frame is
# answered, never a panic — which would end the worker process — and nothing
# allocated from a length the frame did not pay for).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReadMatrixBinary -fuzztime 10s ./internal/io/
	$(GO) test -run '^$$' -fuzz FuzzParseFrameCSV -fuzztime 10s ./internal/io/
	$(GO) test -run '^$$' -fuzz FuzzParseMatrixCSV -fuzztime 10s ./internal/io/
	$(GO) test -run '^$$' -fuzz FuzzFileStoreOpenGet -fuzztime 10s ./internal/bufferpool/
	$(GO) test -run '^$$' -fuzz FuzzCompressedRead -fuzztime 10s ./internal/compress/
	$(GO) test -run '^$$' -fuzz FuzzDecodeLineagePayload -fuzztime 10s ./internal/runtime/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 10s ./internal/lang/
	$(GO) test -run '^$$' -fuzz FuzzRewrite -fuzztime 10s ./internal/hops/
	$(GO) test -run '^$$' -fuzz FuzzWorkerHandle -fuzztime 10s ./internal/fed/

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
