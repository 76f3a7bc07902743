package runtime

import (
	"maps"
	"slices"
	"sync"
)

// DistStats is the distributed-backend part of RunStats: how often a local
// matrix was partitioned into blocked form, how often a blocked matrix was
// collected back into a local block, and how many operators executed on the
// blocked backend. A chain of N blocked operators should cost one partition
// and at most one collect, not N of each. ViewPartitions counts the
// partitions that cut a dense matrix into row-strip views of its array
// instead of copying it (dist.FromMatrixBlock); Partitions counts both kinds.
type DistStats struct {
	Partitions     int64
	ViewPartitions int64
	Collects       int64
	BlockedOps     int64
}

// FusedStats is the fused-operator part of RunStats: how many row chains
// (mmchain instructions carrying a program; the transpose-free t(X) %*% Y
// shares their opcode but fuses nothing and runs with fusion off too), fused
// cellwise-aggregate and fused cellwise-chain instructions executed.
type FusedStats struct {
	MMChainOps   int64
	FusedAggOps  int64
	FusedCellOps int64
}

// CompressStats is the compressed-linear-algebra part of RunStats: how many
// matrices were compressed (and how many the sample-based planner rejected),
// how many operators executed directly on the compressed representation, and
// how often an unsupported operator fell back to transparent decompression. An iterative workload on the compressed hot
// path should show compressions and compressed ops but zero decompressions.
type CompressStats struct {
	Compressions      int64
	Rejected          int64
	CompressedOps     int64
	Decompressions    int64
	BytesUncompressed int64
	BytesCompressed   int64
	// DecompressionsByOp attributes each fallback decompression to the opcode
	// (or runtime site label, e.g. "output") that triggered it, so a workload
	// that is NOT fully on the compressed path shows exactly which operators
	// forced materialization.
	DecompressionsByOp map[string]int64
}

// PlanRecord reports one executed physical-plan decision of the cost-based
// planner: the instruction opcode, the plan string chosen at compile time
// (e.g. "br", "bl", "gj" for matmult strategies), the compiler's estimated
// output bytes (-1 when the sizes were unknown at compile time) and the bytes
// the operator actually produced. The records let tests and users audit that
// the plan named by ExplainPlan is the plan that executed, and how far the
// estimates were off.
type PlanRecord struct {
	Op          string
	Plan        string
	EstBytes    int64
	ActualBytes int64
}

// planRecordCap bounds the plan records: they are an audit sample, not an
// event log, so iterative workloads executing thousands of distributed
// operators keep O(1)-bounded memory. Records past the cap are counted but
// not stored.
const planRecordCap = 4096

// RunStats is everything one run counts: the distributed-backend, fused-
// operator and compression counters and the executed plan records. A root
// context owns one; its child contexts (function scopes, parfor workers)
// count into it. Work is counted by the context that asked for it, never by
// the data object it was done on, so a value the reuse cache hands to a later
// run is collected or decompressed on that run's account.
type RunStats struct {
	DistStats     DistStats
	FusedStats    FusedStats
	CompressStats CompressStats
	// PlanStats records, per executed distributed operator, the physical plan
	// the compiler chose and its estimated vs actual output bytes. The
	// records are capped; PlanRecordsDropped counts those past the cap (so a
	// missing record is distinguishable from an operator that never ran).
	PlanStats          []PlanRecord
	PlanRecordsDropped int64
}

// runStats is the one lock around a context tree's RunStats.
type runStats struct {
	mu sync.Mutex
	s  RunStats
}

// Count applies update to the run's statistics under their lock.
func (ctx *Context) Count(update func(*RunStats)) {
	ctx.stats.mu.Lock()
	update(&ctx.stats.s)
	ctx.stats.mu.Unlock()
}

// RecordPlan records one executed physical-plan decision (opcode, plan
// string, compiler-estimated vs actual output bytes).
func (ctx *Context) RecordPlan(op, plan string, estBytes, actualBytes int64) {
	ctx.Count(func(s *RunStats) {
		if len(s.PlanStats) < planRecordCap {
			s.PlanStats = append(s.PlanStats, PlanRecord{Op: op, Plan: plan, EstBytes: estBytes, ActualBytes: actualBytes})
		} else {
			s.PlanRecordsDropped++
		}
	})
}

// Stats returns a copy of the run's statistics that later counting does not
// change.
func (ctx *Context) Stats() RunStats {
	ctx.stats.mu.Lock()
	defer ctx.stats.mu.Unlock()
	s := ctx.stats.s
	s.PlanStats = slices.Clone(s.PlanStats)
	s.CompressStats.DecompressionsByOp = maps.Clone(s.CompressStats.DecompressionsByOp)
	return s
}
