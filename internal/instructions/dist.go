package instructions

import (
	"github.com/systemds/systemds-go/internal/dist"
	"github.com/systemds/systemds-go/internal/runtime"
	"github.com/systemds/systemds-go/internal/types"
)

// useDist reports whether an instruction should execute on the blocked
// backend: either the compiler selected ExecDist, or an operand already lives
// in blocked representation (so collecting it just to re-partition would pay
// the repartition cost the blocked flow exists to avoid).
func useDist(ctx *runtime.Context, et types.ExecType, data ...runtime.Data) bool {
	if !ctx.Config.DistEnabled {
		return false
	}
	if et == types.ExecDist {
		return true
	}
	for _, d := range data {
		if _, ok := d.(*runtime.BlockedMatrixObject); ok {
			return true
		}
	}
	return false
}

// resolveBlockedData returns the blocked form of an already-resolved operand:
// blocked objects are used as-is (restored from spill if evicted); local
// matrix objects are partitioned once and the partitioned form is memoized on
// the object — since rebinding a variable always creates a new object, the
// memo is keyed by the symbol-table entry's version, and a named input
// consumed by distributed operators in several DAGs partitions exactly once.
// A dense input with one column block partitions into views of its own array
// (dist.FromMatrixBlock), counted apart as a view partition.
func resolveBlockedData(ctx *runtime.Context, d runtime.Data, o Operand) (*dist.BlockedMatrix, error) {
	if bo, ok := d.(*runtime.BlockedMatrixObject); ok {
		return bo.Blocked()
	}
	bs := ctx.Config.DistBlocksize
	mo, isMO := d.(*runtime.MatrixObject)
	if isMO {
		if bm, ok := mo.CachedBlocked(bs); ok {
			return bm, nil
		}
	}
	blk, err := o.MatrixBlockFor(ctx, "partition")
	if err != nil {
		return nil, err
	}
	bm, err := dist.FromMatrixBlock(blk, bs)
	if err != nil {
		return nil, err
	}
	ctx.Count(func(s *runtime.RunStats) {
		s.DistStats.Partitions++
		if bm.View != nil {
			s.DistStats.ViewPartitions++
		}
	})
	if isMO {
		mo.StoreBlocked(bm, bs)
	}
	return bm, nil
}

// resolveBlockedPair resolves two operands into blocked form, partitioning at
// most once when both reference the same data object (e.g. X + X).
func resolveBlockedPair(ctx *runtime.Context, a, b Operand) (*dist.BlockedMatrix, *dist.BlockedMatrix, error) {
	da, err := a.Resolve(ctx)
	if err != nil {
		return nil, nil, err
	}
	db, err := b.Resolve(ctx)
	if err != nil {
		return nil, nil, err
	}
	ba, err := resolveBlockedData(ctx, da, a)
	if err != nil {
		return nil, nil, err
	}
	if da == db {
		return ba, ba, nil
	}
	bb, err := resolveBlockedData(ctx, db, b)
	if err != nil {
		return nil, nil, err
	}
	return ba, bb, nil
}

// bindBlockedResult binds the result of a blocked operator: as a first-class
// blocked object when the compiler marked the output as staying blocked, or
// eagerly collected into a local matrix when every consumer runs in CP. Every
// blocked operator records a plan entry (opcode, plan string, estimated vs
// actual output bytes), so estimated-vs-actual tracking covers the whole
// blocked instruction set, not just matmults.
func bindBlockedResult(ctx *runtime.Context, name string, bm *dist.BlockedMatrix, keepBlocked bool,
	op, plan string, estBytes int64) error {
	ctx.Count(func(s *runtime.RunStats) { s.DistStats.BlockedOps++ })
	ctx.RecordPlan(op, plan, estBytes, bm.InMemorySize())
	if keepBlocked {
		ctx.SetBlocked(name, bm)
		return nil
	}
	ctx.Count(func(s *runtime.RunStats) { s.DistStats.Collects++ })
	local, err := bm.ToMatrixBlock()
	if err != nil {
		return err
	}
	ctx.SetMatrix(name, local)
	return nil
}

// matrixDims returns the dimensions of a matrix-typed data object without
// touching (or collecting) the data.
func matrixDims(d runtime.Data) (rows, cols int64, ok bool) {
	md, ok := d.(runtime.MatrixData)
	if !ok {
		return 0, 0, false
	}
	dc := md.DataCharacteristics()
	return dc.Rows, dc.Cols, true
}
