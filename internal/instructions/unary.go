package instructions

import (
	"errors"
	"fmt"
	"math"

	"github.com/systemds/systemds-go/internal/dist"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
)

// UnaryInst applies an element-wise unary operation to a matrix or scalar.
type UnaryInst struct {
	base
	plan
	In Operand
}

// NewUnary creates a unary instruction.
func NewUnary(op string, out string, in Operand) *UnaryInst {
	inst := &UnaryInst{plan: unplanned, In: in}
	inst.base = newBase(op, []string{out}, "", in)
	return inst
}

// Execute implements runtime.Instruction.
func (i *UnaryInst) Execute(ctx *runtime.Context) error {
	op, ok := matrix.UnaryOpFromString(i.opcode)
	if !ok {
		return fmt.Errorf("instructions: unknown unary op %q", i.opcode)
	}
	d, err := i.In.Resolve(ctx)
	if err != nil {
		return err
	}
	switch v := d.(type) {
	case *runtime.Scalar:
		x, err := v.Number()
		if err != nil {
			return fmt.Errorf("instructions: %s: %w", i.opcode, err)
		}
		ctx.Set(i.outs[0], scalarResult(op.Apply(x), op.Boolean()))
		return nil
	case runtime.MatrixData:
		return runCell(ctx, i.plan, i.opcode, i.outs[0], matrix.UnaryProgram(op), i.ins)
	default:
		return fmt.Errorf("instructions: unary %s unsupported on %s", i.opcode, d.DataType())
	}
}

// aggKinds lists full aggregates that produce scalars.
var scalarAggs = map[string]bool{
	"sum": true, "mean": true, "min": true, "max": true, "var": true, "sd": true,
	"trace": true, "nrow": true, "ncol": true, "length": true, "median": true, "sumsq": true,
}

// vectorAggs lists row/column aggregates that produce vectors.
var vectorAggs = map[string]bool{
	"colSums": true, "colMeans": true, "colMaxs": true, "colMins": true, "colVars": true, "colSds": true,
	"rowSums": true, "rowMeans": true, "rowMaxs": true, "rowMins": true, "rowIndexMax": true,
	"cumsum": true,
}

// AggInst computes full, row-wise or column-wise aggregates.
type AggInst struct {
	base
	plan
	In Operand
}

// NewAgg creates an aggregation instruction.
func NewAgg(op string, out string, in Operand) *AggInst {
	inst := &AggInst{plan: unplanned, In: in}
	inst.base = newBase(op, []string{out}, "", in)
	return inst
}

// Execute implements runtime.Instruction.
func (i *AggInst) Execute(ctx *runtime.Context) error {
	d, err := i.In.Resolve(ctx)
	if err != nil {
		return err
	}
	// metadata-only aggregates avoid acquiring (or collecting) the data
	if rows, cols, ok := matrixDims(d); ok {
		switch i.opcode {
		case "nrow":
			ctx.Set(i.outs[0], runtime.NewInt(rows))
			return nil
		case "ncol":
			ctx.Set(i.outs[0], runtime.NewInt(cols))
			return nil
		case "length":
			ctx.Set(i.outs[0], runtime.NewInt(rows*cols))
			return nil
		}
	}
	if co, ok := resolveCompressed(d); ok {
		if handled, err := i.tryCompressed(ctx, co); handled {
			return err
		}
	}
	if err := i.tryDistributed(ctx, d); err == nil || err != errNotDist {
		return err
	}
	if fo, ok := d.(*runtime.FederatedObject); ok {
		return i.executeFederated(ctx, fo)
	}
	if fr, ok := d.(*runtime.FrameObject); ok {
		switch i.opcode {
		case "nrow":
			ctx.Set(i.outs[0], runtime.NewInt(int64(fr.Frame.NumRows())))
			return nil
		case "ncol":
			ctx.Set(i.outs[0], runtime.NewInt(int64(fr.Frame.NumCols())))
			return nil
		}
		return fmt.Errorf("instructions: aggregate %s unsupported on frames", i.opcode)
	}
	if sc, ok := d.(*runtime.Scalar); ok {
		switch i.opcode {
		case "nrow", "ncol", "length":
			ctx.Set(i.outs[0], runtime.NewInt(1))
		case "sum", "mean", "min", "max":
			v, err := sc.Number()
			if err != nil {
				return fmt.Errorf("instructions: %s: %w", i.opcode, err)
			}
			ctx.Set(i.outs[0], runtime.NewDouble(v))
		default:
			return fmt.Errorf("instructions: aggregate %s unsupported on scalars", i.opcode)
		}
		return nil
	}
	blk, err := i.In.MatrixBlockFor(ctx, i.opcode)
	if err != nil {
		return err
	}
	switch i.opcode {
	case "sum":
		ctx.Set(i.outs[0], runtime.NewDouble(matrix.Sum(blk, ctx.Config.Threads())))
	case "sumsq":
		ctx.Set(i.outs[0], runtime.NewDouble(matrix.SumSq(blk, ctx.Config.Threads())))
	case "mean":
		ctx.Set(i.outs[0], runtime.NewDouble(matrix.Mean(blk, ctx.Config.Threads())))
	case "min":
		ctx.Set(i.outs[0], runtime.NewDouble(matrix.Min(blk, ctx.Config.Threads())))
	case "max":
		ctx.Set(i.outs[0], runtime.NewDouble(matrix.Max(blk, ctx.Config.Threads())))
	case "var":
		ctx.Set(i.outs[0], runtime.NewDouble(matrix.Variance(blk)))
	case "sd":
		ctx.Set(i.outs[0], runtime.NewDouble(math.Sqrt(matrix.Variance(blk))))
	case "trace":
		ctx.Set(i.outs[0], runtime.NewDouble(matrix.Trace(blk)))
	case "median":
		ctx.Set(i.outs[0], runtime.NewDouble(matrix.Median(blk)))
	case "colSums":
		ctx.SetMatrix(i.outs[0], matrix.ColSums(blk, ctx.Config.Threads()))
	case "colMeans":
		ctx.SetMatrix(i.outs[0], matrix.ColMeans(blk, ctx.Config.Threads()))
	case "colMaxs":
		ctx.SetMatrix(i.outs[0], matrix.ColMaxs(blk))
	case "colMins":
		ctx.SetMatrix(i.outs[0], matrix.ColMins(blk))
	case "colVars":
		ctx.SetMatrix(i.outs[0], matrix.ColVars(blk))
	case "colSds":
		ctx.SetMatrix(i.outs[0], matrix.ColSds(blk))
	case "rowSums":
		ctx.SetMatrix(i.outs[0], matrix.RowSums(blk, ctx.Config.Threads()))
	case "rowMeans":
		ctx.SetMatrix(i.outs[0], matrix.RowMeans(blk, ctx.Config.Threads()))
	case "rowMaxs":
		ctx.SetMatrix(i.outs[0], matrix.RowMaxs(blk))
	case "rowMins":
		ctx.SetMatrix(i.outs[0], matrix.RowMins(blk))
	case "rowIndexMax":
		ctx.SetMatrix(i.outs[0], matrix.RowIndexMax(blk))
	case "cumsum":
		ctx.SetMatrix(i.outs[0], matrix.CumSumCols(blk))
	case "nrow":
		ctx.Set(i.outs[0], runtime.NewInt(int64(blk.Rows())))
	case "ncol":
		ctx.Set(i.outs[0], runtime.NewInt(int64(blk.Cols())))
	case "length":
		ctx.Set(i.outs[0], runtime.NewInt(int64(blk.Rows()*blk.Cols())))
	default:
		return fmt.Errorf("instructions: unknown aggregate %q", i.opcode)
	}
	return nil
}

// tryCompressed executes supported aggregates directly on the compressed
// representation: sums and extrema reduce over the value dictionaries
// weighted by their occurrence counts, never touching cell images. It
// reports whether it handled the aggregate; unsupported aggregates fall
// through (and decompress transparently via the local kernels).
func (i *AggInst) tryCompressed(ctx *runtime.Context, co *runtime.CompressedMatrixObject) (bool, error) {
	cm, err := co.Compressed()
	if err != nil {
		return true, err
	}
	threads := ctx.Config.Threads()
	rows, cols := cm.Rows(), cm.Cols()
	switch i.opcode {
	case "sum":
		ctx.Set(i.outs[0], runtime.NewDouble(cm.Sum()))
	case "sumsq":
		ctx.Set(i.outs[0], runtime.NewDouble(cm.SumSq()))
	case "mean":
		ctx.Set(i.outs[0], runtime.NewDouble(cm.Mean()))
	case "min":
		ctx.Set(i.outs[0], runtime.NewDouble(cm.Min()))
	case "max":
		ctx.Set(i.outs[0], runtime.NewDouble(cm.Max()))
	case "colSums":
		ctx.SetMatrix(i.outs[0], cm.ColSums())
	case "colMeans":
		ctx.SetMatrix(i.outs[0], matrix.ScalarOp(cm.ColSums(), float64(rows), matrix.OpDiv, false, threads))
	case "rowSums":
		ctx.SetMatrix(i.outs[0], cm.RowSums(threads))
	case "rowMeans":
		ctx.SetMatrix(i.outs[0], matrix.ScalarOp(cm.RowSums(threads), float64(cols), matrix.OpDiv, false, threads))
	default:
		return false, nil
	}
	ctx.Count(func(s *runtime.RunStats) { s.CompressStats.CompressedOps++ })
	return true, nil
}

// errNotDist signals that an aggregate is not handled by the blocked
// backend and should fall through to the local kernels.
var errNotDist = errors.New("instructions: aggregate not distributed")

// tryDistributed executes supported aggregates on the blocked backend:
// full aggregates combine per-block partials into a scalar, row/column
// aggregates stay blocked. Unsupported aggregates (var, median, cumsum, ...)
// return errNotDist and fall back to the local kernels, collecting lazily.
func (i *AggInst) tryDistributed(ctx *runtime.Context, d runtime.Data) error {
	switch d.(type) {
	case *runtime.MatrixObject, *runtime.BlockedMatrixObject:
	default:
		return errNotDist
	}
	if !useDist(ctx, i.ExecType, d) {
		return errNotDist
	}
	switch i.opcode {
	case "sum", "sumsq", "mean", "min", "max":
		bm, err := resolveBlockedData(ctx, d, i.In)
		if err != nil {
			return err
		}
		v, err := dist.FullAgg(bm, i.opcode, ctx.Config.Threads())
		if err != nil {
			return err
		}
		ctx.Count(func(s *runtime.RunStats) { s.DistStats.BlockedOps++ })
		ctx.RecordPlan(i.opcode, "dist", i.EstBytes, 64)
		ctx.Set(i.outs[0], runtime.NewDouble(v))
		return nil
	case "rowSums", "rowMeans", "rowMaxs", "rowMins":
		bm, err := resolveBlockedData(ctx, d, i.In)
		if err != nil {
			return err
		}
		res, err := dist.RowAgg(bm, i.opcode, ctx.Config.Threads())
		if err != nil {
			return err
		}
		return bindBlockedResult(ctx, i.outs[0], res, i.BlockedOut, i.opcode, "dist", i.EstBytes)
	case "colSums", "colMeans", "colMaxs", "colMins":
		bm, err := resolveBlockedData(ctx, d, i.In)
		if err != nil {
			return err
		}
		res, err := dist.ColAgg(bm, i.opcode, ctx.Config.Threads())
		if err != nil {
			return err
		}
		return bindBlockedResult(ctx, i.outs[0], res, i.BlockedOut, i.opcode, "dist", i.EstBytes)
	}
	return errNotDist
}

// executeFederated pushes supported aggregates to federated workers.
func (i *AggInst) executeFederated(ctx *runtime.Context, fo *runtime.FederatedObject) error {
	switch i.opcode {
	case "sum":
		s, err := fo.Fed.Sum()
		if err != nil {
			return err
		}
		ctx.Set(i.outs[0], runtime.NewDouble(s))
	case "mean":
		s, err := fo.Fed.Sum()
		if err != nil {
			return err
		}
		ctx.Set(i.outs[0], runtime.NewDouble(s/float64(fo.Fed.Rows*fo.Fed.Cols)))
	case "colSums":
		cs, err := fo.Fed.ColSums()
		if err != nil {
			return err
		}
		ctx.SetMatrix(i.outs[0], cs)
	case "colMeans":
		cs, err := fo.Fed.ColSums()
		if err != nil {
			return err
		}
		ctx.SetMatrix(i.outs[0], matrix.ScalarOp(cs, float64(fo.Fed.Rows), matrix.OpDiv, false, ctx.Config.Threads()))
	default:
		return fmt.Errorf("instructions: aggregate %s not supported on federated matrices", i.opcode)
	}
	return nil
}
