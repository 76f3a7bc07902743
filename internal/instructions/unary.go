package instructions

import (
	"fmt"

	"github.com/systemds/systemds-go/internal/dist"
	"github.com/systemds/systemds-go/internal/fed"
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

// AggInst computes an aggregate over one operand. NewAgg resolves the
// opcode's row of the aggregate table once; Execute takes the first rung of
// the ladder the row can run (DESIGN.md, "The aggregate table"):
//
//  1. Metadata: a row with a Dims answer reads the dimensions of a matrix in
//     any representation, a frame or a scalar (1 x 1), never its cells.
//  2. Compressed: the kernels on the column groups that the row's reduction
//     and axis have (compress.CompressedMatrix.Aggregate).
//  3. Blocked: a row with a reduction, when useDist holds over a local or
//     blocked operand: dist.Aggregate on the partitioned operand; a row or
//     column aggregate stays blocked or is collected (bindBlockedResult).
//  4. Federated: a sum over the whole matrix or its columns, pushed to the
//     workers; any other row is an error.
//  5. Scalar: a full reduction folds the number as a 1 x 1 matrix's cell.
//  6. Local: the row on the operand's local block (a compressed operand
//     decompresses, counted).
//
// Every rung finishes a mean with the row's Finish.
type AggInst struct {
	base
	plan
	In  Operand
	agg *matrix.Aggregate // nil for an opcode the table does not have
}

// NewAgg creates an aggregation instruction.
func NewAgg(op string, out string, in Operand) *AggInst {
	agg, _ := matrix.AggregateOf(op)
	inst := &AggInst{plan: unplanned, In: in, agg: agg}
	inst.base = newBase(op, []string{out}, "", in)
	return inst
}

// Execute implements runtime.Instruction.
func (i *AggInst) Execute(ctx *runtime.Context) error {
	agg := i.agg
	if agg == nil {
		return fmt.Errorf("instructions: unknown aggregate %q", i.opcode)
	}
	d, err := i.In.Resolve(ctx)
	if err != nil {
		return err
	}
	if agg.Dims != nil {
		if rows, cols, ok := dimsOf(d); ok {
			ctx.Set(i.outs[0], runtime.NewInt(agg.Dims(rows, cols)))
			return nil
		}
	}
	threads := ctx.Config.Threads()
	if co, ok := resolveCompressed(d); ok {
		cm, err := co.Compressed()
		if err != nil {
			return err
		}
		if v, vec, ok := cm.Aggregate(agg, threads); ok {
			ctx.Count(func(s *runtime.RunStats) { s.CompressStats.CompressedOps++ })
			return i.bind(ctx, v, vec)
		}
	}
	switch v := d.(type) {
	case *runtime.MatrixObject, *runtime.BlockedMatrixObject:
		if agg.Red != 0 && useDist(ctx, i.ExecType, d) {
			return i.blocked(ctx, d)
		}
	case *runtime.FederatedObject:
		return i.federated(ctx, v.Fed)
	case *runtime.Scalar:
		if agg.Red == 0 || agg.Axis != matrix.AggFull {
			return fmt.Errorf("instructions: aggregate %s unsupported on scalars", i.opcode)
		}
		x, err := v.Number()
		if err != nil {
			return fmt.Errorf("instructions: %s: %w", i.opcode, err)
		}
		return i.bind(ctx, agg.Finish(agg.Red.Fold(agg.Red.Initial(), []float64{x}), nil, 1, 1), nil)
	case *runtime.FrameObject:
		return fmt.Errorf("instructions: aggregate %s unsupported on frames", i.opcode)
	}
	blk, err := i.In.MatrixBlockFor(ctx, i.opcode)
	if err != nil {
		return err
	}
	v, vec := agg.Apply(blk, threads)
	return i.bind(ctx, v, vec)
}

// bind binds an in-process result: a full aggregate's value, or vec.
func (i *AggInst) bind(ctx *runtime.Context, v float64, vec *matrix.MatrixBlock) error {
	if vec == nil {
		ctx.Set(i.outs[0], runtime.NewDouble(v))
	} else {
		ctx.SetMatrix(i.outs[0], vec)
	}
	return nil
}

// blocked runs the row on the blocked backend: a full aggregate's value is
// bound locally, a vector goes through bindBlockedResult.
func (i *AggInst) blocked(ctx *runtime.Context, d runtime.Data) error {
	bm, err := resolveBlockedData(ctx, d, i.In)
	if err != nil {
		return err
	}
	v, res, err := dist.Aggregate(bm, i.agg, ctx.Config.Threads())
	if err != nil {
		return err
	}
	if res != nil {
		return bindBlockedResult(ctx, i.outs[0], res, i.BlockedOut, i.opcode, "dist", i.EstBytes)
	}
	ctx.Count(func(s *runtime.RunStats) { s.DistStats.BlockedOps++ })
	ctx.RecordPlan(i.opcode, "dist", i.EstBytes, 64)
	return i.bind(ctx, v, nil)
}

// federated pushes a sum over the whole matrix or its columns to the workers.
func (i *AggInst) federated(ctx *runtime.Context, fm *fed.FederatedMatrix) error {
	agg := i.agg
	var v float64
	var vec *matrix.MatrixBlock
	var err error
	switch {
	case agg.Red == matrix.ReduceSum && agg.Axis == matrix.AggFull:
		v, err = fm.Sum()
	case agg.Red == matrix.ReduceSum && agg.Axis == matrix.AggCol:
		vec, err = fm.ColSums()
	default:
		return fmt.Errorf("instructions: aggregate %s not supported on federated matrices", i.opcode)
	}
	if err != nil {
		return err
	}
	return i.bind(ctx, agg.Finish(v, vec, int(fm.Rows), int(fm.Cols)), vec)
}

// dimsOf returns the dimensions of a matrix in any representation, a frame
// or a scalar (1 x 1) without touching their data.
func dimsOf(d runtime.Data) (rows, cols int64, ok bool) {
	switch v := d.(type) {
	case *runtime.FrameObject:
		return int64(v.Frame.NumRows()), int64(v.Frame.NumCols()), true
	case *runtime.Scalar:
		return 1, 1, true
	}
	return matrixDims(d)
}
