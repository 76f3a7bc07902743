package instructions

import (
	"fmt"

	"github.com/systemds/systemds-go/internal/hops"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
)

// MMChainInst computes the fused matrix-multiply chain t(X) %*% (X %*% v)
// (opcode "mmchain"), optionally weighted as t(X) %*% (w * (X %*% v)), in a
// single pass over X without materializing the transpose or the m x 1
// intermediate.
type MMChainInst struct {
	base
	X, V, W  Operand
	Weighted bool
}

// NewMMChain creates a fused mmchain instruction; pass weighted=false and a
// zero W operand for the unweighted chain.
func NewMMChain(out string, x, v, w Operand, weighted bool) *MMChainInst {
	inst := &MMChainInst{X: x, V: v, W: w, Weighted: weighted}
	if weighted {
		inst.base = newBase("mmchain", []string{out}, "xtwxv", x, v, w)
	} else {
		inst.base = newBase("mmchain", []string{out}, "xtxv", x, v)
	}
	return inst
}

// Execute implements runtime.Instruction.
func (i *MMChainInst) Execute(ctx *runtime.Context) error {
	vb, err := i.V.MatrixBlockFor(ctx, i.opcode)
	if err != nil {
		return err
	}
	var wb *matrix.MatrixBlock
	if i.Weighted {
		if wb, err = i.W.MatrixBlockFor(ctx, i.opcode); err != nil {
			return err
		}
	}
	// the chain over a compressed X runs both passes directly on the column
	// groups — the hot gradient step of iterative algorithms never
	// decompresses
	if xd, err := i.X.Resolve(ctx); err == nil {
		if co, ok := resolveCompressed(xd); ok {
			cm, err := co.Compressed()
			if err != nil {
				return err
			}
			res, err := cm.MMChain(vb, wb, ctx.Config.Threads())
			if err != nil {
				return fmt.Errorf("instructions: compressed mmchain: %w", err)
			}
			ctx.CountCompressedOp()
			ctx.CountMMChain()
			ctx.SetMatrix(i.outs[0], res)
			return nil
		}
	}
	xb, err := i.X.MatrixBlockFor(ctx, i.opcode)
	if err != nil {
		return err
	}
	res, err := matrix.MMChain(xb, vb, wb, ctx.Config.Threads())
	if err != nil {
		return fmt.Errorf("instructions: mmchain: %w", err)
	}
	ctx.CountMMChain()
	ctx.SetMatrix(i.outs[0], res)
	return nil
}

// XtYInst computes t(X) %*% Y (opcode "mmchain", lineage data "xty") without
// materializing the transpose, dispatching on X's representation: federated X
// pushes the product to the sites, compressed X runs the vector-matrix /
// transposed matrix-matrix kernels on the column groups, and every other X
// takes one pass of matrix.TransposeMultiply over the local block.
type XtYInst struct {
	base
	X, Y Operand
	// EstBytes is the planner's estimated output size in bytes (-1 unknown),
	// recorded next to the actual bytes when the compressed kernels run.
	EstBytes int64
}

// NewXtY creates a fused t(X) %*% Y instruction.
func NewXtY(out string, x, y Operand) *XtYInst {
	inst := &XtYInst{X: x, Y: y, EstBytes: -1}
	inst.base = newBase("mmchain", []string{out}, hops.OpXtY, x, y)
	return inst
}

// Execute implements runtime.Instruction.
func (i *XtYInst) Execute(ctx *runtime.Context) error {
	res, err := i.multiply(ctx)
	if err != nil {
		return fmt.Errorf("instructions: xty: %w", err)
	}
	ctx.CountMMChain()
	ctx.SetMatrix(i.outs[0], res)
	return nil
}

func (i *XtYInst) multiply(ctx *runtime.Context) (*matrix.MatrixBlock, error) {
	xd, err := i.X.Resolve(ctx)
	if err != nil {
		return nil, err
	}
	if fo, ok := xd.(*runtime.FederatedObject); ok {
		return xtyFederated(ctx, fo, i.Y, i.opcode)
	}
	yb, err := i.Y.MatrixBlockFor(ctx, i.opcode)
	if err != nil {
		return nil, err
	}
	threads := ctx.Config.Threads()
	if co, ok := resolveCompressed(xd); ok {
		cm, err := co.Compressed()
		if err != nil {
			return nil, err
		}
		res, kernel, err := xtyCompressed(cm, yb, threads)
		if err != nil {
			return nil, err
		}
		ctx.CountCompressedOp()
		ctx.RecordPlan(i.opcode, kernel+":"+cm.EncodingSummary(), i.EstBytes, res.InMemorySize())
		return res, nil
	}
	xb, err := i.X.MatrixBlockFor(ctx, i.opcode)
	if err != nil {
		return nil, err
	}
	return matrix.TransposeMultiply(xb, yb, threads)
}

// FusedAggInst evaluates a fused cellwise-aggregate pipeline (opcode
// "fagg_<agg>"): the cell program runs once per cell and streams directly
// into the aggregate, with no full-size intermediate. The program signature
// is part of the lineage data, so distinct pipelines over the same inputs
// never share a lineage entry.
type FusedAggInst struct {
	base
	Agg  matrix.AggKind
	Prog *matrix.CellProgram
	Args []Operand
}

// NewFusedAgg creates a fused aggregate instruction.
func NewFusedAgg(agg matrix.AggKind, out string, prog *matrix.CellProgram, args []Operand) *FusedAggInst {
	inst := &FusedAggInst{Agg: agg, Prog: prog, Args: args}
	inst.base = newBase("fagg_"+agg.String(), []string{out}, prog.Signature(), args...)
	return inst
}

// Execute implements runtime.Instruction.
func (i *FusedAggInst) Execute(ctx *runtime.Context) error {
	cargs := make([]matrix.CellArg, len(i.Args))
	for k, op := range i.Args {
		d, err := op.Resolve(ctx)
		if err != nil {
			return err
		}
		if s, ok := d.(*runtime.Scalar); ok {
			cargs[k] = matrix.CellArg{Scalar: s.Float64()}
			continue
		}
		blk, err := op.MatrixBlockFor(ctx, i.opcode)
		if err != nil {
			return err
		}
		cargs[k] = matrix.CellArg{Mat: blk}
	}
	res, err := matrix.FusedAgg(i.Prog, i.Agg, cargs, ctx.Config.Threads())
	if err != nil {
		return fmt.Errorf("instructions: %s: %w", i.opcode, err)
	}
	ctx.CountFusedAgg()
	switch i.Agg {
	case matrix.AggSum, matrix.AggMin, matrix.AggMax:
		ctx.Set(i.outs[0], runtime.NewDouble(res.Get(0, 0)))
	default:
		ctx.SetMatrix(i.outs[0], res)
	}
	return nil
}
