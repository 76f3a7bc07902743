package instructions

import (
	"fmt"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
)

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
