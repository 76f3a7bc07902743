package instructions

import (
	"fmt"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
)

// cellArgs resolves the operands of a fused cellwise pipeline: scalars by
// value, everything else as a local block fetched for opcode (a compressed
// operand decompresses, counted against it). With keepCompressed, a compressed
// operand whose fellow operands are all scalars is returned as co instead,
// its slot args[driver] left empty: the program can run over its dictionaries.
func cellArgs(ctx *runtime.Context, ops []Operand, opcode string, keepCompressed bool) (
	args []matrix.CellArg, co *runtime.CompressedMatrixObject, driver int, err error) {
	args = make([]matrix.CellArg, len(ops))
	mats := make([]int, 0, len(ops))
	for k, op := range ops {
		d, err := op.Resolve(ctx)
		if err != nil {
			return nil, nil, 0, err
		}
		if s, ok := d.(*runtime.Scalar); ok {
			args[k].Scalar = s.Float64()
			continue
		}
		mats = append(mats, k)
		if c, ok := resolveCompressed(d); ok && keepCompressed {
			co, driver = c, k
		}
	}
	if co != nil && len(mats) == 1 {
		return args, co, driver, nil
	}
	for _, k := range mats {
		if args[k].Mat, err = ops[k].MatrixBlockFor(ctx, opcode); err != nil {
			return nil, nil, 0, err
		}
	}
	return args, nil, 0, nil
}

// mapCompressed runs a cell program whose only matrix argument, args[driver],
// is the compressed matrix co as a dictionary-only update: every distinct
// value is rewritten once, the per-row encoding is shared.
func mapCompressed(ctx *runtime.Context, co *runtime.CompressedMatrixObject, out string,
	prog *matrix.CellProgram, args []matrix.CellArg, driver int) error {
	cm, err := co.Compressed()
	if err != nil {
		return err
	}
	fn, err := matrix.CellMap(prog, args, driver)
	if err != nil {
		return err
	}
	ctx.Count(func(s *runtime.RunStats) { s.CompressStats.CompressedOps++ })
	ctx.SetCompressed(out, cm.MapValues(fn, ctx.Config.Threads()))
	return nil
}

// FusedAggInst evaluates a fused cellwise-aggregate pipeline (opcode
// "fagg_<agg>"): the cell program runs row by row and streams directly into
// the aggregate, with no full-size intermediate. The program signature is
// part of the lineage data, so distinct pipelines over the same inputs never
// share a lineage entry.
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
	cargs, _, _, err := cellArgs(ctx, i.Args, i.opcode, false)
	if err != nil {
		return err
	}
	res, err := matrix.FusedAgg(i.Prog, i.Agg, cargs, ctx.Config.Threads())
	if err != nil {
		return fmt.Errorf("instructions: %s: %w", i.opcode, err)
	}
	ctx.Count(func(s *runtime.RunStats) { s.FusedStats.FusedAggOps++ })
	switch i.Agg {
	case matrix.AggSum, matrix.AggMin, matrix.AggMax:
		ctx.Set(i.outs[0], runtime.NewDouble(res.Get(0, 0)))
	default:
		ctx.SetMatrix(i.outs[0], res)
	}
	return nil
}

// FusedCellInst evaluates a fused cellwise chain into one output block. Its
// opcode is the root operator's own (so spans and heavy-hitter tables keep
// filing it with the cellwise operators); the program signature is part of
// the lineage data, exactly as for FusedAggInst.
type FusedCellInst struct {
	base
	Prog *matrix.CellProgram
	Args []Operand
}

// NewFusedCell creates a fused cellwise instruction under the root operator's
// opcode.
func NewFusedCell(opcode, out string, prog *matrix.CellProgram, args []Operand) *FusedCellInst {
	inst := &FusedCellInst{Prog: prog, Args: args}
	inst.base = newBase(opcode, []string{out}, prog.Signature(), args...)
	return inst
}

// Execute implements runtime.Instruction.
func (i *FusedCellInst) Execute(ctx *runtime.Context) error {
	cargs, co, driver, err := cellArgs(ctx, i.Args, i.opcode, true)
	if err != nil {
		return err
	}
	ctx.Count(func(s *runtime.RunStats) { s.FusedStats.FusedCellOps++ })
	if co != nil {
		return mapCompressed(ctx, co, i.outs[0], i.Prog, cargs, driver)
	}
	res, err := matrix.FusedCell(i.Prog, cargs, ctx.Config.Threads(), ctx.Recycler)
	if err != nil {
		return fmt.Errorf("instructions: %s: %w", i.opcode, err)
	}
	ctx.SetMatrix(i.outs[0], res)
	return nil
}
