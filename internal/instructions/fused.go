package instructions

import (
	"fmt"
	"slices"

	"github.com/systemds/systemds-go/internal/dist"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
)

// cellArgs resolves the operands of a fused cellwise pipeline: scalars by
// value, everything else as a local block fetched for opcode (a compressed
// operand decompresses, counted against it).
func cellArgs(ctx *runtime.Context, ops []Operand, opcode string) ([]matrix.CellArg, error) {
	args := make([]matrix.CellArg, len(ops))
	for k, op := range ops {
		d, err := op.Resolve(ctx)
		if err != nil {
			return nil, err
		}
		if s, ok := d.(*runtime.Scalar); ok {
			if args[k].Scalar, err = s.Number(); err != nil {
				return nil, fmt.Errorf("instructions: %s: %w", opcode, err)
			}
		} else if args[k].Mat, err = runtime.LocalBlockOf(ctx, op.Name, d, opcode); err != nil {
			return nil, err
		}
	}
	return args, nil
}

// runCell is the one dispatch of the cellwise instructions — BinaryInst and
// UnaryInst over a matrix, FusedCellInst: it resolves the operands once and
// runs prog over them into out on the first of three rungs that applies.
//
//  1. Compressed: the only matrix operand is compressed, and the program runs
//     over its dictionaries (mapCompressed).
//  2. Blocked: useDist holds over the operands of the output's shape. Those
//     are partitioned (resolveBlockedData, memoized), a row or column vector
//     is read locally and sliced per block, scalars are read by value, and
//     dist.Cell runs the program block by block. A blocked vector alone never
//     drags a local matrix into a partition.
//  3. Local: matrix.FusedCell, its output array from the engine's free list.
func runCell(ctx *runtime.Context, p plan, opcode, out string, prog *matrix.CellProgram, ops []Operand) error {
	var buf [8]runtime.Data // the resolved operands, on the stack up to 8
	data := buf[:0]
	args := make([]matrix.CellArg, len(ops))
	var rows, cols int64 // the output's shape
	mats, last := 0, 0   // the matrix operands: their count, the last one
	for k, o := range ops {
		d, err := o.Resolve(ctx)
		if err != nil {
			return err
		}
		data = append(data, d)
		if s, ok := d.(*runtime.Scalar); ok {
			if args[k].Scalar, err = s.Number(); err != nil {
				return fmt.Errorf("instructions: %s: %w", opcode, err)
			}
			continue
		}
		mats, last = mats+1, k
		if r, c, ok := matrixDims(d); ok {
			rows, cols = max(rows, r), max(cols, c)
		}
	}
	if co, ok := resolveCompressed(data[last]); ok && mats == 1 {
		return mapCompressed(ctx, co, out, prog, args, last)
	}
	var bargs []dist.CellArg // the blocked rung's operands
	for _, d := range data {
		if bargs == nil && hasShape(d, rows, cols) && useDist(ctx, p.ExecType, d) {
			bargs = make([]dist.CellArg, len(ops))
		}
	}
	for k, o := range ops {
		var err error
		switch {
		case !isMatrix(data[k]):
		case bargs != nil && hasShape(data[k], rows, cols):
			if j := slices.Index(data[:k], data[k]); j >= 0 {
				bargs[k].Blocked = bargs[j].Blocked // X + X partitions once
			} else {
				bargs[k].Blocked, err = resolveBlockedData(ctx, data[k], o)
			}
		default:
			args[k].Mat, err = runtime.LocalBlockOf(ctx, o.Name, data[k], opcode)
		}
		if err != nil {
			return err
		}
	}
	if bargs != nil {
		for k := range bargs {
			bargs[k].CellArg = args[k]
		}
		res, err := dist.Cell(prog, bargs, ctx.Config.Threads())
		if err != nil {
			return fmt.Errorf("instructions: %s: %w", opcode, err)
		}
		return bindBlockedResult(ctx, out, res, p.BlockedOut, opcode, "dist", p.EstBytes)
	}
	res, err := matrix.FusedCell(prog, args, ctx.Config.Threads(), ctx.Recycler)
	if err != nil {
		return fmt.Errorf("instructions: %s: %w", opcode, err)
	}
	ctx.SetMatrix(out, res)
	return nil
}

// isMatrix reports whether a cell program operand is not a scalar.
func isMatrix(d runtime.Data) bool {
	_, ok := d.(*runtime.Scalar)
	return !ok
}

// hasShape reports whether d is a matrix of exactly rows x cols.
func hasShape(d runtime.Data, rows, cols int64) bool {
	r, c, ok := matrixDims(d)
	return ok && r == rows && c == cols
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
	Agg  *matrix.Aggregate // a Fusable row of the aggregate table
	Prog *matrix.CellProgram
	Args []Operand
}

// NewFusedAgg creates a fused aggregate instruction.
func NewFusedAgg(agg *matrix.Aggregate, out string, prog *matrix.CellProgram, args []Operand) *FusedAggInst {
	inst := &FusedAggInst{Agg: agg, Prog: prog, Args: args}
	inst.base = newBase("fagg_"+agg.Name, []string{out}, prog.Signature(), args...)
	return inst
}

// Execute implements runtime.Instruction.
func (i *FusedAggInst) Execute(ctx *runtime.Context) error {
	cargs, err := cellArgs(ctx, i.Args, i.opcode)
	if err != nil {
		return err
	}
	res, err := matrix.FusedAgg(i.Prog, i.Agg, cargs, ctx.Config.Threads())
	if err != nil {
		return fmt.Errorf("instructions: %s: %w", i.opcode, err)
	}
	ctx.Count(func(s *runtime.RunStats) { s.FusedStats.FusedAggOps++ })
	if i.Agg.Axis == matrix.AggFull {
		ctx.Set(i.outs[0], runtime.NewDouble(res.Get(0, 0)))
	} else {
		ctx.SetMatrix(i.outs[0], res)
	}
	return nil
}

// FusedCellInst evaluates a fused cellwise chain into one output (runCell).
// Its opcode is the root operator's own (so spans and heavy-hitter tables
// keep filing it with the cellwise operators); the program signature is part
// of the lineage data, exactly as for FusedAggInst.
type FusedCellInst struct {
	base
	plan
	Prog *matrix.CellProgram
	Args []Operand
}

// NewFusedCell creates a fused cellwise instruction under the root operator's
// opcode.
func NewFusedCell(opcode, out string, prog *matrix.CellProgram, args []Operand) *FusedCellInst {
	inst := &FusedCellInst{plan: unplanned, Prog: prog, Args: args}
	inst.base = newBase(opcode, []string{out}, prog.Signature(), args...)
	return inst
}

// Execute implements runtime.Instruction.
func (i *FusedCellInst) Execute(ctx *runtime.Context) error {
	ctx.Count(func(s *runtime.RunStats) { s.FusedStats.FusedCellOps++ })
	return runCell(ctx, i.plan, i.opcode, i.outs[0], i.Prog, i.Args)
}
