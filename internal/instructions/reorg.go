package instructions

import (
	"fmt"

	"github.com/systemds/systemds-go/internal/dist"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
)

// ReorgInst runs a row of the reorg table over one operand (t, diag, rev)
// or n (cbind, rbind), under the row's opcode. Execute takes the first rung
// of the ladder the row can run (DESIGN.md, "The reorg table"):
//
//  1. View: a row with View (t) binds a lazy view of a compressed or
//     federated operand, and the operand's source when it is such a view.
//  2. Blocked: a row with a blocked kernel, when every operand is a local or
//     blocked matrix and useDist holds: dist.Transpose or dist.Bind along the
//     row's axis, kept blocked or collected (bindBlockedResult).
//  3. Local: the row's kernel on the operands' local blocks (a compressed
//     operand decompresses, counted).
type ReorgInst struct {
	base
	plan
	row *matrix.Reorg
}

// NewReorg creates the instruction of a row of the reorg table.
func NewReorg(row *matrix.Reorg, out string, ins ...Operand) *ReorgInst {
	inst := &ReorgInst{plan: unplanned, row: row}
	inst.base = newBase(row.Opcode, []string{out}, "", ins...)
	return inst
}

// Execute implements runtime.Instruction.
func (i *ReorgInst) Execute(ctx *runtime.Context) error {
	row := i.row
	if len(i.ins) == 0 || (row.Axis == matrix.NoBind && len(i.ins) != 1) {
		return fmt.Errorf("instructions: reorg %q over %d operands", i.opcode, len(i.ins))
	}
	datas := make([]runtime.Data, len(i.ins))
	blocked := row.Blocked
	for k, o := range i.ins {
		d, err := o.Resolve(ctx)
		if err != nil {
			return err
		}
		switch d.(type) {
		case *runtime.MatrixObject, *runtime.BlockedMatrixObject:
		default:
			blocked = false
		}
		datas[k] = d
	}
	if row.View {
		if view, ok := transposeView(ctx, datas[0]); ok {
			ctx.Set(i.outs[0], view)
			return nil
		}
	}
	if blocked && useDist(ctx, i.ExecType, datas...) {
		parts := make([]*dist.BlockedMatrix, len(datas))
		for k, d := range datas {
			bm, err := resolveBlockedData(ctx, d, i.ins[k])
			if err != nil {
				return err
			}
			parts[k] = bm
		}
		var res *dist.BlockedMatrix
		var err error
		if row.Axis == matrix.NoBind {
			res, err = dist.Transpose(parts[0], ctx.Config.Threads())
		} else {
			res, err = dist.Bind(row, parts, ctx.Config.Threads())
		}
		if err != nil {
			return err
		}
		return bindBlockedResult(ctx, i.outs[0], res, i.BlockedOut, i.opcode, "dist", i.EstBytes)
	}
	blks := make([]*matrix.MatrixBlock, len(i.ins))
	for k, o := range i.ins {
		blk, err := o.MatrixBlockFor(ctx, i.opcode)
		if err != nil {
			return err
		}
		blks[k] = blk
	}
	res, err := row.Kernel(blks...)
	if err != nil {
		return err
	}
	ctx.SetMatrix(i.outs[0], res)
	return nil
}

// IndexInst implements right indexing X[rl:ru, cl:cu] with 1-based inclusive
// bounds; bounds of 0 mean "unbounded" (start or end of the dimension).
type IndexInst struct {
	base
	Target         Operand
	RL, RU, CL, CU Operand
}

// NewRightIndex creates a right-indexing instruction.
func NewRightIndex(out string, target, rl, ru, cl, cu Operand) *IndexInst {
	inst := &IndexInst{Target: target, RL: rl, RU: ru, CL: cl, CU: cu}
	inst.base = newBase("rightIndex", []string{out}, "", target, rl, ru, cl, cu)
	return inst
}

// resolveBounds converts 1-based inclusive (possibly 0/unbounded) operands to
// 0-based exclusive slice bounds.
func resolveBounds(ctx *runtime.Context, rows, cols int, rl, ru, cl, cu Operand) (r0, r1, c0, c1 int, err error) {
	get := func(o Operand, def int) (int, error) {
		v, err := o.Float64(ctx)
		if err != nil {
			return 0, err
		}
		if v == 0 {
			return def, nil
		}
		return int(v), nil
	}
	rlV, err := get(rl, 1)
	if err != nil {
		return
	}
	ruV, err := get(ru, rows)
	if err != nil {
		return
	}
	clV, err := get(cl, 1)
	if err != nil {
		return
	}
	cuV, err := get(cu, cols)
	if err != nil {
		return
	}
	r0, r1, c0, c1 = rlV-1, ruV, clV-1, cuV
	if r0 < 0 || r1 > rows || c0 < 0 || c1 > cols || r0 >= r1 || c0 >= c1 {
		err = fmt.Errorf("instructions: index [%d:%d,%d:%d] out of bounds for %dx%d matrix", rlV, ruV, clV, cuV, rows, cols)
	}
	return
}

// Execute implements runtime.Instruction.
func (i *IndexInst) Execute(ctx *runtime.Context) error {
	d, err := i.Target.Resolve(ctx)
	if err != nil {
		return err
	}
	// blocked targets assemble the region from the covering blocks only: no
	// full collect, and a spilled object restores just the touched blocks
	if bo, ok := d.(*runtime.BlockedMatrixObject); ok {
		dc := bo.DataCharacteristics()
		r0, r1, c0, c1, err := resolveBounds(ctx, int(dc.Rows), int(dc.Cols), i.RL, i.RU, i.CL, i.CU)
		if err != nil {
			return err
		}
		res, err := bo.Region(r0, r1, c0, c1)
		if err != nil {
			return err
		}
		ctx.SetMatrix(i.outs[0], res)
		return nil
	}
	blk, err := i.Target.MatrixBlockFor(ctx, i.opcode)
	if err != nil {
		return err
	}
	r0, r1, c0, c1, err := resolveBounds(ctx, blk.Rows(), blk.Cols(), i.RL, i.RU, i.CL, i.CU)
	if err != nil {
		return err
	}
	res, err := matrix.Slice(blk, r0, r1, c0, c1)
	if err != nil {
		return err
	}
	ctx.SetMatrix(i.outs[0], res)
	return nil
}

// LeftIndexInst implements left indexing target[rl:ru, cl:cu] = src. The
// result is target's object written in place when the compiler marked the
// update InPlace and the object allows it (runtime.MatrixObject.Update), else
// a new matrix. Either way the lineage item is the same.
type LeftIndexInst struct {
	base
	Target, Src    Operand
	RL, RU, CL, CU Operand
	// Updates is the variable whose new value the result becomes (set by the
	// compiler, "" when none): inside a parfor worker the written region is
	// noted under it for the result merge. InPlace says Target is that
	// variable and no other instruction of the block reads its old value.
	Updates string
	InPlace bool
}

// NewLeftIndex creates a left-indexing instruction.
func NewLeftIndex(out string, target, src, rl, ru, cl, cu Operand) *LeftIndexInst {
	inst := &LeftIndexInst{Target: target, Src: src, RL: rl, RU: ru, CL: cl, CU: cu}
	inst.base = newBase("leftIndex", []string{out}, "", target, src, rl, ru, cl, cu)
	return inst
}

// Execute implements runtime.Instruction.
func (i *LeftIndexInst) Execute(ctx *runtime.Context) error {
	target, err := i.Target.MatrixBlockFor(ctx, i.opcode)
	if err != nil {
		return err
	}
	src, err := i.Src.MatrixBlockFor(ctx, i.opcode)
	if err != nil {
		return err
	}
	r0, r1, c0, c1, err := resolveBounds(ctx, target.Rows(), target.Cols(), i.RL, i.RU, i.CL, i.CU)
	if err != nil {
		return err
	}
	// scalar source broadcast to the range
	if src.Rows() == 1 && src.Cols() == 1 && (r1-r0 != 1 || c1-c0 != 1) {
		src = matrix.Fill(r1-r0, c1-c0, src.Get(0, 0))
	}
	if src.Rows() != r1-r0 || src.Cols() != c1-c0 {
		return fmt.Errorf("instructions: left-index source %dx%d does not match range %dx%d", src.Rows(), src.Cols(), r1-r0, c1-c0)
	}
	if i.Updates != "" {
		ctx.NoteRegion(i.Updates, r0, r1, c0, c1)
	}
	w := []matrix.RegionWrite{{R0: r0, R1: r1, C0: c0, C1: c1, Src: src}}
	if i.InPlace {
		d, _ := i.Target.Resolve(ctx)
		if mo, ok := d.(*runtime.MatrixObject); ok {
			done, err := mo.Update(w)
			if err != nil {
				return err
			}
			if done {
				ctx.Set(i.outs[0], mo)
				return nil
			}
		}
	}
	res, err := matrix.Update(target, w, false)
	if err != nil {
		return err
	}
	ctx.SetMatrix(i.outs[0], res)
	return nil
}
