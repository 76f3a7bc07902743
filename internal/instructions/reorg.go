package instructions

import (
	"errors"
	"fmt"

	"github.com/systemds/systemds-go/internal/dist"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
)

// ReorgInst implements reorganization operations: transpose (opcode "r'"),
// diag ("rdiag") and row reversal ("rev").
type ReorgInst struct {
	base
	plan
	In Operand
}

// NewReorg creates a reorg instruction with the given opcode.
func NewReorg(opcode, out string, in Operand) *ReorgInst {
	inst := &ReorgInst{plan: unplanned, In: in}
	inst.base = newBase(opcode, []string{out}, "", in)
	return inst
}

// Execute implements runtime.Instruction.
func (i *ReorgInst) Execute(ctx *runtime.Context) error {
	d, err := i.In.Resolve(ctx)
	if err != nil {
		return err
	}
	// the transpose of a compressed or federated matrix stays a zero-cost view
	// (t(X) %*% Y consumers run the transpose-free kernels on X), and the
	// transpose of a view folds back to its source
	if i.opcode == "r'" {
		if view, ok := transposeView(ctx, d); ok {
			ctx.Set(i.outs[0], view)
			return nil
		}
	}
	// blocked transpose: per-block transpose with mirrored grid coordinates;
	// other reorg ops fall back to the local kernel (collecting lazily)
	if i.opcode == "r'" && useDist(ctx, i.ExecType, d) {
		if _, isScalar := d.(*runtime.Scalar); !isScalar {
			bm, err := resolveBlockedData(ctx, d, i.In)
			if err != nil {
				return err
			}
			res, err := dist.Transpose(bm, ctx.Config.Threads())
			if err != nil {
				return err
			}
			return bindBlockedResult(ctx, i.outs[0], res, i.BlockedOut, i.opcode, "dist", i.EstBytes)
		}
	}
	blk, err := i.In.MatrixBlockFor(ctx, i.opcode)
	if err != nil {
		return err
	}
	switch i.opcode {
	case "r'":
		ctx.SetMatrix(i.outs[0], matrix.Transpose(blk))
	case "rdiag":
		res, err := matrix.Diag(blk)
		if err != nil {
			return err
		}
		ctx.SetMatrix(i.outs[0], res)
	case "rev":
		ctx.SetMatrix(i.outs[0], matrix.Reverse(blk))
	default:
		return fmt.Errorf("instructions: unknown reorg op %q", i.opcode)
	}
	return nil
}

// NaryInst implements n-ary operations over matrices: cbind and rbind.
type NaryInst struct {
	base
	plan
	Ins []Operand
}

// NewNary creates a cbind/rbind instruction.
func NewNary(opcode, out string, ins ...Operand) *NaryInst {
	inst := &NaryInst{plan: unplanned, Ins: ins}
	inst.base = newBase(opcode, []string{out}, "", ins...)
	return inst
}

// Execute implements runtime.Instruction.
func (i *NaryInst) Execute(ctx *runtime.Context) error {
	if err := i.tryDistributed(ctx); err == nil || err != errNotDist {
		return err
	}
	blocks := make([]*matrix.MatrixBlock, len(i.Ins))
	for idx, op := range i.Ins {
		blk, err := op.MatrixBlockFor(ctx, i.opcode)
		if err != nil {
			return err
		}
		blocks[idx] = blk
	}
	var res *matrix.MatrixBlock
	var err error
	switch i.opcode {
	case "cbind":
		res, err = matrix.CBind(blocks...)
	case "rbind":
		res, err = matrix.RBind(blocks...)
	default:
		return fmt.Errorf("instructions: unknown nary op %q", i.opcode)
	}
	if err != nil {
		return err
	}
	ctx.SetMatrix(i.outs[0], res)
	return nil
}

// errNotDist signals that an operation is not handled by the blocked backend
// and falls through to the local kernels.
var errNotDist = errors.New("instructions: not distributed")

// tryDistributed concatenates blocked operands without collecting them:
// block-aligned grids are concatenated by reference, boundary-spanning output
// blocks are re-assembled from the covering regions.
func (i *NaryInst) tryDistributed(ctx *runtime.Context) error {
	if (i.opcode != "cbind" && i.opcode != "rbind") || len(i.Ins) < 2 {
		return errNotDist
	}
	datas := make([]runtime.Data, len(i.Ins))
	for idx, o := range i.Ins {
		d, err := o.Resolve(ctx)
		if err != nil {
			return err
		}
		switch d.(type) {
		case *runtime.MatrixObject, *runtime.BlockedMatrixObject:
		default:
			return errNotDist
		}
		datas[idx] = d
	}
	if !useDist(ctx, i.ExecType, datas...) {
		return errNotDist
	}
	acc, err := resolveBlockedData(ctx, datas[0], i.Ins[0])
	if err != nil {
		return err
	}
	for idx := 1; idx < len(datas); idx++ {
		next, err := resolveBlockedData(ctx, datas[idx], i.Ins[idx])
		if err != nil {
			return err
		}
		if i.opcode == "cbind" {
			acc, err = dist.CBind(acc, next, ctx.Config.Threads())
		} else {
			acc, err = dist.RBind(acc, next, ctx.Config.Threads())
		}
		if err != nil {
			return err
		}
	}
	return bindBlockedResult(ctx, i.outs[0], acc, i.BlockedOut, i.opcode, "dist", i.EstBytes)
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
