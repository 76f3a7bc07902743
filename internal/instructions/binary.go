package instructions

import (
	"fmt"

	"github.com/systemds/systemds-go/internal/dist"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
	"github.com/systemds/systemds-go/internal/types"
)

// BinaryInst applies an element-wise binary operation between matrices and/or
// scalars, including string concatenation with "+".
type BinaryInst struct {
	base
	plan
	Left, Right Operand
}

// NewBinary creates a binary instruction.
func NewBinary(op string, out string, left, right Operand) *BinaryInst {
	inst := &BinaryInst{plan: unplanned, Left: left, Right: right}
	inst.base = newBase(op, []string{out}, "", left, right)
	return inst
}

// Execute implements runtime.Instruction.
func (i *BinaryInst) Execute(ctx *runtime.Context) error {
	op, ok := matrix.BinaryOpFromString(i.opcode)
	if !ok {
		return fmt.Errorf("instructions: unknown binary op %q", i.opcode)
	}
	l, err := i.Left.Resolve(ctx)
	if err != nil {
		return err
	}
	r, err := i.Right.Resolve(ctx)
	if err != nil {
		return err
	}
	ls, lIsScalar := l.(*runtime.Scalar)
	rs, rIsScalar := r.(*runtime.Scalar)
	// string concatenation / comparison
	if lIsScalar && rIsScalar && (ls.VT == types.String || rs.VT == types.String) {
		return i.executeStringScalar(ctx, ls, rs)
	}
	switch {
	case lIsScalar && rIsScalar:
		res := op.Apply(ls.Float64(), rs.Float64())
		ctx.Set(i.outs[0], scalarResult(res, op.Boolean()))
		return nil
	case lIsScalar && !rIsScalar:
		if co, ok := resolveCompressed(r); ok {
			return i.executeCompressedScalar(ctx, co, op, ls.Float64(), true)
		}
		if useDist(ctx, i.ExecType, r) {
			bm, err := resolveBlockedData(ctx, r, i.Right)
			if err != nil {
				return err
			}
			res, err := dist.Scalar(bm, ls.Float64(), op, true, ctx.Config.Threads())
			if err != nil {
				return err
			}
			return bindBlockedResult(ctx, i.outs[0], res, i.BlockedOut, i.opcode, "dist", i.EstBytes)
		}
		rb, err := i.Right.MatrixBlockFor(ctx, i.opcode)
		if err != nil {
			return err
		}
		ctx.SetMatrix(i.outs[0], matrix.ScalarOp(rb, ls.Float64(), op, true, ctx.Config.Threads()))
		return nil
	case !lIsScalar && rIsScalar:
		if co, ok := resolveCompressed(l); ok {
			return i.executeCompressedScalar(ctx, co, op, rs.Float64(), false)
		}
		if useDist(ctx, i.ExecType, l) {
			bm, err := resolveBlockedData(ctx, l, i.Left)
			if err != nil {
				return err
			}
			res, err := dist.Scalar(bm, rs.Float64(), op, false, ctx.Config.Threads())
			if err != nil {
				return err
			}
			return bindBlockedResult(ctx, i.outs[0], res, i.BlockedOut, i.opcode, "dist", i.EstBytes)
		}
		lb, err := i.Left.MatrixBlockFor(ctx, i.opcode)
		if err != nil {
			return err
		}
		ctx.SetMatrix(i.outs[0], matrix.ScalarOp(lb, rs.Float64(), op, false, ctx.Config.Threads()))
		return nil
	default:
		// blocked cell-wise path for aligned operands; row/column vector
		// operands broadcast block-wise so the blocked side never collects.
		// The vector paths additionally require the matrix side to be blocked
		// (or the operator Dist-planned): a blocked *vector* alone must not
		// drag a large CP-resident matrix through a partition round trip when
		// collecting the small vector is all the local kernel needs.
		if useDist(ctx, i.ExecType, l, r) {
			lr, lc, lok := matrixDims(l)
			rr, rc, rok := matrixDims(r)
			_, lBlocked := l.(*runtime.BlockedMatrixObject)
			_, rBlocked := r.(*runtime.BlockedMatrixObject)
			if lok && rok {
				switch {
				case lr == rr && lc == rc:
					return i.executeDistributed(ctx, op)
				case ((rr == lr && rc == 1) || (rr == 1 && rc == lc)) &&
					(i.ExecType == types.ExecDist || lBlocked):
					// matrix op vector: vector on the right
					return i.executeDistributedVector(ctx, op, l, i.Left, i.Right, false)
				case ((lr == rr && lc == 1) || (lr == 1 && lc == rc)) &&
					(i.ExecType == types.ExecDist || rBlocked):
					// vector op matrix: vector on the left
					return i.executeDistributedVector(ctx, op, r, i.Right, i.Left, true)
				}
			}
		}
		lb, err := i.Left.MatrixBlockFor(ctx, i.opcode)
		if err != nil {
			return err
		}
		rb, err := i.Right.MatrixBlockFor(ctx, i.opcode)
		if err != nil {
			return err
		}
		res, err := matrix.CellwiseOp(lb, rb, op, ctx.Config.Threads())
		if err != nil {
			return fmt.Errorf("instructions: %s: %w", i.opcode, err)
		}
		ctx.SetMatrix(i.outs[0], res)
		return nil
	}
}

// executeCompressedScalar applies a matrix-scalar operation to a compressed
// matrix as a dictionary-only update: every distinct value is rewritten once,
// the per-row encoding is untouched. swap marks a scalar left operand.
func (i *BinaryInst) executeCompressedScalar(ctx *runtime.Context, co *runtime.CompressedMatrixObject,
	op matrix.BinaryOp, scalar float64, swap bool) error {
	args, driver := []matrix.CellArg{{}, {Scalar: scalar}}, 0
	if swap {
		args[0], args[1], driver = args[1], args[0], 1
	}
	return mapCompressed(ctx, co, i.outs[0], matrix.BinaryProgram(op), args, driver)
}

func (i *BinaryInst) executeStringScalar(ctx *runtime.Context, l, r *runtime.Scalar) error {
	switch i.opcode {
	case "+":
		ctx.Set(i.outs[0], runtime.NewString(l.StringValue()+r.StringValue()))
		return nil
	case "==":
		ctx.Set(i.outs[0], runtime.NewBool(l.StringValue() == r.StringValue()))
		return nil
	case "!=":
		ctx.Set(i.outs[0], runtime.NewBool(l.StringValue() != r.StringValue()))
		return nil
	default:
		return fmt.Errorf("instructions: binary %s unsupported on strings", i.opcode)
	}
}

func (i *BinaryInst) executeDistributed(ctx *runtime.Context, op matrix.BinaryOp) error {
	bl, br, err := resolveBlockedPair(ctx, i.Left, i.Right)
	if err != nil {
		return err
	}
	res, err := dist.Cellwise(bl, br, op, ctx.Config.Threads())
	if err != nil {
		return err
	}
	return bindBlockedResult(ctx, i.outs[0], res, i.BlockedOut, i.opcode, "dist", i.EstBytes)
}

// executeDistributedVector runs a matrix±vector broadcast on the blocked
// backend: the matrix side stays (or becomes) blocked, the vector side is a
// small local operand sliced per block.
func (i *BinaryInst) executeDistributedVector(ctx *runtime.Context, op matrix.BinaryOp,
	matData runtime.Data, matOp, vecOp Operand, swap bool) error {
	bm, err := resolveBlockedData(ctx, matData, matOp)
	if err != nil {
		return err
	}
	vb, err := vecOp.MatrixBlockFor(ctx, i.opcode)
	if err != nil {
		return err
	}
	res, err := dist.CellwiseVector(bm, vb, op, swap, ctx.Config.Threads())
	if err != nil {
		return err
	}
	return bindBlockedResult(ctx, i.outs[0], res, i.BlockedOut, i.opcode, "dist", i.EstBytes)
}

// scalarResult wraps a numeric result, as a boolean scalar for the operators
// whose result is one (so if-predicates read naturally).
func scalarResult(v float64, boolean bool) *runtime.Scalar {
	if boolean {
		return runtime.NewBool(v != 0)
	}
	return runtime.NewDouble(v)
}

// TernaryInst computes ifelse(cond, a, b) cell-wise.
type TernaryInst struct {
	base
	Cond, A, B Operand
}

// NewTernary creates an ifelse instruction.
func NewTernary(out string, cond, a, b Operand) *TernaryInst {
	inst := &TernaryInst{Cond: cond, A: a, B: b}
	inst.base = newBase("ifelse", []string{out}, "", cond, a, b)
	return inst
}

// Execute implements runtime.Instruction.
func (i *TernaryInst) Execute(ctx *runtime.Context) error {
	cd, err := i.Cond.Resolve(ctx)
	if err != nil {
		return err
	}
	// scalar condition: pick a branch directly
	if cs, ok := cd.(*runtime.Scalar); ok {
		var chosen Operand
		if cs.Bool() {
			chosen = i.A
		} else {
			chosen = i.B
		}
		d, err := chosen.Resolve(ctx)
		if err != nil {
			return err
		}
		ctx.Set(i.outs[0], d)
		return nil
	}
	cb, err := i.Cond.MatrixBlockFor(ctx, i.opcode)
	if err != nil {
		return err
	}
	ab, err := i.A.MatrixBlockFor(ctx, i.opcode)
	if err != nil {
		return err
	}
	bb, err := i.B.MatrixBlockFor(ctx, i.opcode)
	if err != nil {
		return err
	}
	res, err := matrix.Ternary(cb, ab, bb)
	if err != nil {
		return err
	}
	ctx.SetMatrix(i.outs[0], res)
	return nil
}
