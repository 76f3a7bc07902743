package instructions

import (
	"fmt"

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
	if lIsScalar && rIsScalar {
		// string concatenation / comparison
		if ls.VT == types.String || rs.VT == types.String {
			return i.executeStringScalar(ctx, ls, rs)
		}
		ctx.Set(i.outs[0], scalarResult(op.Apply(ls.Float64(), rs.Float64()), op.Boolean()))
		return nil
	}
	var prog *matrix.CellProgram
	if s, swap := rs, false; lIsScalar || rIsScalar {
		if lIsScalar {
			s, swap = ls, true
		}
		v, err := s.Number()
		if err != nil {
			return fmt.Errorf("instructions: %s: %w", i.opcode, err)
		}
		prog = matrix.ScalarProgram(op, v, swap)
	} else {
		prog = matrix.BinaryProgram(op)
	}
	return runCell(ctx, i.plan, i.opcode, i.outs[0], prog, i.ins)
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
