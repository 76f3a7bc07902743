package instructions

import (
	"fmt"
	"math"
	"strings"

	"github.com/systemds/systemds-go/internal/frame"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
	"github.com/systemds/systemds-go/internal/types"
)

// SolveInst solves linear systems and related dense linear algebra: "solve",
// "inv", "cholesky", and "eigen" (two outputs: values, vectors).
type SolveInst struct {
	base
	A, B Operand
}

// NewSolve creates a solve(A, b) instruction.
func NewSolve(out string, a, b Operand) *SolveInst {
	inst := &SolveInst{A: a, B: b}
	inst.base = newBase("solve", []string{out}, "", a, b)
	return inst
}

// NewInverse creates an inv(A) instruction.
func NewInverse(out string, a Operand) *SolveInst {
	inst := &SolveInst{A: a}
	inst.base = newBase("inv", []string{out}, "", a)
	return inst
}

// NewCholesky creates a cholesky(A) instruction.
func NewCholesky(out string, a Operand) *SolveInst {
	inst := &SolveInst{A: a}
	inst.base = newBase("cholesky", []string{out}, "", a)
	return inst
}

// NewEigen creates an eigen(A) instruction with two outputs (values, vectors).
func NewEigen(outValues, outVectors string, a Operand) *SolveInst {
	inst := &SolveInst{A: a}
	inst.base = newBase("eigen", []string{outValues, outVectors}, "", a)
	return inst
}

// Execute implements runtime.Instruction.
func (i *SolveInst) Execute(ctx *runtime.Context) error {
	a, err := i.A.MatrixBlockFor(ctx, i.opcode)
	if err != nil {
		return err
	}
	switch i.opcode {
	case "solve":
		b, err := i.B.MatrixBlockFor(ctx, i.opcode)
		if err != nil {
			return err
		}
		res, err := matrix.Solve(a, b)
		if err != nil {
			return err
		}
		ctx.SetMatrix(i.outs[0], res)
	case "inv":
		res, err := matrix.Inverse(a)
		if err != nil {
			return err
		}
		ctx.SetMatrix(i.outs[0], res)
	case "cholesky":
		res, err := matrix.Cholesky(a)
		if err != nil {
			return err
		}
		ctx.SetMatrix(i.outs[0], res)
	case "eigen":
		values, vectors, err := matrix.EigenSym(a)
		if err != nil {
			return err
		}
		ctx.SetMatrix(i.outs[0], values)
		ctx.SetMatrix(i.outs[1], vectors)
	default:
		return fmt.Errorf("instructions: unknown solver op %q", i.opcode)
	}
	return nil
}

// CastInst implements casts between scalars and matrices and between scalar
// value types: "castdts" (as.scalar), "castsdm" (as.matrix), "as.double",
// "as.integer", "as.logical".
type CastInst struct {
	base
	In Operand
}

// NewCast creates a cast instruction.
func NewCast(opcode, out string, in Operand) *CastInst {
	inst := &CastInst{In: in}
	inst.base = newBase(opcode, []string{out}, "", in)
	return inst
}

// Execute implements runtime.Instruction.
func (i *CastInst) Execute(ctx *runtime.Context) error {
	d, err := i.In.Resolve(ctx)
	if err != nil {
		return err
	}
	switch i.opcode {
	case "castdts": // as.scalar
		switch v := d.(type) {
		case *runtime.Scalar:
			ctx.Set(i.outs[0], v)
		case runtime.MatrixData:
			blk, err := i.In.MatrixBlockFor(ctx, i.opcode)
			if err != nil {
				return err
			}
			if blk.Rows() != 1 || blk.Cols() != 1 {
				return fmt.Errorf("instructions: as.scalar requires a 1x1 matrix, got %dx%d", blk.Rows(), blk.Cols())
			}
			ctx.Set(i.outs[0], runtime.NewDouble(blk.Get(0, 0)))
		default:
			return fmt.Errorf("instructions: as.scalar unsupported on %s", d.DataType())
		}
	case "castsdm": // as.matrix
		switch v := d.(type) {
		case runtime.MatrixData:
			// as.matrix of a matrix is the value itself, in whatever
			// representation it has: consumers dispatch as usual
			ctx.Set(i.outs[0], v)
		case *runtime.Scalar:
			m := matrix.NewDense(1, 1)
			m.Set(0, 0, v.Float64())
			ctx.SetMatrix(i.outs[0], m)
		case *runtime.FrameObject:
			m, err := v.Frame.ToMatrix()
			if err != nil {
				return err
			}
			ctx.SetMatrix(i.outs[0], m)
		default:
			return fmt.Errorf("instructions: as.matrix unsupported on %s", d.DataType())
		}
	case "as.double":
		s, err := i.In.Scalar(ctx)
		if err != nil {
			return err
		}
		ctx.Set(i.outs[0], runtime.NewDouble(s.Float64()))
	case "as.integer":
		s, err := i.In.Scalar(ctx)
		if err != nil {
			return err
		}
		ctx.Set(i.outs[0], runtime.NewInt(int64(s.Float64())))
	case "as.logical":
		s, err := i.In.Scalar(ctx)
		if err != nil {
			return err
		}
		ctx.Set(i.outs[0], runtime.NewBool(s.Bool()))
	default:
		return fmt.Errorf("instructions: unknown cast %q", i.opcode)
	}
	return nil
}

// ParamBuiltinInst implements parameterized builtins with named parameters:
// removeEmpty, replace, order, table, quantile, rowIndexMax-like helpers.
type ParamBuiltinInst struct {
	base
	Params map[string]Operand
}

// NewParamBuiltin creates a parameterized builtin instruction.
func NewParamBuiltin(opcode, out string, params map[string]Operand) *ParamBuiltinInst {
	keys := sortedKeys(params)
	ops := make([]Operand, len(keys))
	for k, key := range keys {
		ops[k] = params[key]
	}
	inst := &ParamBuiltinInst{Params: params}
	inst.base = newBase(opcode, []string{out}, paramDesc(keys), ops...)
	return inst
}

// paramDesc is the lineage data of named operands: their sorted keys alone.
// The values are the instruction's input items, and a variable's name must
// not enter lineage.
func paramDesc(keys []string) string {
	return strings.Join(keys, ";")
}

func (i *ParamBuiltinInst) param(name string) (Operand, bool) {
	o, ok := i.Params[name]
	return o, ok
}

// Execute implements runtime.Instruction.
func (i *ParamBuiltinInst) Execute(ctx *runtime.Context) error {
	switch i.opcode {
	case "removeEmpty":
		target, ok := i.param("target")
		if !ok {
			return fmt.Errorf("instructions: removeEmpty requires target")
		}
		blk, err := target.MatrixBlockFor(ctx, i.opcode)
		if err != nil {
			return err
		}
		margin := "rows"
		if m, ok := i.param("margin"); ok {
			margin, err = m.StringValue(ctx)
			if err != nil {
				return err
			}
		}
		res, err := matrix.RemoveEmpty(blk, margin)
		if err != nil {
			return err
		}
		ctx.SetMatrix(i.outs[0], res)
	case "replace":
		target, ok := i.param("target")
		if !ok {
			return fmt.Errorf("instructions: replace requires target")
		}
		blk, err := target.MatrixBlockFor(ctx, i.opcode)
		if err != nil {
			return err
		}
		pattern, err := i.Params["pattern"].Float64(ctx)
		if err != nil {
			return err
		}
		replacement, err := i.Params["replacement"].Float64(ctx)
		if err != nil {
			return err
		}
		out := blk.Copy().ToDense()
		vals := out.DenseValues()
		for idx, v := range vals {
			if v == pattern || (math.IsNaN(pattern) && math.IsNaN(v)) {
				vals[idx] = replacement
			}
		}
		out.RecomputeNNZ()
		ctx.SetMatrix(i.outs[0], out)
	case "order":
		target, ok := i.param("target")
		if !ok {
			return fmt.Errorf("instructions: order requires target")
		}
		blk, err := target.MatrixBlockFor(ctx, i.opcode)
		if err != nil {
			return err
		}
		by := 1
		if b, ok := i.param("by"); ok {
			by, err = b.Int(ctx)
			if err != nil {
				return err
			}
		}
		decreasing := false
		if dOp, ok := i.param("decreasing"); ok {
			s, err := dOp.Scalar(ctx)
			if err != nil {
				return err
			}
			decreasing = s.Bool()
		}
		indexReturn := false
		if iOp, ok := i.param("index.return"); ok {
			s, err := iOp.Scalar(ctx)
			if err != nil {
				return err
			}
			indexReturn = s.Bool()
		}
		res, err := matrix.Order(blk, by-1, decreasing, indexReturn)
		if err != nil {
			return err
		}
		ctx.SetMatrix(i.outs[0], res)
	case "table":
		a, err := i.Params["a"].MatrixBlockFor(ctx, i.opcode)
		if err != nil {
			return err
		}
		b, err := i.Params["b"].MatrixBlockFor(ctx, i.opcode)
		if err != nil {
			return err
		}
		ctx.SetMatrix(i.outs[0], matrix.Table(a, b))
	case "quantile":
		target, err := i.Params["target"].MatrixBlockFor(ctx, i.opcode)
		if err != nil {
			return err
		}
		p, err := i.Params["p"].Float64(ctx)
		if err != nil {
			return err
		}
		ctx.Set(i.outs[0], runtime.NewDouble(matrix.Quantile(target, p)))
	case "selectRows":
		target, err := i.Params["target"].MatrixBlockFor(ctx, i.opcode)
		if err != nil {
			return err
		}
		idx, err := i.Params["index"].MatrixBlockFor(ctx, i.opcode)
		if err != nil {
			return err
		}
		res, err := matrix.SelectRows(target, idx)
		if err != nil {
			return err
		}
		ctx.SetMatrix(i.outs[0], res)
	default:
		return fmt.Errorf("instructions: unknown parameterized builtin %q", i.opcode)
	}
	return nil
}

// TransformInst implements transformencode (fit + apply, two outputs: encoded
// matrix and encoder metadata as a list) and transformapply (apply an
// existing encoder).
type TransformInst struct {
	base
	Target Operand
	Spec   Operand // spec string: "recode=c1,c2;dummycode=c3;bin=c4:5;impute=c5:mean;scale=c6"
	Meta   Operand // for transformapply: the encoder list produced by transformencode
}

// NewTransformEncode creates a transformencode instruction with outputs
// (encoded matrix, metadata).
func NewTransformEncode(outX, outMeta string, target, spec Operand) *TransformInst {
	inst := &TransformInst{Target: target, Spec: spec}
	inst.base = newBase("transformencode", []string{outX, outMeta}, "", target, spec)
	return inst
}

// NewTransformApply creates a transformapply instruction.
func NewTransformApply(out string, target, meta Operand) *TransformInst {
	inst := &TransformInst{Target: target, Meta: meta}
	inst.base = newBase("transformapply", []string{out}, "", target, meta)
	return inst
}

// encoderHolder wraps a trained frame encoder as runtime data inside a list.
type encoderHolder struct {
	enc *frame.Encoder
}

func (encoderHolder) DataType() types.DataType { return types.List }
func (encoderHolder) String() string           { return "TransformEncoder" }

// Execute implements runtime.Instruction.
func (i *TransformInst) Execute(ctx *runtime.Context) error {
	fo, err := resolveFrame(ctx, i.Target)
	if err != nil {
		return err
	}
	switch i.opcode {
	case "transformencode":
		specStr, err := i.Spec.StringValue(ctx)
		if err != nil {
			return err
		}
		spec, err := ParseTransformSpec(specStr)
		if err != nil {
			return err
		}
		x, enc, err := frame.Encode(fo, spec)
		if err != nil {
			return err
		}
		ctx.SetMatrix(i.outs[0], x)
		ctx.Set(i.outs[1], runtime.NewListObject([]runtime.Data{encoderHolder{enc: enc}}, []string{"encoder"}))
	case "transformapply":
		metaData, err := i.Meta.Resolve(ctx)
		if err != nil {
			return err
		}
		lo, ok := metaData.(*runtime.ListObject)
		if !ok {
			return fmt.Errorf("instructions: transformapply meta must be the list returned by transformencode")
		}
		encData, ok := lo.Lookup("encoder")
		if !ok {
			return fmt.Errorf("instructions: transformapply meta list has no encoder")
		}
		holder, ok := encData.(encoderHolder)
		if !ok {
			return fmt.Errorf("instructions: transformapply meta is not a transform encoder")
		}
		x, err := holder.enc.Apply(fo)
		if err != nil {
			return err
		}
		ctx.SetMatrix(i.outs[0], x)
	default:
		return fmt.Errorf("instructions: unknown transform op %q", i.opcode)
	}
	return nil
}

func resolveFrame(ctx *runtime.Context, op Operand) (*frame.FrameBlock, error) {
	d, err := op.Resolve(ctx)
	if err != nil {
		return nil, err
	}
	switch v := d.(type) {
	case *runtime.FrameObject:
		return v.Frame, nil
	case runtime.MatrixData:
		blk, err := v.LocalFor("frame")
		if err != nil {
			return nil, err
		}
		return frame.FromMatrix(blk), nil
	default:
		return nil, fmt.Errorf("instructions: expected a frame, got %s", d.DataType())
	}
}

// ParseTransformSpec parses the compact transform spec syntax used by the DML
// transformencode builtin: semicolon-separated clauses
// "recode=a,b;dummycode=c;bin=d:4;impute=e:mean;scale=f,g".
func ParseTransformSpec(s string) (frame.TransformSpec, error) {
	spec := frame.TransformSpec{Bin: map[string]int{}, Impute: map[string]string{}}
	if s == "" {
		return spec, nil
	}
	for _, clause := range splitNonEmpty(s, ';') {
		key, value, found := cut(clause, '=')
		if !found {
			return spec, fmt.Errorf("instructions: invalid transform clause %q", clause)
		}
		switch key {
		case "recode":
			spec.Recode = append(spec.Recode, splitNonEmpty(value, ',')...)
		case "dummycode":
			spec.DummyCode = append(spec.DummyCode, splitNonEmpty(value, ',')...)
		case "scale":
			spec.Scale = append(spec.Scale, splitNonEmpty(value, ',')...)
		case "bin":
			for _, b := range splitNonEmpty(value, ',') {
				col, nStr, ok := cut(b, ':')
				if !ok {
					return spec, fmt.Errorf("instructions: bin clause %q needs col:bins", b)
				}
				n := 0
				if _, err := fmt.Sscanf(nStr, "%d", &n); err != nil {
					return spec, fmt.Errorf("instructions: bin count %q: %v", nStr, err)
				}
				spec.Bin[col] = n
			}
		case "impute":
			for _, b := range splitNonEmpty(value, ',') {
				col, method, ok := cut(b, ':')
				if !ok {
					return spec, fmt.Errorf("instructions: impute clause %q needs col:method", b)
				}
				spec.Impute[col] = method
			}
		default:
			return spec, fmt.Errorf("instructions: unknown transform clause %q", key)
		}
	}
	return spec, nil
}

func splitNonEmpty(s string, sep byte) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == sep {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}

func cut(s string, sep byte) (before, after string, found bool) {
	for i := 0; i < len(s); i++ {
		if s[i] == sep {
			return s[:i], s[i+1:], true
		}
	}
	return s, "", false
}
