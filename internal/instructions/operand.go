// Package instructions implements the runtime instruction set of SystemDS-Go
// (the physical operators produced by lowering HOP DAGs, Section 2.3): data
// generation, unary/binary/ternary operations, aggregations, matrix
// multiplication with local, compressed, distributed and federated variants,
// reorganizations, indexing, linear system solvers, parameterized builtins,
// frame transformations, I/O, control instructions and function calls.
package instructions

import (
	"fmt"
	"sort"

	"github.com/systemds/systemds-go/internal/lineage"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
	"github.com/systemds/systemds-go/internal/types"
)

// Operand is an instruction operand: either a variable reference or a scalar
// literal.
type Operand struct {
	Name  string
	IsLit bool
	Lit   *runtime.Scalar
	item  *lineage.Item // a literal's lineage, built once by its constructor
}

// Var creates a variable operand.
func Var(name string) Operand { return Operand{Name: name} }

func literal(s *runtime.Scalar) Operand {
	return Operand{IsLit: true, Lit: s, item: runtime.ScalarItem(s)}
}

// LitDouble creates a numeric literal operand.
func LitDouble(v float64) Operand { return literal(runtime.NewDouble(v)) }

// LitInt creates an integer literal operand.
func LitInt(v int64) Operand { return literal(runtime.NewInt(v)) }

// LitBool creates a boolean literal operand.
func LitBool(v bool) Operand { return literal(runtime.NewBool(v)) }

// LitString creates a string literal operand.
func LitString(s string) Operand { return literal(runtime.NewString(s)) }

// IsVar reports whether the operand references a variable.
func (o Operand) IsVar() bool { return !o.IsLit }

// Resolve returns the operand's runtime value.
func (o Operand) Resolve(ctx *runtime.Context) (runtime.Data, error) {
	if o.IsLit {
		return o.Lit, nil
	}
	return ctx.Get(o.Name)
}

// Scalar resolves the operand as a scalar.
func (o Operand) Scalar(ctx *runtime.Context) (*runtime.Scalar, error) {
	d, err := o.Resolve(ctx)
	if err != nil {
		return nil, err
	}
	s, ok := d.(*runtime.Scalar)
	if !ok {
		if rows, cols, isMat := matrixDims(d); isMat && rows == 1 && cols == 1 {
			blk, err := o.MatrixBlock(ctx)
			if err != nil {
				return nil, err
			}
			return runtime.NewDouble(blk.Get(0, 0)), nil
		}
		return nil, fmt.Errorf("instructions: operand %s is not a scalar", o.Desc())
	}
	return s, nil
}

// MatrixBlock resolves the operand as a local matrix block (scalars are
// promoted to 1x1).
func (o Operand) MatrixBlock(ctx *runtime.Context) (*matrix.MatrixBlock, error) {
	return o.MatrixBlockFor(ctx, "other")
}

// MatrixBlockFor is MatrixBlock with the consuming opcode recorded when the
// read forces a fallback decompression of a compressed variable.
func (o Operand) MatrixBlockFor(ctx *runtime.Context, op string) (*matrix.MatrixBlock, error) {
	if o.IsLit {
		return runtime.LocalBlockOf(ctx, "", o.Lit, op)
	}
	return ctx.GetMatrixBlockFor(o.Name, op)
}

// Float64 resolves the operand as a number: a string that is not one is an
// error.
func (o Operand) Float64(ctx *runtime.Context) (float64, error) {
	s, err := o.Scalar(ctx)
	if err != nil {
		return 0, err
	}
	return s.Number()
}

// Int resolves the operand as an int.
func (o Operand) Int(ctx *runtime.Context) (int, error) {
	v, err := o.Float64(ctx)
	return int(v), err
}

// StringValue resolves the operand as a string.
func (o Operand) StringValue(ctx *runtime.Context) (string, error) {
	s, err := o.Scalar(ctx)
	if err != nil {
		return "", err
	}
	return s.StringValue(), nil
}

// Desc renders the operand for error messages: literals by value, variables
// by a placeholder.
func (o Operand) Desc() string {
	if o.IsLit {
		return o.Lit.StringValue()
	}
	return "°" + o.Name
}

// varNames extracts the variable names among a set of operands.
func varNames(ops ...Operand) []string {
	var names []string
	for _, o := range ops {
		if o.IsVar() {
			names = append(names, o.Name)
		}
	}
	return names
}

// lineage is the operand's lineage item: a literal's own, a variable's
// ctx.LineageOf — the same rule for every scalar, however it is written.
func (o Operand) lineage(ctx *runtime.Context) *lineage.Item {
	if o.IsLit {
		return o.item
	}
	return ctx.LineageOf(o.Name)
}

// sortedKeys returns the keys of a named-operand map in ascending order, the
// order named operands are stored and traced in.
func sortedKeys(named map[string]Operand) []string {
	keys := make([]string, 0, len(named))
	for k := range named {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// plan is what the compiler's planner decided for an operator; the
// instructions that can run blocked or that record a plan embed it, and
// lowering fills it in through SetPlan.
type plan struct {
	// ExecType selects the distributed backend for large operands.
	ExecType types.ExecType
	// BlockedOut keeps the result in blocked representation (set when a
	// downstream consumer is also a Dist operator).
	BlockedOut bool
	// EstBytes is the planner's estimated output size in bytes (-1 unknown),
	// recorded next to the actual bytes in the plan statistics.
	EstBytes int64
}

// unplanned is the plan of an instruction built outside the compiler.
var unplanned = plan{EstBytes: -1}

// SetPlan hands the instruction the planner's annotations.
func (p *plan) SetPlan(et types.ExecType, blockedOut bool, estBytes int64) {
	*p = plan{ExecType: et, BlockedOut: blockedOut, EstBytes: estBytes}
}

// base provides the common operand bookkeeping embedded by all instructions.
type base struct {
	opcode string
	ins    []Operand
	outs   []string
	extra  string // opcode-level lineage data (fused signature, variant, callee, keys)
}

func newBase(opcode string, outs []string, extra string, ins ...Operand) base {
	return base{opcode: opcode, ins: ins, outs: outs, extra: extra}
}

// Opcode implements runtime.Instruction.
func (b *base) Opcode() string { return b.opcode }

// Inputs implements runtime.Instruction.
func (b *base) Inputs() []string { return varNames(b.ins...) }

// Outputs implements runtime.Instruction.
func (b *base) Outputs() []string { return b.outs }

// Lineage implements runtime.Instruction.
func (b *base) Lineage(ctx *runtime.Context) (string, []*lineage.Item) {
	items := make([]*lineage.Item, len(b.ins))
	for i, o := range b.ins {
		items[i] = o.lineage(ctx)
	}
	return b.extra, items
}
