package instructions

import (
	"github.com/systemds/systemds-go/internal/hops"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
	"github.com/systemds/systemds-go/internal/types"
)

// The four instructions of the matmult family carry operands and the
// compiler's annotations; what runs for which operand representation is
// decided in one place, the kernel table (mmtable.go).

// MatMultInst computes matrix multiplication (opcode "ba+*"). For distributed
// execution the instruction is the executor of a named physical plan: the
// compiler's cost-based planner (hops/cost.go) decides the strategy at
// compile time and annotates it here; the runtime never re-decides against
// ad-hoc size checks.
type MatMultInst struct {
	base
	plan
	Left, Right Operand
	// Method is the physical strategy chosen by the planner for distributed
	// execution (broadcast-left/right, grid join); MMAuto for CP
	// plans or plans compiled before sizes were known.
	Method types.MatMultMethod
}

// NewMatMult creates a matrix multiplication instruction.
func NewMatMult(out string, left, right Operand) *MatMultInst {
	return &MatMultInst{base: newBase("ba+*", []string{out}, "", left, right), plan: unplanned, Left: left, Right: right}
}

// Execute implements runtime.Instruction.
func (i *MatMultInst) Execute(ctx *runtime.Context) error {
	return mmCall{plan: i.plan, method: i.Method, op: opMatMult, opcode: i.opcode, out: i.outs[0],
		x: i.Left, y: i.Right}.dispatch(ctx)
}

// TSMMInst computes the fused t(X) %*% X (opcode "tsmm").
type TSMMInst struct {
	base
	plan
	In Operand
}

// NewTSMM creates a tsmm instruction.
func NewTSMM(out string, in Operand) *TSMMInst {
	return &TSMMInst{base: newBase("tsmm", []string{out}, "", in), plan: unplanned, In: in}
}

// Execute implements runtime.Instruction.
func (i *TSMMInst) Execute(ctx *runtime.Context) error {
	return mmCall{plan: i.plan, op: opTSMM, opcode: i.opcode, out: i.outs[0], x: i.In}.dispatch(ctx)
}

// MMChainInst computes the row-wise fused gradient t(X) %*% f(X %*% v, a1…ak)
// (opcode "mmchain") in a single pass over X, without materializing the
// transpose, q = X %*% v or any intermediate of f. Prog is f over [q, a1…ak];
// its signature is the lineage data, so two chains with different programs
// never share a lineage entry.
type MMChainInst struct {
	base
	X, V Operand
	Prog *matrix.CellProgram
	Args []Operand // a1…ak
}

// NewMMChain creates a row-chain instruction.
func NewMMChain(out string, x, v Operand, prog *matrix.CellProgram, args []Operand) *MMChainInst {
	inst := &MMChainInst{X: x, V: v, Prog: prog, Args: args}
	inst.base = newBase("mmchain", []string{out}, prog.Signature(), append([]Operand{x, v}, args...)...)
	return inst
}

// Execute implements runtime.Instruction.
func (i *MMChainInst) Execute(ctx *runtime.Context) error {
	return mmCall{plan: unplanned, op: opChain, opcode: i.opcode, out: i.outs[0],
		x: i.X, y: i.V, prog: i.Prog, args: i.Args}.dispatch(ctx)
}

// XtYInst computes t(X) %*% Y (opcode "mmchain", lineage data "xty") without
// materializing the transpose.
type XtYInst struct {
	base
	plan
	X, Y Operand
}

// NewXtY creates a fused t(X) %*% Y instruction.
func NewXtY(out string, x, y Operand) *XtYInst {
	return &XtYInst{base: newBase("mmchain", []string{out}, hops.OpXtY, x, y), plan: unplanned, X: x, Y: y}
}

// Execute implements runtime.Instruction.
func (i *XtYInst) Execute(ctx *runtime.Context) error {
	return mmCall{plan: i.plan, op: opXtY, opcode: i.opcode, out: i.outs[0], x: i.X, y: i.Y}.dispatch(ctx)
}
