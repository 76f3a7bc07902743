package matrix

// This file is the reorg table: one row per DML reorg or bind function says
// what it means, and every layer reads the row instead of a switch of its
// own. The compiler asks it which builtins are reorgs and which opcode each
// lowers to; the HOP layer their output shapes and which ones may run
// blocked; the reorg instruction which rung of its ladder can run one
// (DESIGN.md, "The reorg table"); the blocked backend the axis a bind runs
// along and its kernel. No other non-test file names a reorg or bind opcode;
// the HOP rewrites of transposes match the DML name t.

// ReorgShape is how a row's output dimensions follow from its inputs'.
type ReorgShape uint8

// The shape rules.
const (
	ShapeSwap ReorgShape = iota // rows x cols → cols x rows
	ShapeDiag                   // a column vector n x 1 → n x n; a square n x n → n x 1
	ShapeSame                   // the input's shape
)

// BindAxis is the dimension a bind's operands are concatenated along. A row
// is a bind exactly when its Axis is not NoBind: it takes one or more
// operands, and its output is their sum along Axis with their common other
// dimension. Any other row takes one operand and follows its Shape.
type BindAxis uint8

// The bind axes.
const (
	NoBind   BindAxis = iota // not a bind
	BindRows                 // row counts add up, column counts agree
	BindCols                 // column counts add up, row counts agree
)

// Reorg is one row of the table.
type Reorg struct {
	Name   string     // the DML function
	Opcode string     // the instruction's opcode: plan records, lineage and spans key by it
	Shape  ReorgShape // rows that are not binds only
	Axis   BindAxis
	// Kernel is the local kernel over the operands' local blocks.
	Kernel func(ms ...*MatrixBlock) (*MatrixBlock, error)
	// Blocked says the blocked backend has a kernel: the per-block
	// transpose, or the bind along Axis.
	Blocked bool
	// View says the output over a compressed or federated operand is a lazy
	// view on it, and the output over such a view is the view's source.
	View bool
}

var reorgTable = []Reorg{
	{Name: "t", Opcode: "r'", Shape: ShapeSwap, Blocked: true, View: true,
		Kernel: func(ms ...*MatrixBlock) (*MatrixBlock, error) { return Transpose(ms[0]), nil }},
	{Name: "diag", Opcode: "rdiag", Shape: ShapeDiag,
		Kernel: func(ms ...*MatrixBlock) (*MatrixBlock, error) { return Diag(ms[0]) }},
	{Name: "rev", Opcode: "rev", Shape: ShapeSame,
		Kernel: func(ms ...*MatrixBlock) (*MatrixBlock, error) { return Reverse(ms[0]), nil }},
	{Name: "cbind", Opcode: "cbind", Axis: BindCols, Blocked: true, Kernel: CBind},
	{Name: "rbind", Opcode: "rbind", Axis: BindRows, Blocked: true, Kernel: RBind},
}

// ReorgOf returns the row of a DML function name.
func ReorgOf(name string) (*Reorg, bool) {
	for i := range reorgTable {
		if reorgTable[i].Name == name {
			return &reorgTable[i], true
		}
	}
	return nil, false
}

// Dims returns the output dimensions over operands of the given dimensions
// (-1: unknown; rows[k] and cols[k] are operand k's). A diag over an operand
// whose columns are not known to be 1 extracts the diagonal. A bind's summed
// dimension is unknown when any operand's is; its other dimension is the
// last known one.
func (r *Reorg) Dims(rows, cols []int64) (int64, int64) {
	switch {
	case r.Axis != NoBind: // a bind: the sum below
	case r.Shape == ShapeSwap:
		return cols[0], rows[0]
	case r.Shape == ShapeDiag:
		if cols[0] == 1 {
			return rows[0], rows[0]
		}
		return rows[0], 1
	default:
		return rows[0], cols[0]
	}
	sum, other := rows, cols
	if r.Axis == BindCols {
		sum, other = cols, rows
	}
	total, common := int64(0), int64(-1)
	for k := range sum {
		if other[k] >= 0 {
			common = other[k]
		}
		if total >= 0 && sum[k] >= 0 {
			total += sum[k]
		} else {
			total = -1
		}
	}
	if r.Axis == BindCols {
		return common, total
	}
	return total, common
}
