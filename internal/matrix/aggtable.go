package matrix

import "math"

// This file is the aggregate table: one row per aggregate opcode says what
// the aggregate means, and every layer reads the row instead of a list of its
// own. The compiler asks it which builtins are aggregates and which of them
// are scalars; the HOP layer their output shapes, which ones fusion may take
// and which keep a blocked output; the instructions which rung of their
// ladder can run one (DESIGN.md, "The aggregate table"); the blocked backend
// and the compressed kernels the reduction to fold. No other file names an
// aggregate opcode (the federated wire protocol aside).

// AggAxis is the shape of an aggregate's output.
type AggAxis uint8

// The output shapes.
const (
	AggFull AggAxis = iota // one scalar over every cell
	AggRow                 // a rows x 1 vector, one value per row
	AggCol                 // a 1 x cols vector, one value per column
	AggSame                // the input's shape (cumsum)
)

// Aggregate is one row of the table. A row has exactly one of a Reduction, a
// local kernel (Scalar or Block) and a Dims answer.
type Aggregate struct {
	Name string
	Axis AggAxis
	// Red is the cell reduction Reduce folds over any ChunkWalk — the local
	// and the blocked rung alike; 0 when the row has none.
	Red Reduction
	// Mean divides the reduction by the number of cells each value folded
	// (Finish).
	Mean bool
	// Scalar (AggFull) or Block (any other axis) is the local kernel of a row
	// without a Reduction.
	Scalar func(m *MatrixBlock) float64
	Block  func(m *MatrixBlock) *MatrixBlock
	// Dims answers a metadata aggregate from its input's dimensions alone: no
	// cell is read, and the value is an integer.
	Dims func(rows, cols int64) int64
	// Fusable says fusion may evaluate a cell program straight into the
	// aggregate (FusedAgg), which folds a row or column aggregate as a sum.
	Fusable bool
}

var aggTable = []Aggregate{
	{Name: "sum", Red: ReduceSum, Fusable: true},
	{Name: "mean", Red: ReduceSum, Mean: true},
	{Name: "min", Red: ReduceMin, Fusable: true},
	{Name: "max", Red: ReduceMax, Fusable: true},
	{Name: "nnz", Red: ReduceNNZ},
	{Name: "var", Scalar: Variance},
	{Name: "sd", Scalar: func(m *MatrixBlock) float64 { return math.Sqrt(Variance(m)) }},
	{Name: "median", Scalar: Median},
	{Name: "trace", Scalar: Trace},
	{Name: "nrow", Dims: func(rows, _ int64) int64 { return rows }},
	{Name: "ncol", Dims: func(_, cols int64) int64 { return cols }},
	{Name: "length", Dims: func(rows, cols int64) int64 { return rows * cols }},
	{Name: "rowSums", Axis: AggRow, Red: ReduceSum, Fusable: true},
	{Name: "rowMeans", Axis: AggRow, Red: ReduceSum, Mean: true},
	{Name: "rowMins", Axis: AggRow, Red: ReduceMin},
	{Name: "rowMaxs", Axis: AggRow, Red: ReduceMax},
	{Name: "rowIndexMax", Axis: AggRow, Block: RowIndexMax},
	{Name: "colSums", Axis: AggCol, Red: ReduceSum, Fusable: true},
	{Name: "colMeans", Axis: AggCol, Red: ReduceSum, Mean: true},
	{Name: "colMins", Axis: AggCol, Red: ReduceMin},
	{Name: "colMaxs", Axis: AggCol, Red: ReduceMax},
	{Name: "colVars", Axis: AggCol, Block: ColVars},
	{Name: "colSds", Axis: AggCol, Block: ColSds},
	{Name: "cumsum", Axis: AggSame, Block: CumSumCols},
}

// aggIndex maps each opcode to its row.
var aggIndex = func() map[string]*Aggregate {
	idx := make(map[string]*Aggregate, len(aggTable))
	for i := range aggTable {
		idx[aggTable[i].Name] = &aggTable[i]
	}
	return idx
}()

// AggregateOf returns the row of an aggregate opcode.
func AggregateOf(name string) (*Aggregate, bool) {
	a, ok := aggIndex[name]
	return a, ok
}

// Aggregates returns every row, in table order.
func Aggregates() []*Aggregate {
	rows := make([]*Aggregate, len(aggTable))
	for i := range aggTable {
		rows[i] = &aggTable[i]
	}
	return rows
}

// String returns the opcode; a nil row (a fused cellwise chain has no
// aggregate) is "".
func (a *Aggregate) String() string {
	if a == nil {
		return ""
	}
	return a.Name
}

// Shape returns the output dimensions over a rows x cols input; a full
// aggregate's scalar is 1 x 1.
func (a *Aggregate) Shape(rows, cols int64) (int64, int64) {
	switch a.Axis {
	case AggRow:
		return rows, 1
	case AggCol:
		return 1, cols
	case AggSame:
		return rows, cols
	}
	return 1, 1
}

// Reduce folds the row's reduction over the rows x cols cells walk covers
// and finishes it: the value of a full aggregate, or the vector of a row or
// column one. The chunking depends on rows alone and the partials combine in
// chunk order, so every walk over the same cells gives the same bits.
func (a *Aggregate) Reduce(rows, cols int, walk ChunkWalk) (float64, *MatrixBlock, error) {
	var v float64
	var vec *MatrixBlock
	var err error
	switch a.Axis {
	case AggFull:
		v, err = walkFull(a.Red, rows, walk)
	case AggRow:
		vec = NewDense(rows, 1)
		err = walkRows(a.Red, vec.dense, walk)
	case AggCol:
		vec = NewDense(1, cols)
		err = walkCols(a.Red, vec.dense, rows, walk)
	}
	return a.Finish(v, vec, rows, cols), vec, err
}

// Finish is the one place a mean is divided, after whichever rung folded its
// sum: v, a full aggregate's value, by the rows x cols cells (NaN over none),
// or each cell of vec, a row or column aggregate's vector, by the cells of
// its row or column (none: left as it is), whose non-zeros it then recounts.
// It returns v.
func (a *Aggregate) Finish(v float64, vec *MatrixBlock, rows, cols int) float64 {
	switch n := cols; {
	case !a.Mean:
	case vec == nil && rows*cols == 0:
		v = math.NaN()
	case vec == nil:
		v /= float64(rows * cols)
	default:
		if a.Axis == AggCol {
			n = rows
		}
		if n > 0 {
			vals := vec.DenseValues()
			for i := range vals {
				vals[i] /= float64(n)
			}
		}
	}
	if vec != nil {
		vec.RecomputeNNZ()
	}
	return v
}

// Apply runs the row on a local block: its reduction over m's own walk on up
// to threads workers, its local kernel, or its Dims answer. The value is the
// result of a full aggregate, the block that of any other.
func (a *Aggregate) Apply(m *MatrixBlock, threads int) (float64, *MatrixBlock) {
	switch {
	case a.Red != 0:
		v, vec, _ := a.Reduce(m.rows, m.cols, m.walk(threads)) // a local walk never fails
		return v, vec
	case a.Dims != nil:
		return float64(a.Dims(int64(m.rows), int64(m.cols))), nil
	case a.Scalar != nil:
		return a.Scalar(m), nil
	}
	return 0, a.Block(m)
}
