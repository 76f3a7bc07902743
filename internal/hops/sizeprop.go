package hops

import (
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/types"
)

// PropagateSizes performs size propagation over the DAG: starting from the
// known characteristics of transient reads and literals, it derives output
// dimensions and sparsity for every operator, then computes worst-case memory
// estimates. knownVars supplies the characteristics of variables live at the
// block entry (from the symbol table during dynamic recompilation, or from
// read metadata at initial compile time).
func PropagateSizes(d *DAG, knownVars map[string]types.DataCharacteristics) {
	for _, h := range d.Nodes() {
		propagate(h, knownVars)
		h.MemEstimate = estimateMemory(h)
	}
}

func propagate(h *Hop, known map[string]types.DataCharacteristics) {
	switch h.Kind {
	case KindRead:
		if dc, ok := known[h.Name]; ok {
			h.DC = dc
			if dc.Rows >= 0 && h.DataType == types.UnknownData {
				h.DataType = types.Matrix
			}
		}
	case KindLiteral:
		h.DC = types.NewDataCharacteristics(0, 0, 0, 0)
	case KindWrite, KindCast:
		if len(h.Inputs) == 1 {
			h.DC = h.Inputs[0].DC
			if h.Kind == KindWrite {
				h.DataType = h.Inputs[0].DataType
				h.ValueType = h.Inputs[0].ValueType
			}
		}
	case KindBinary:
		if len(h.Inputs) == 2 {
			a, b := h.Inputs[0], h.Inputs[1]
			switch {
			case a.IsMatrix() && b.IsMatrix():
				h.DC = combineBinary(a.DC, b.DC)
				h.DC.NNZ = CellwiseNNZBound(h.Op, a.DC, b.DC)
			case a.IsMatrix():
				h.DC = a.DC
				h.DC.NNZ = scalarOperandNNZBound(h.Op, a.DC, b, true)
			case b.IsMatrix():
				h.DC = b.DC
				h.DC.NNZ = scalarOperandNNZBound(h.Op, b.DC, a, false)
			default:
				h.DC = types.NewDataCharacteristics(0, 0, 0, 0)
			}
		}
	case KindUnary:
		if len(h.Inputs) == 1 {
			h.DC = h.Inputs[0].DC
			if h.DataType == types.Matrix {
				h.DC.NNZ = UnaryNNZBound(h.Op, h.Inputs[0].DC)
			} else {
				h.DC = types.NewDataCharacteristics(0, 0, 0, 0)
			}
		}
	case KindCompress:
		// a compression site is representation-only: dimensions, sparsity and
		// values pass through untouched
		if len(h.Inputs) == 1 {
			h.DC = h.Inputs[0].DC
		}
	case KindAggUnary:
		if agg, ok := matrix.AggregateOf(h.Op); ok && len(h.Inputs) == 1 {
			h.DC = aggregateDC(agg, h.Inputs[0].DC)
		}
	case KindMatMult:
		if len(h.Inputs) == 2 {
			a, b := h.Inputs[0].DC, h.Inputs[1].DC
			rows, cols := a.Rows, b.Cols
			h.DC = types.NewDataCharacteristics(rows, cols, a.Blocksize, MatMultNNZBound(a, b))
		}
	case KindTSMM:
		if len(h.Inputs) == 1 {
			in := h.Inputs[0].DC
			h.DC = types.NewDataCharacteristics(in.Cols, in.Cols, in.Blocksize, TSMMNNZBound(in))
		}
	case KindMMChain:
		if len(h.Inputs) >= 2 {
			in := h.Inputs[0].DC
			if h.Op == OpXtY {
				tx := types.NewDataCharacteristics(in.Cols, in.Rows, in.Blocksize, in.NNZ)
				y := h.Inputs[1].DC
				h.DC = types.NewDataCharacteristics(in.Cols, y.Cols, in.Blocksize, MatMultNNZBound(tx, y))
			} else {
				h.DC = types.NewDataCharacteristics(in.Cols, 1, in.Blocksize, -1)
			}
		}
	case KindFusedAgg, KindFusedCell:
		if h.Fused != nil {
			in := fusedShape(h)
			if h.Fused.Agg != nil {
				h.DC = aggregateDC(h.Fused.Agg, in)
			} else { // KindFusedCell: the pipeline's own shape, the root's nnz bound
				h.DC = in
				h.DC.NNZ = h.Fused.OutNNZ
			}
		}
	case KindReorg:
		if row, ok := matrix.ReorgOf(h.Op); ok && len(h.Inputs) > 0 {
			h.DC = reorgDC(row, h.Inputs)
		}
	case KindIndexing:
		// a literal range yields an exact size: a literal 0 lower bound (an
		// omitted range) is 1, a literal 0 upper bound the input's dimension
		h.DC = types.UnknownCharacteristics()
		if len(h.Inputs) >= 5 {
			in := h.Inputs[0].DC
			h.DC = types.NewDataCharacteristics(indexedDim(h.Inputs[1], h.Inputs[2], in.Rows),
				indexedDim(h.Inputs[3], h.Inputs[4], in.Cols), in.Blocksize, -1)
		}
	case KindLeftIndex:
		if len(h.Inputs) >= 1 {
			h.DC = h.Inputs[0].DC
			h.DC.NNZ = -1
		}
	case KindDataGen:
		rows, cols := int64(-1), int64(-1)
		if p, ok := h.Params["rows"]; ok && p.IsLiteralNumber() {
			rows = int64(p.LitValue)
		}
		if p, ok := h.Params["cols"]; ok && p.IsLiteralNumber() {
			cols = int64(p.LitValue)
		}
		if h.Op == "seq" {
			if from, ok1 := h.Params["from"]; ok1 && from.IsLiteralNumber() {
				if to, ok2 := h.Params["to"]; ok2 && to.IsLiteralNumber() {
					incr := 1.0
					if p, ok := h.Params["incr"]; ok && p.IsLiteralNumber() {
						incr = p.LitValue
					}
					if incr != 0 {
						rows = int64((to.LitValue-from.LitValue)/incr) + 1
					}
					cols = 1
				}
			}
		}
		nnz := int64(-1)
		if rows >= 0 && cols >= 0 {
			nnz = rows * cols
			if p, ok := h.Params["sparsity"]; ok && p.IsLiteralNumber() {
				nnz = int64(float64(rows*cols) * p.LitValue)
			}
		}
		h.DC = types.NewDataCharacteristics(rows, cols, types.DefaultBlocksize, nnz)
	case KindTernary:
		if len(h.Inputs) == 3 {
			h.DC = h.Inputs[0].DC
			h.DC.NNZ = -1
		}
	case KindParamBuiltin, KindFunctionCall:
		h.DC = types.UnknownCharacteristics()
	}
}

// reorgDC is the output of a reorg row over its inputs: the row's shape rule
// for the dimensions. A transpose or reversal keeps its input's non-zeros, a
// diagonal matrix has at most one per row; the blocksize is the input's, a
// bind's the default.
func reorgDC(row *matrix.Reorg, ins []*Hop) types.DataCharacteristics {
	rows, cols := make([]int64, len(ins)), make([]int64, len(ins))
	for k, in := range ins {
		rows[k], cols[k] = in.DC.Rows, in.DC.Cols
	}
	r, c := row.Dims(rows, cols)
	in := ins[0].DC
	switch {
	case row.Axis != matrix.NoBind:
		in.Blocksize, in.NNZ = types.DefaultBlocksize, -1
	case row.Shape == matrix.ShapeDiag && in.Cols == 1:
		in.NNZ = in.Rows
	case row.Shape == matrix.ShapeDiag:
		in.NNZ = -1
	}
	return types.NewDataCharacteristics(r, c, in.Blocksize, in.NNZ)
}

// indexedDim is the extent of the 1-based inclusive index range [lo, hi]
// over a dimension of size dim, or -1 when a bound is not a literal or an
// omitted upper bound meets an unknown dimension.
func indexedDim(lo, hi *Hop, dim int64) int64 {
	if !lo.IsLiteralNumber() || !hi.IsLiteralNumber() {
		return -1
	}
	l, u := int64(lo.LitValue), int64(hi.LitValue)
	if l == 0 {
		l = 1
	}
	if u == 0 {
		if dim < 0 {
			return -1
		}
		u = dim
	}
	return u - l + 1
}

// fusedShape returns the shape of a fused cellwise pipeline: its matrix leaves
// are of that shape or vectors broadcast along it, so each dimension is the
// largest among them (the matcher only fuses over leaves of known shape).
func fusedShape(h *Hop) types.DataCharacteristics {
	dc := types.NewDataCharacteristics(0, 0, 0, -1)
	for _, in := range h.Inputs {
		if in.IsMatrix() {
			if dc.Blocksize == 0 {
				dc.Blocksize = in.DC.Blocksize
			}
			dc.Rows, dc.Cols = max(dc.Rows, in.DC.Rows), max(dc.Cols, in.DC.Cols)
		}
	}
	return dc
}

// scalarOperandNNZBound derives the matrix-scalar nnz bound when the scalar
// side is a compile-time numeric literal (the only case where the value, and
// therefore its zero-behavior, is known).
func scalarOperandNNZBound(op string, m types.DataCharacteristics, scalar *Hop, matrixLeft bool) int64 {
	if !scalar.IsLiteralNumber() {
		return -1
	}
	return ScalarNNZBound(op, m, scalar.LitValue, matrixLeft)
}

func combineBinary(a, b types.DataCharacteristics) types.DataCharacteristics {
	rows, cols := a.Rows, a.Cols
	if rows < 0 {
		rows = b.Rows
	}
	if cols < 0 {
		cols = b.Cols
	}
	// vector broadcasting keeps the larger operand's shape
	if b.Rows > rows {
		rows = b.Rows
	}
	if b.Cols > cols {
		cols = b.Cols
	}
	return types.NewDataCharacteristics(rows, cols, a.Blocksize, -1)
}

// estimateMemory computes a worst-case memory estimate in bytes of the HOP's
// output plus its largest input (the operands that must be pinned during
// execution), used for execution-type selection.
func estimateMemory(h *Hop) int64 {
	out := types.EstimateSize(h.DC)
	if h.DataType == types.Scalar {
		out = 64
	}
	var maxIn int64
	for _, in := range h.Inputs {
		s := types.EstimateSize(in.DC)
		if in.DataType == types.Scalar {
			s = 64
		}
		if s > maxIn {
			maxIn = s
		}
	}
	if out < 0 || maxIn < 0 {
		return -1
	}
	return out + maxIn
}

// aggregateDC is the output of an aggregate over in: a full aggregate's
// scalar, a row or column vector, or (cumsum) in's own shape.
func aggregateDC(agg *matrix.Aggregate, in types.DataCharacteristics) types.DataCharacteristics {
	if agg.Axis == matrix.AggFull {
		return types.NewDataCharacteristics(0, 0, 0, 0)
	}
	rows, cols := agg.Shape(in.Rows, in.Cols)
	return types.NewDataCharacteristics(rows, cols, in.Blocksize, -1)
}

// keepsBlockedOutput reports whether a distributed operator's kind produces a
// blocked result at all — TSMM, xty, full aggregates and the aggregates
// without a reduction (which run locally) assemble small local outputs
// instead. Shared by PropagateBlockedOutputs and the planner's
// blocked-operand costing so the two can never disagree.
func keepsBlockedOutput(h *Hop) bool {
	if h.Kind == KindAggUnary {
		agg, ok := matrix.AggregateOf(h.Op)
		return ok && agg.Red != 0 && agg.Axis != matrix.AggFull
	}
	return h.Kind != KindTSMM && h.Kind != KindMMChain
}

// PropagateBlockedOutputs runs after Plan and decides, per Dist
// operator, whether its result stays in the blocked representation. A result
// stays blocked unless every consumer is a CP compute operator (in which case
// the instruction collects eagerly and the blocked wrap would only add
// overhead). Transient writes keep values blocked: the object flows through
// the symbol table and later CP consumers or sinks collect lazily, so
// Dist->Dist chains across DAGs and statements never repartition.
func PropagateBlockedOutputs(d *DAG) {
	// held: the dist producers a transient write or a dist operator reads
	var held map[*Hop]bool
	hold := func(in *Hop) {
		if in.ExecType == types.ExecDist {
			if held == nil {
				held = map[*Hop]bool{}
			}
			held[in] = true
		}
	}
	for _, h := range d.Nodes() {
		if h.Kind != KindWrite && h.ExecType != types.ExecDist {
			continue
		}
		for _, in := range h.Inputs {
			hold(in)
		}
		for _, k := range sortedParamKeys(h.Params) {
			hold(h.Params[k])
		}
	}
	consumers := d.consumerCounts()
	for _, h := range d.Nodes() {
		// operators with small local outputs never stay blocked
		if h.ExecType == types.ExecDist && h.DataType != types.Scalar && keepsBlockedOutput(h) {
			h.BlockedOutput = consumers[h.ID] == 0 || held[h]
		}
	}
}
