package hops

import (
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
		if len(h.Inputs) == 1 {
			in := h.Inputs[0].DC
			switch h.Op {
			case "rowSums", "rowMeans", "rowMaxs", "rowMins", "rowIndexMax":
				h.DC = types.NewDataCharacteristics(in.Rows, 1, in.Blocksize, -1)
			case "colSums", "colMeans", "colMaxs", "colMins", "colVars", "colSds":
				h.DC = types.NewDataCharacteristics(1, in.Cols, in.Blocksize, -1)
			default: // full aggregates produce scalars
				h.DC = types.NewDataCharacteristics(0, 0, 0, 0)
			}
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
			switch h.Fused.Agg {
			case "": // KindFusedCell: the pipeline's own shape, the root's nnz bound
				h.DC = in
				h.DC.NNZ = h.Fused.OutNNZ
			case "colSums":
				h.DC = types.NewDataCharacteristics(1, in.Cols, in.Blocksize, -1)
			case "rowSums":
				h.DC = types.NewDataCharacteristics(in.Rows, 1, in.Blocksize, -1)
			default: // sum, min, max produce scalars
				h.DC = types.NewDataCharacteristics(0, 0, 0, 0)
			}
		}
	case KindReorg:
		if len(h.Inputs) == 1 {
			in := h.Inputs[0].DC
			switch h.Op {
			case "t":
				h.DC = types.NewDataCharacteristics(in.Cols, in.Rows, in.Blocksize, in.NNZ)
			case "diag":
				if in.Cols == 1 {
					h.DC = types.NewDataCharacteristics(in.Rows, in.Rows, in.Blocksize, in.Rows)
				} else {
					h.DC = types.NewDataCharacteristics(in.Rows, 1, in.Blocksize, -1)
				}
			default:
				h.DC = in
			}
		}
	case KindIndexing:
		// without literal bounds the result size is unknown; a literal range
		// yields exact sizes
		h.DC = types.UnknownCharacteristics()
		if len(h.Inputs) >= 5 {
			rl, ru := h.Inputs[1], h.Inputs[2]
			cl, cu := h.Inputs[3], h.Inputs[4]
			rows, cols := int64(-1), int64(-1)
			if rl.IsLiteralNumber() && ru.IsLiteralNumber() {
				rows = int64(ru.LitValue-rl.LitValue) + 1
			}
			if cl.IsLiteralNumber() && cu.IsLiteralNumber() {
				cols = int64(cu.LitValue-cl.LitValue) + 1
			}
			in := h.Inputs[0].DC
			if rows < 0 && in.Rows >= 0 && rl.IsLiteralNumber() && rl.LitValue == 1 && ru.Kind == KindRead {
				rows = -1
			}
			h.DC = types.NewDataCharacteristics(rows, cols, in.Blocksize, -1)
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
	case KindNary:
		switch h.Op {
		case "cbind":
			rows, cols := int64(-1), int64(0)
			ok := true
			for _, in := range h.Inputs {
				if in.DC.Rows >= 0 {
					rows = in.DC.Rows
				}
				if in.DC.Cols < 0 {
					ok = false
					break
				}
				cols += in.DC.Cols
			}
			if !ok {
				cols = -1
			}
			h.DC = types.NewDataCharacteristics(rows, cols, types.DefaultBlocksize, -1)
		case "rbind":
			rows, cols := int64(0), int64(-1)
			ok := true
			for _, in := range h.Inputs {
				if in.DC.Cols >= 0 {
					cols = in.DC.Cols
				}
				if in.DC.Rows < 0 {
					ok = false
					break
				}
				rows += in.DC.Rows
			}
			if !ok {
				rows = -1
			}
			h.DC = types.NewDataCharacteristics(rows, cols, types.DefaultBlocksize, -1)
		default:
			h.DC = types.UnknownCharacteristics()
		}
	case KindTernary:
		if len(h.Inputs) == 3 {
			h.DC = h.Inputs[0].DC
			h.DC.NNZ = -1
		}
	case KindParamBuiltin, KindFunctionCall:
		h.DC = types.UnknownCharacteristics()
	}
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

// rowColAggs are the aggregations with matrix (vector) outputs that the
// blocked backend can keep blocked; full aggregates produce scalars.
var rowColAggs = map[string]bool{
	"rowSums": true, "rowMeans": true, "rowMaxs": true, "rowMins": true,
	"colSums": true, "colMeans": true, "colMaxs": true, "colMins": true,
}

// keepsBlockedOutput reports whether a distributed operator's kind produces a
// blocked result at all — TSMM, xty and full aggregates assemble small local
// outputs instead. Shared by PropagateBlockedOutputs and the planner's
// blocked-operand costing so the two can never disagree.
func keepsBlockedOutput(h *Hop) bool {
	return !(h.Kind == KindTSMM || h.Kind == KindMMChain || (h.Kind == KindAggUnary && !rowColAggs[h.Op]))
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
