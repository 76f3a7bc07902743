// Cost-model-driven physical planning (the compiler-side operator selection
// of Section 2.3): a per-HOP cost estimate derived from the size/sparsity
// propagation in sizeprop.go, consumed by every physical decision the
// compiler makes — CP vs blocked-distributed execution, the physical matmult
// strategy (broadcast-left/right, grid join), the fusion budget gate, and the
// dynamic-recompilation trigger. The runtime executes the named plan; it
// never re-decides against ad-hoc size checks.
//
// Cost units are deliberately simple and deterministic: compute is counted in
// FLOPs, data movement in bytes. For the blocked backend, ShuffleBytes models
// the bytes a data-parallel engine would move for the chosen join strategy
// (replicated broadcast copies or replicated grid-join reads). Unknown shapes
// fall back to worst-case behavior: the operator stays in CP and the block is
// marked for dynamic recompilation, so the plan is re-derived the moment a
// cost-relevant size becomes known.
package hops

import (
	"fmt"
	"strings"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/types"
)

// PlannerParams collects the compiler-side knobs of the physical planner.
type PlannerParams struct {
	// MemBudget is the per-operator memory budget in bytes: the CP residency
	// limit and the broadcast budget of the blocked backend.
	MemBudget int64
	// DistEnabled allows the planner to place operators on the blocked
	// distributed backend at all.
	DistEnabled bool
	// Blocksize is the block side length of the blocked backend, needed to
	// derive grid dimensions for the matmult strategy costs.
	Blocksize int
	// CompressionEnabled allows the planner to fire compression decision
	// sites (KindCompress hops planted by the compiler before reuse scopes).
	CompressionEnabled bool
}

// Cost is the estimated execution cost of one HOP under its chosen plan.
type Cost struct {
	// Compute is the floating-point operation count.
	Compute float64
	// InputBytes is the total size of all inputs, OutputBytes the size of the
	// result (worst-case dense unless sparsity is known).
	InputBytes  int64
	OutputBytes int64
	// ShuffleBytes models the partition/broadcast/replication bytes of the
	// chosen blocked-backend strategy; 0 for CP plans.
	ShuffleBytes int64
	// Known reports whether every size feeding the estimate was known; when
	// false the byte fields are worst-case placeholders (-1).
	Known bool
}

// EstimateCost derives the cost estimate of one size-annotated HOP. It only
// reads the data characteristics already produced by PropagateSizes.
func EstimateCost(h *Hop) Cost {
	c := Cost{Known: true}
	out := types.EstimateSize(h.DC)
	if h.DataType == types.Scalar {
		out = 64
	}
	var in int64
	for _, op := range h.Inputs {
		s := types.EstimateSize(op.DC)
		if op.DataType == types.Scalar {
			s = 64
		}
		if s < 0 {
			c.Known = false
		} else {
			in += s
		}
	}
	if out < 0 {
		c.Known = false
	}
	c.InputBytes, c.OutputBytes = in, out
	c.Compute = estimateFLOPs(h)
	if c.Compute < 0 {
		c.Known = false
	}
	if !c.Known {
		c.InputBytes, c.OutputBytes = -1, -1
	}
	return c
}

// estimateFLOPs counts floating-point operations per HOP kind, or -1 when the
// shapes are unknown.
func estimateFLOPs(h *Hop) float64 {
	cells := func(dc types.DataCharacteristics) float64 {
		n := dc.Cells()
		if n < 0 {
			return -1
		}
		return float64(n)
	}
	switch h.Kind {
	case KindRead, KindLiteral, KindWrite, KindCast:
		return 0
	case KindMatMult:
		if len(h.Inputs) != 2 {
			return -1
		}
		a, b := h.Inputs[0].DC, h.Inputs[1].DC
		if a.Rows < 0 || a.Cols < 0 || b.Cols < 0 {
			return -1
		}
		// 2*m*k*n scaled by the left operand's sparsity when known
		return 2 * float64(a.Rows) * float64(a.Cols) * float64(b.Cols) * a.Sparsity()
	case KindTSMM:
		if len(h.Inputs) != 1 {
			return -1
		}
		in := h.Inputs[0].DC
		if in.Rows < 0 || in.Cols < 0 {
			return -1
		}
		return float64(in.Rows) * float64(in.Cols) * float64(in.Cols)
	case KindMMChain:
		if len(h.Inputs) < 1 {
			return -1
		}
		n := cells(h.Inputs[0].DC)
		if n < 0 {
			return -1
		}
		if h.Op == OpXtY {
			// the plain product: 2*m*n*k scaled by X's sparsity when known
			k := h.Inputs[1].DC.Cols
			if k < 0 {
				return -1
			}
			return 2 * n * float64(k) * h.Inputs[0].DC.Sparsity()
		}
		// two passes over X (X%*%v and t(X)%*%·), plus the row program once
		// per row
		f := 4 * n
		if h.Fused != nil && h.Inputs[0].DC.Rows > 0 {
			f += float64(h.Inputs[0].DC.Rows) * float64(len(h.Fused.Prog.Instrs)-1)
		}
		return f
	case KindFusedAgg, KindFusedCell:
		if h.Fused == nil {
			return -1
		}
		n := cells(fusedShape(h))
		if n < 0 {
			return -1
		}
		return n * float64(len(h.Fused.Prog.Instrs))
	case KindBinary, KindUnary, KindAggUnary, KindTernary, KindReorg, KindDataGen:
		// one pass over the larger of the output and the inputs
		n := cells(h.DC)
		for _, in := range h.Inputs {
			if m := cells(in.DC); m > n {
				n = m
			}
		}
		return n
	default:
		return cells(h.DC)
	}
}

// Compression decision-site constants. The HOP-level site decides *where*
// compression is worth attempting (a loop or recompile scope re-reads a
// sufficiently large operand, so the one-time encode amortizes); whether the
// data actually compresses is decided at runtime by the sample-based planner
// in internal/compress (which rejects ratios below its threshold). Both
// halves are deliberately cheap to be wrong about: a fired site on
// incompressible data costs one rejected sampling pass, an unfired site on
// compressible data just keeps today's behavior.
const (
	// CompressMinBytes is the smallest operand worth a compression attempt;
	// below it the sampling pass costs more than the encoding can save.
	CompressMinBytes = int64(1) << 18 // 256 KB
	// compressEncodeFactor models the one-time encode cost in passes over the
	// input (sampling plus dictionary/run construction).
	compressEncodeFactor = 1.5
	// compressAssumedRatio is the conservative compression ratio assumed
	// before sampling, aligned with the runtime planner's acceptance
	// threshold (compress.DefaultMinRatio adds headroom above 1).
	compressAssumedRatio = 2.0
	// CompressAssumedLoopTrips is the trip count assumed for loops whose
	// bounds are unknown at compile time, multiplying the per-iteration read
	// count into the site's reuse estimate.
	CompressAssumedLoopTrips = 10
)

// ShouldCompress is the compile-time half of the compression decision: fire
// the site when the operand is known to be large enough and the modeled
// savings of the reuse scope (reuse re-reads at the assumed ratio) cover the
// one-time encode cost. Unknown sizes keep the site armed — the block is
// recompile-relevant, so the decision is re-derived against live sizes.
func ShouldCompress(h *Hop, p PlannerParams) bool {
	if !p.CompressionEnabled || h.Kind != KindCompress || len(h.Inputs) != 1 {
		return false
	}
	in := h.Inputs[0]
	if in.DataType == types.Scalar || in.DataType == types.Frame {
		return false
	}
	size := types.EstimateSize(in.DC)
	if size < 0 {
		return true
	}
	if size < CompressMinBytes {
		return false
	}
	reuse := h.CompressReuse
	if reuse < 1 {
		reuse = 1
	}
	encodeCost := float64(size) * compressEncodeFactor
	saved := float64(reuse) * float64(size) * (1 - 1/compressAssumedRatio)
	return saved >= encodeCost
}

// CompressedOutput reports whether a HOP's result lives in compressed
// representation at runtime: a fired compression site, a transient read of a
// variable compressed in an earlier DAG (CompressedRead, tracked by the
// compiler), or a transpose of either — the runtime keeps t(X) of compressed
// X as a zero-cost view on the column groups.
func CompressedOutput(h *Hop) bool {
	if h == nil {
		return false
	}
	if h.CompressedRead {
		return true
	}
	if h.Kind == KindCompress && h.CompressFire {
		return true
	}
	if h.Kind == KindReorg && len(h.Inputs) == 1 {
		row, ok := matrix.ReorgOf(h.Op)
		return ok && row.View && CompressedOutput(h.Inputs[0])
	}
	return false
}

// tiledKernel reports whether the runtime runs h on the tiled GEMM engine:
// a dense-dense matmult or the TSMM of a dense X whose shape
// matrix.UseTiledGEMM accepts, asked with the shape the kernel sees. An
// operand counts as dense unless its known sparsity is below the threshold
// at which blocks turn sparse.
func tiledKernel(h *Hop) bool {
	dense := func(in *Hop) bool {
		dc := in.DC
		return dc.DimsKnown() && !(dc.NNZKnown() && dc.Sparsity() < types.SparseThreshold)
	}
	switch {
	case h.Kind == KindTSMM && len(h.Inputs) == 1 && dense(h.Inputs[0]):
		x := h.Inputs[0].DC
		return matrix.UseTiledGEMM(int(x.Cols), int(x.Rows), int(x.Cols))
	case h.Kind == KindMatMult && len(h.Inputs) == 2 && dense(h.Inputs[0]) && dense(h.Inputs[1]):
		a, b := h.Inputs[0].DC, h.Inputs[1].DC
		return matrix.UseTiledGEMM(int(a.Rows), int(a.Cols), int(b.Cols))
	}
	return false
}

// hasCompressedInput reports whether any input of a HOP arrives compressed.
func hasCompressedInput(h *Hop) bool {
	for _, in := range h.Inputs {
		if CompressedOutput(in) {
			return true
		}
	}
	return false
}

// discountCompressedInputs re-prices the byte charges of an operator whose
// inputs arrive compressed: the bytes actually read are the compressed bytes,
// modeled at the planner's assumed ratio, wherever the operator is placed —
// a compressed operand runs its compressed kernel in-process. Pricing the
// compressed representation is what lets the planner prefer plans that keep
// data compressed over plans that decompress at an operator boundary.
func discountCompressedInputs(h *Hop) {
	if !h.CostEst.Known {
		return
	}
	for _, in := range h.Inputs {
		if !CompressedOutput(in) {
			continue
		}
		s := types.EstimateSize(in.DC)
		if in.DataType == types.Scalar {
			s = 64
		}
		if s > 0 {
			h.CostEst.InputBytes -= s - int64(float64(s)/compressAssumedRatio)
		}
	}
}

// distEligibleKinds are the operator kinds the blocked backend implements;
// everything else always runs in CP.
func distEligible(h *Hop) bool {
	switch h.Kind {
	case KindMatMult, KindTSMM, KindBinary, KindUnary, KindAggUnary:
		return true
	case KindReorg:
		row, ok := matrix.ReorgOf(h.Op)
		return ok && row.Blocked
	case KindMMChain:
		// fusion keeps the xty variant of a dist-bound multiply only on the
		// shapes dist.XtY runs; the chains stay unfused there
		return h.Op == OpXtY
	case KindDataGen:
		// rand/seq above the budget generate blocked partitions directly
		// instead of materializing a huge local matrix and repartitioning it
		return h.Op == "rand" || h.Op == "seq"
	}
	return false
}

// WouldRunDist reports whether the planner would place this operator on the
// blocked distributed backend. It is the single predicate shared by execution
// -type selection, the fusion budget gate and the recompilation trigger, so
// the three decision sites can never drift apart.
func WouldRunDist(h *Hop, p PlannerParams) bool {
	if !p.DistEnabled || p.MemBudget <= 0 || !distEligible(h) {
		return false
	}
	// unknown sizes stay in CP conservatively; dynamic recompilation re-plans
	// once the sizes are known
	return h.MemEstimate > p.MemBudget
}

// PlanRelevantUnknown reports whether a HOP with unknown sizes should trigger
// dynamic recompilation: only operators whose physical plan (exec type,
// matmult strategy, fusion eligibility) depends on the estimate qualify —
// an unknown size that no decision consumes cannot change the plan. The
// already-fused kinds are included so a fused operator whose shapes turn out
// unknown still re-plans against live sizes.
func PlanRelevantUnknown(h *Hop) bool {
	return h.MemEstimate < 0 &&
		(distEligible(h) || h.Kind == KindMMChain || h.Kind == KindFusedAgg ||
			h.Kind == KindFusedCell || h.Kind == KindCompress)
}

// UntypedCellChain reports the smallest shape a fused cellwise pipeline can
// have — an operator or aggregate over a cellwise operator — whose interior
// reads a variable of still unknown type (the inputs of a prepared script,
// before the first call). Such an operator carries a scalar's size estimate,
// so no unknown size flags it; whether it is a matrix chain worth fusing can
// only be read off the live symbol table.
func UntypedCellChain(h *Hop) bool {
	if h.Kind != KindBinary && h.Kind != KindUnary && h.Kind != KindAggUnary {
		return false
	}
	for _, in := range h.Inputs {
		if in.Kind != KindBinary && in.Kind != KindUnary {
			continue
		}
		for _, leaf := range in.Inputs {
			if leaf.Kind == KindRead && leaf.DataType == types.UnknownData {
				return true
			}
		}
	}
	return false
}

// --- cellwise nnz upper bounds ----------------------------------------------
//
// Worst-case dense output estimates over-provision sparse chains: a chain of
// cellwise operators over sparse operands was priced as if every intermediate
// were dense, inflating memory estimates and pushing operators over the
// budget gate for no reason. The bounds below propagate a simple nnz upper
// bound by operator class; they are deliberately conservative (an upper
// bound, never an exact count) so the budget gate errs on the safe side.

// zeroAnnihilating lists binary ops whose output cell is zero whenever either
// input cell is zero: nnz(out) <= min(nnz(a), nnz(b)).
var zeroAnnihilating = map[string]bool{"*": true, "&": true}

// zeroPreserving lists the binary ops whose output cell is zero whenever both
// input cells are zero, f(0, 0) == 0 in the operator table: nnz(out) <=
// nnz(a) + nnz(b). (==, <=, >=, / and ^ are out: 0==0, 0/0 and 0^0 produce
// non-zeros from zero pairs.)
var zeroPreserving = binaryOpsWhere(func(op matrix.BinaryOp) bool { return op.Apply(0, 0) == 0 })

// zeroPreservingUnary lists the unary ops with f(0) == 0 in the operator
// table, which keep the input's nnz as an upper bound.
var zeroPreservingUnary = unaryOpsWhere(func(op matrix.UnaryOp) bool { return op.Apply(0) == 0 })

// CellwiseNNZBound returns an nnz upper bound for a cell-wise binary operator
// over two matrices of identical shape, or -1 when no bound is known (unknown
// input nnz, broadcasting shapes, or an op that creates non-zeros from zero
// pairs).
func CellwiseNNZBound(op string, a, b types.DataCharacteristics) int64 {
	if !a.NNZKnown() || !b.NNZKnown() || a.Rows != b.Rows || a.Cols != b.Cols {
		return -1
	}
	switch {
	case zeroAnnihilating[op]:
		return min(a.NNZ, b.NNZ)
	case zeroPreserving[op]:
		return min(a.NNZ+b.NNZ, a.Cells())
	}
	return -1
}

// ScalarNNZBound returns an nnz upper bound for a matrix-scalar cellwise
// operator when the scalar value is a compile-time literal, or -1.
// matrixLeft reports the operand order: x/s and x^s preserve zeros, while
// s/x and s^x turn zero cells into non-zeros (Inf, NaN, 1) and get no bound.
func ScalarNNZBound(op string, m types.DataCharacteristics, scalar float64, matrixLeft bool) int64 {
	if !m.NNZKnown() {
		return -1
	}
	switch op {
	case "*":
		if scalar == 0 {
			return 0
		}
		return m.NNZ
	case "/":
		if matrixLeft && scalar != 0 {
			return m.NNZ
		}
	case "^":
		if matrixLeft && scalar > 0 {
			return m.NNZ
		}
	case "+", "-":
		if scalar == 0 {
			return m.NNZ
		}
	}
	return -1
}

// UnaryNNZBound returns an nnz upper bound for a cell-wise unary operator, or
// -1 when the op can turn zeros into non-zeros.
func UnaryNNZBound(op string, in types.DataCharacteristics) int64 {
	if !in.NNZKnown() || !zeroPreservingUnary[op] {
		return -1
	}
	return in.NNZ
}

// MatMultNNZBound returns an nnz upper bound for a matrix multiplication, or
// -1 when neither input's nnz is known. An output cell (i,j) is non-zero only
// if row i of A has a non-zero meeting a non-zero in column j of B, so the
// output nnz is bounded by nnz(A)*cols(B) (each non-zero of A contributes to
// at most one full output row's worth of cells) and symmetrically by
// rows(A)*nnz(B). Without this bound every matmult output was priced dense,
// over-provisioning the dist budget gate on sparse chains.
func MatMultNNZBound(a, b types.DataCharacteristics) int64 {
	if a.Rows < 0 || b.Cols < 0 {
		return -1
	}
	bound := a.Rows * b.Cols
	known := false
	if a.NNZKnown() && b.Cols >= 0 {
		bound = min(bound, a.NNZ*b.Cols)
		known = true
	}
	if b.NNZKnown() && a.Rows >= 0 {
		bound = min(bound, a.Rows*b.NNZ)
		known = true
	}
	if !known {
		return -1
	}
	return bound
}

// TSMMNNZBound returns an nnz upper bound for t(X) %*% X, or -1 when the
// input's nnz is unknown: each non-zero of X contributes to at most one
// output row (its column index), capping the n×n Gram matrix at nnz(X)*n.
func TSMMNNZBound(in types.DataCharacteristics) int64 {
	if !in.NNZKnown() || in.Cols < 0 {
		return -1
	}
	return min(in.Cols*in.Cols, in.NNZ*in.Cols)
}

// gridDim returns ceil(n/blocksize) for a known dimension.
func gridDim(n int64, blocksize int) int64 {
	if blocksize <= 0 {
		blocksize = types.DefaultBlocksize
	}
	return (n + int64(blocksize) - 1) / int64(blocksize)
}

// matMultStrategyCost returns the modeled shuffle bytes of one matmult
// strategy, or -1 when the strategy is infeasible for the given operands.
//
// The formulas model the data movement of the paper's data-parallel backend:
// each strategy pays a worst-case partition cost for the operands it needs in
// blocked form, plus the bytes its join moves:
//
//	br: partition left, broadcast the right operand to every block-row strip
//	                        -> sizeL + sizeR*gridRows(out)
//	bl: partition right, broadcast the left operand to every block-col strip
//	                        -> sizeR + sizeL*gridCols(out)
//	gj: partition both; the replication join re-reads every block row of the
//	    left per output column and every block column of the right per output
//	    row              -> (sizeL+sizeR) + sizeL*gridCols(out) + sizeR*gridRows(out)
//
// An operand that already arrives in blocked representation (produced by an
// upstream distributed operator) drops its partition charge; broadcasting
// such an operand instead pays a collect charge of its full size, which
// steers broadcast plans away from already-partitioned inputs. Broadcasts
// are only feasible when the broadcast side fits the per-operator memory
// budget.
func matMultStrategyCost(m types.MatMultMethod, sizeL, sizeR, grOut, gcOut, budget int64, leftBlocked, rightBlocked bool) int64 {
	partL, partR := sizeL, sizeR
	if leftBlocked {
		partL = 0
	}
	if rightBlocked {
		partR = 0
	}
	switch m {
	case types.MMBroadcastRight:
		if sizeR > budget {
			return -1
		}
		collect := int64(0)
		if rightBlocked {
			collect = sizeR
		}
		return partL + collect + sizeR*grOut
	case types.MMBroadcastLeft:
		if sizeL > budget {
			return -1
		}
		collect := int64(0)
		if leftBlocked {
			collect = sizeL
		}
		return partR + collect + sizeL*gcOut
	case types.MMGridJoin:
		return partL + partR + sizeL*gcOut + sizeR*grOut
	}
	return -1
}

// ChooseMatMultStrategy picks the cheapest feasible physical strategy for a
// blocked matrix multiplication with the given operand characteristics
// (assuming both operands arrive as local matrices). It returns the strategy
// and its modeled shuffle bytes. The runtime's late-bound strategy selection
// calls it too, so re-decided plans and compile-time plans share one model.
func ChooseMatMultStrategy(left, right types.DataCharacteristics, blocksize int, memBudget int64) (types.MatMultMethod, int64) {
	return chooseMatMultStrategy(left, right, blocksize, memBudget, false, false)
}

// chooseMatMultStrategy is the blocked-representation-aware core of
// ChooseMatMultStrategy. Ties break towards the earlier candidate in
// (br, bl, gj) order, so the decision is deterministic.
func chooseMatMultStrategy(left, right types.DataCharacteristics, blocksize int, memBudget int64, leftBlocked, rightBlocked bool) (types.MatMultMethod, int64) {
	sizeL, sizeR := types.EstimateSize(left), types.EstimateSize(right)
	if sizeL < 0 || sizeR < 0 {
		// unknown shapes: defer the decision — the instruction re-invokes
		// this chooser at runtime with the operands' actual characteristics,
		// so the strategy is still decided here, just with late-bound sizes
		return types.MMAuto, -1
	}
	grOut, gcOut := gridDim(left.Rows, blocksize), gridDim(right.Cols, blocksize)
	best, bestCost := types.MMAuto, int64(-1)
	for _, m := range []types.MatMultMethod{types.MMBroadcastRight, types.MMBroadcastLeft, types.MMGridJoin} {
		c := matMultStrategyCost(m, sizeL, sizeR, grOut, gcOut, memBudget, leftBlocked, rightBlocked)
		if c < 0 {
			continue
		}
		if bestCost < 0 || c < bestCost {
			best, bestCost = m, c
		}
	}
	return best, bestCost
}

// blockedProducer reports whether a HOP's result will arrive in blocked
// representation at runtime: a distributed matrix producer whose kind keeps
// blocked outputs (PropagateBlockedOutputs' keepsBlockedOutput). Because
// Plan visits inputs before consumers, the input's ExecType is final when a
// matmult consults it.
func blockedProducer(h *Hop) bool {
	return h.ExecType == types.ExecDist && h.DataType != types.Scalar && keepsBlockedOutput(h)
}

// Plan runs the physical planner over a rewritten, size-annotated DAG: it
// attaches cost estimates, selects execution types by comparing the modeled
// costs of the feasible placements, and chooses the physical matmult strategy
// for distributed multiplications: the single decision site. Operators with
// unknown sizes conservatively run in CP and are subject to dynamic
// recompilation once sizes are known.
func Plan(d *DAG, p PlannerParams) {
	for _, h := range d.Nodes() {
		h.ExecType = types.ExecCP
		h.MMPlan = types.MMAuto
		h.CostEst = EstimateCost(h)
		if h.Kind == KindCompress {
			// compression sites always execute in CP; the decision is whether
			// they lower to a compress instruction or to a no-op alias
			h.CompressFire = ShouldCompress(h, p)
			if h.CompressFire && h.CostEst.Known && h.CostEst.OutputBytes > 0 {
				// a fired site emits compressed bytes, priced at the assumed
				// ratio (the runtime sample planner enforces at least its
				// acceptance threshold, so this stays conservative)
				h.CostEst.OutputBytes = int64(float64(h.CostEst.OutputBytes) / compressAssumedRatio)
			}
			continue
		}
		// operators over compressed operands read (and move) compressed bytes;
		// the inputs precede their consumers in Nodes() order, so CompressFire
		// of an in-DAG site is already decided here
		discountCompressedInputs(h)
		if !WouldRunDist(h, p) {
			// CP is feasible (or forced by unknown sizes / disabled backend):
			// CP touches the operands exactly once with no partition or
			// shuffle cost, so it dominates every distributed plan whenever
			// the operator fits the memory budget.
			continue
		}
		h.ExecType = types.ExecDist
		if h.Kind == KindMatMult && len(h.Inputs) == 2 {
			l, r := h.Inputs[0], h.Inputs[1]
			m, shuffle := chooseMatMultStrategy(l.DC, r.DC, p.Blocksize, p.MemBudget,
				blockedProducer(l), blockedProducer(r))
			h.MMPlan = m
			h.CostEst.ShuffleBytes = shuffle
		} else if h.Kind == KindMMChain && h.CostEst.Known {
			h.CostEst.ShuffleBytes = xtyShuffleBytes(h)
		} else if h.CostEst.Known {
			// non-matmult blocked operators partition unpartitioned inputs and
			// stream every block once
			h.CostEst.ShuffleBytes = h.CostEst.InputBytes
		}
	}
}

// xtyShuffleBytes models dist.XtY: X is partitioned unless it arrives
// blocked, Y is read once by row range wherever it lives, and the n x k
// partials of the fixed row chunks are summed locally — no transpose and no
// collect.
func xtyShuffleBytes(h *Hop) int64 {
	x, y := h.Inputs[0], h.Inputs[1]
	bytes := types.EstimateSize(y.DC) + h.CostEst.OutputBytes
	if !blockedProducer(x) {
		bytes += types.EstimateSize(x.DC)
	}
	return bytes
}

// PlanString renders the physical plan annotation of a HOP ("CP", "DIST", or
// "DIST:gj" for distributed matmults with a chosen strategy).
func (h *Hop) PlanString() string {
	if h.Kind == KindCompress {
		// surface the fire/no-fire decision so a user can audit why a loop
		// operand did or did not compress
		if h.CompressFire {
			return fmt.Sprintf("%s:compress", h.ExecType)
		}
		return fmt.Sprintf("%s:nocompress", h.ExecType)
	}
	if h.ExecType != types.ExecDist {
		return h.ExecType.String()
	}
	if h.Kind == KindMatMult && h.MMPlan != types.MMAuto {
		return fmt.Sprintf("%s:%s", h.ExecType, h.MMPlan)
	}
	return h.ExecType.String()
}

// ExplainPlan renders the planned DAG as an operator listing with the cost
// annotations the planner decided on: dimensions, memory estimate, plan
// string, and the modeled compute/shuffle costs (EXPLAIN hops with costs).
func (d *DAG) ExplainPlan() string {
	return d.ExplainPlanWith(nil)
}

// ExplainPlanWith renders the plan like ExplainPlan, additionally appending
// annotate(h) to each operator line when annotate is non-nil and returns a
// non-empty string. The compiler uses this to join measured per-opcode
// runtime metrics onto the printed plan (annotated EXPLAIN).
func (d *DAG) ExplainPlanWith(annotate func(*Hop) string) string {
	var sb strings.Builder
	nodes := d.Nodes()
	ids := explainIDs(nodes)
	for _, h := range nodes {
		ins := make([]string, len(h.Inputs))
		for i, in := range h.Inputs {
			ins[i] = fmt.Sprint(ids[in.ID])
		}
		fmt.Fprintf(&sb, "(%d) %s %s [%s] %s mem=%d plan=%s",
			ids[h.ID], h.Kind, h.Op, strings.Join(ins, ","), h.DC, h.MemEstimate, h.PlanString())
		if h.CostEst.Known {
			fmt.Fprintf(&sb, " flops=%.3g out=%dB", h.CostEst.Compute, h.CostEst.OutputBytes)
			if h.CostEst.ShuffleBytes > 0 {
				fmt.Fprintf(&sb, " shuffle=%dB", h.CostEst.ShuffleBytes)
			}
		} else {
			sb.WriteString(" cost=unknown")
		}
		// surface the kernel class so EXPLAIN reflects the physical execution
		// path: operators over compressed operands run the CLA kernels (Gram
		// matrices and matrix right-hand sides straight off the dictionaries)
		// — chosen by representation, so the tag prints even when sizes are
		// unknown; dense matmult and TSMM operators whose shape the runtime's
		// own predicate sends to the tiled engine run the tiled kernel
		switch {
		case h.Kind == KindTSMM && hasCompressedInput(h):
			sb.WriteString(" kernel=ctsmm")
		case h.Kind == KindMatMult && len(h.Inputs) == 2 && hasCompressedInput(h):
			kernel := "cmm"
			if CompressedOutput(h.Inputs[0]) && h.Inputs[1].DC.Cols == 1 {
				kernel = "cmv" // X %*% v and t(X) %*% v pre-aggregate per group
			} else if !CompressedOutput(h.Inputs[0]) && h.Inputs[0].DC.Rows == 1 {
				kernel = "cvm" // u %*% X, the vector-matrix kernel
			}
			sb.WriteString(" kernel=" + kernel)
		case h.Kind == KindMMChain && h.Op == OpXtY && CompressedOutput(h.Inputs[0]):
			kernel := "cmm"
			if h.Inputs[1].DC.Cols == 1 {
				kernel = "cvm" // t(X) %*% y runs the vector-matrix kernel over X
			}
			sb.WriteString(" kernel=" + kernel)
		case tiledKernel(h):
			sb.WriteString(" kernel=tiled")
		}
		if h.Fused != nil {
			sb.WriteString(" fused=" + h.Fused.Prog.Signature())
		}
		if annotate != nil {
			if a := annotate(h); a != "" {
				sb.WriteString(a)
			}
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
