// Package hops implements the high-level operator (HOP) layer of the
// SystemDS-Go compiler (Section 2.3 of the paper): DAGs of logical operations
// per basic block, static rewrites (common subexpression elimination,
// constant folding, algebraic simplifications such as t(X)%*%X -> tsmm),
// size propagation of dimensions and sparsity, memory estimates, and
// execution-type selection hints consumed by the lowering step.
package hops

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync/atomic"

	"github.com/systemds/systemds-go/internal/types"
)

// Kind classifies high-level operators.
type Kind int

// HOP kinds.
const (
	KindRead         Kind = iota // transient read of a variable
	KindLiteral                  // scalar literal
	KindBinary                   // cell-wise or scalar binary operation
	KindUnary                    // cell-wise or scalar unary operation
	KindAggUnary                 // full or row/column aggregation
	KindMatMult                  // matrix multiplication
	KindTSMM                     // fused transpose-self matrix multiply t(X)%*%X
	KindReorg                    // a row of the reorg table (matrix.Reorg): t, diag, rev, cbind, rbind
	KindIndexing                 // right indexing X[a:b, c:d]
	KindLeftIndex                // left indexing target[a:b, c:d] = src
	KindDataGen                  // rand, seq, fill
	KindTernary                  // ifelse
	KindParamBuiltin             // parameterized builtins (transformencode, removeEmpty, ...)
	KindFunctionCall             // call to a user or DML-bodied function
	KindCast                     // as.scalar, as.matrix, as.double, ...
	KindWrite                    // transient write of a variable (DAG output)
	KindMMChain                  // fused t(X)%*%(X%*%v) / t(X)%*%(w*(X%*%v)) / t(X)%*%Y (Op xty)
	KindFusedAgg                 // fused cellwise pipeline under an aggregate
	KindFusedCell                // fused cellwise chain into one output block (Op: the root operator)
	KindCompress                 // compression decision site before a reuse scope
)

var kindNames = map[Kind]string{
	KindRead: "TRead", KindLiteral: "Literal", KindBinary: "Binary", KindUnary: "Unary",
	KindAggUnary: "AggUnary", KindMatMult: "MatMult", KindTSMM: "TSMM", KindReorg: "Reorg",
	KindIndexing: "RightIndex", KindLeftIndex: "LeftIndex", KindDataGen: "DataGen",
	KindTernary: "Ternary", KindParamBuiltin: "ParamBuiltin",
	KindFunctionCall: "FCall", KindCast: "Cast", KindWrite: "TWrite",
	KindMMChain: "MMChain", KindFusedAgg: "FusedAgg", KindFusedCell: "FusedCell",
	KindCompress: "Compress",
}

// String returns the kind name.
func (k Kind) String() string { return kindNames[k] }

var hopIDCounter int64

// Hop is one node of a high-level operator DAG.
type Hop struct {
	ID        int64
	Kind      Kind
	Op        string // concrete operation: "+", "t", "sum", "rand", function name, ...
	Name      string // variable name for TRead/TWrite
	Inputs    []*Hop
	DataType  types.DataType
	ValueType types.ValueType
	DC        types.DataCharacteristics

	// Literal payload (valid when Kind == KindLiteral)
	LitValue  float64
	LitString string
	LitBool   bool
	LitIsStr  bool
	LitIsBool bool

	// Named parameters (datagen and parameterized builtins)
	Params map[string]*Hop

	// Compiler annotations
	ExecType    types.ExecType
	MemEstimate int64
	// MMPlan is the physical matmult strategy chosen by the cost-based
	// planner (valid when Kind == KindMatMult and ExecType == ExecDist).
	MMPlan types.MatMultMethod
	// CostEst is the planner's cost estimate (set by Plan).
	CostEst Cost
	// BlockedOutput marks Dist operators whose result stays in the blocked
	// representation (a BlockedMatrixObject in the symbol table) instead of
	// being collected into a local block after execution; set by
	// PropagateBlockedOutputs along Dist->Dist edges.
	BlockedOutput bool

	// Outputs for multi-return function calls
	OutputNames []string

	// Fused carries the cell program of a fused cellwise pipeline (valid when
	// Kind is KindFusedAgg or KindFusedCell); set by FuseOperators.
	Fused *FusedPlan

	// CompressReuse estimates how often the reuse scope behind a compression
	// decision site (Kind == KindCompress) re-reads the operand; set by the
	// compiler from the loop body's read count.
	CompressReuse int
	// CompressFire is the planner's decision for a compression site: lower to
	// a compress instruction (true) or to a no-op alias (false). Set by Plan.
	CompressFire bool
	// CompressedRead marks a transient read of a variable that holds a
	// compressed matrix at runtime (its producer was a fired compression site
	// in an earlier DAG); set by the compiler's cross-DAG tracking so pricing
	// and EXPLAIN see the compressed representation across block boundaries.
	CompressedRead bool

	// walked is the epoch of the last traversal that visited the HOP
	// (postOrder).
	walked uint64
}

// NewHop creates a HOP with a fresh ID.
func NewHop(kind Kind, op string, inputs ...*Hop) *Hop {
	return &Hop{
		ID:     atomic.AddInt64(&hopIDCounter, 1),
		Kind:   kind,
		Op:     op,
		Inputs: inputs,
		DC:     types.UnknownCharacteristics(),
	}
}

// NewRead creates a transient read of a variable.
func NewRead(name string, dt types.DataType) *Hop {
	h := NewHop(KindRead, "tread")
	h.Name = name
	h.DataType = dt
	return h
}

// NewWrite creates a transient write of a variable fed by input.
func NewWrite(name string, input *Hop) *Hop {
	h := NewHop(KindWrite, "twrite", input)
	h.Name = name
	h.DataType = input.DataType
	h.ValueType = input.ValueType
	return h
}

// NewLiteralNumber creates a numeric scalar literal.
func NewLiteralNumber(v float64) *Hop {
	h := NewHop(KindLiteral, "lit")
	h.DataType = types.Scalar
	h.ValueType = types.FP64
	h.LitValue = v
	h.DC = types.NewDataCharacteristics(0, 0, 0, 0)
	return h
}

// NewLiteralInt creates an integer scalar literal: a numeric literal that
// lowers to an INT64 operand, so a value bound from an integer argument keeps
// the type (and the lineage item) it has when bound at runtime.
func NewLiteralInt(v int64) *Hop {
	h := NewLiteralNumber(float64(v))
	h.ValueType = types.INT64
	return h
}

// NewLiteralString creates a string scalar literal.
func NewLiteralString(s string) *Hop {
	h := NewHop(KindLiteral, "lit")
	h.DataType = types.Scalar
	h.ValueType = types.String
	h.LitString = s
	h.LitIsStr = true
	return h
}

// NewLiteralBool creates a boolean scalar literal.
func NewLiteralBool(b bool) *Hop {
	h := NewHop(KindLiteral, "lit")
	h.DataType = types.Scalar
	h.ValueType = types.Boolean
	h.LitBool = b
	h.LitIsBool = true
	if b {
		h.LitValue = 1
	}
	return h
}

// IsScalar reports whether the HOP produces a scalar.
func (h *Hop) IsScalar() bool { return h.DataType == types.Scalar }

// IsMatrix reports whether the HOP produces a matrix.
func (h *Hop) IsMatrix() bool { return h.DataType == types.Matrix }

// IsLiteralNumber reports whether the HOP is a numeric literal.
func (h *Hop) IsLiteralNumber() bool {
	return h.Kind == KindLiteral && !h.LitIsStr && !h.LitIsBool
}

// signature produces a canonical string describing the operation and its
// input identities, used for common subexpression elimination. It appends
// into one buffer rather than formatting: the string is the one
// "%s:%s:%s" / ":%x:%q:%v:%v" / ":%d" / ":%s=%d" / ":%s:%s" would print,
// byte for byte (TestSignatureMatchesFormatted).
func (h *Hop) signature() string {
	b := append(make([]byte, 0, 64), h.Kind.String()...)
	b = appendField(b, h.Op)
	b = appendField(b, h.Name)
	if h.Kind == KindLiteral {
		// the bits, not the printed value: NaNs of another sign or payload
		// are other literals
		b = strconv.AppendUint(append(b, ':'), math.Float64bits(h.LitValue), 16)
		b = strconv.AppendQuote(append(b, ':'), h.LitString)
		b = strconv.AppendBool(append(b, ':'), h.LitBool)
		b = appendField(b, h.ValueType.String())
	}
	for _, in := range h.Inputs {
		b = strconv.AppendInt(append(b, ':'), in.ID, 10)
	}
	for _, k := range sortedParamKeys(h.Params) {
		b = strconv.AppendInt(append(appendField(b, k), '='), h.Params[k].ID, 10)
	}
	if h.Fused != nil {
		b = appendField(appendField(b, h.Fused.Agg.String()), h.Fused.Prog.Signature())
	}
	return string(b)
}

// appendField appends ':' and s to a signature.
func appendField(b []byte, s string) []byte { return append(append(b, ':'), s...) }

// sortedParamKeys returns the parameter names of a HOP in sorted order (nil
// for a HOP without parameters): every walk over parameters goes in this
// order, so listings, consumer orders and signatures repeat run to run.
func sortedParamKeys(params map[string]*Hop) []string {
	if len(params) == 0 {
		return nil
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// DAG is the HOP DAG of one basic block: the roots are the transient writes
// (block outputs) plus side-effecting operations like print and write.
//
// The DAG caches its post-order (Nodes) and its consumer counts
// (consumerCounts), so the passes of one compile share one traversal. Adding
// a root drops both, and so does a pass that rewires edges (rewire,
// invalidate). CheckCaches compares whatever is cached against a fresh
// traversal.
type DAG struct {
	Roots []*Hop

	order     []*Hop        // cached post-order; nil when stale
	consumers map[int64]int // cached consumer counts; nil when stale
	nroots    int           // len(Roots) when the caches were filled
}

// Nodes returns all nodes of the DAG in a post-order (inputs before
// consumers), visiting shared subexpressions once. The slice is cached until
// a root is added or a pass rewires edges; callers must not modify it.
func (d *DAG) Nodes() []*Hop {
	if len(d.Roots) != d.nroots {
		d.order, d.consumers, d.nroots = nil, nil, len(d.Roots)
	}
	if d.order == nil {
		d.order = postOrder(d.Roots)
	}
	return d.order
}

// walkEpoch numbers the traversals: a HOP visited by traversal e carries
// e in walked, so a traversal needs no visited set.
var walkEpoch atomic.Uint64

// postOrder walks the DAG below roots, inputs first and parameters in sorted
// key order: the post-order decides EXPLAIN listings, consumer orders and
// lowering order, all of which must be identical across runs.
func postOrder(roots []*Hop) []*Hop {
	w := walker{epoch: walkEpoch.Add(1)}
	for _, r := range roots {
		w.visit(r)
	}
	return w.order
}

type walker struct {
	epoch uint64
	order []*Hop
}

func (w *walker) visit(h *Hop) {
	if h == nil || h.walked == w.epoch {
		return
	}
	h.walked = w.epoch
	for _, in := range h.Inputs {
		w.visit(in)
	}
	for _, k := range sortedParamKeys(h.Params) {
		w.visit(h.Params[k])
	}
	w.order = append(w.order, h)
}

// countConsumers returns, per HOP id, the number of consuming edges from
// nodes (a hop referenced twice by one consumer counts twice).
func countConsumers(nodes []*Hop) map[int64]int {
	counts := make(map[int64]int, len(nodes))
	for _, h := range nodes {
		for _, in := range h.Inputs {
			counts[in.ID]++
		}
		for _, p := range h.Params {
			counts[p.ID]++
		}
	}
	return counts
}

// consumerCounts returns the DAG's consumer counts per HOP id, cached with
// the post-order. A matcher that rewires fetches them again after each
// rewrite.
func (d *DAG) consumerCounts() map[int64]int {
	nodes := d.Nodes()
	if d.consumers == nil {
		d.consumers = countConsumers(nodes)
	}
	return d.consumers
}

// rewire gives h the inputs ins and drops the DAG's cached traversal: the
// next Nodes or consumerCounts walks the rewired DAG.
func (d *DAG) rewire(h *Hop, ins []*Hop) {
	h.Inputs = ins
	d.invalidate()
}

// invalidate drops both caches, after a pass that rewired edges in place.
func (d *DAG) invalidate() {
	d.order, d.consumers = nil, nil
}

// CheckCaches reports, as an error, where the cached post-order or consumer
// counts differ from a fresh traversal of the DAG's current edges; nothing
// cached is nothing to differ. It is the invariant every pass keeps.
func (d *DAG) CheckCaches() error {
	if len(d.Roots) != d.nroots {
		return nil // Nodes refills both
	}
	fresh := postOrder(d.Roots)
	if d.order != nil && !slices.Equal(d.order, fresh) {
		return fmt.Errorf("hops: cached post-order has %d nodes, a fresh walk %d, or another order", len(d.order), len(fresh))
	}
	if d.consumers == nil {
		return nil
	}
	want := countConsumers(fresh)
	if len(want) != len(d.consumers) {
		return fmt.Errorf("hops: cached consumer counts cover %d hops, a fresh walk %d", len(d.consumers), len(want))
	}
	for _, h := range fresh {
		if got, n := d.consumers[h.ID], want[h.ID]; got != n {
			return fmt.Errorf("hops: hop %d has %d cached consumers, a fresh walk counts %d", h.ID, got, n)
		}
	}
	return nil
}

// explainIDs maps raw HOP IDs to DAG-local ordinals (post-order position,
// starting at 1). Raw IDs come from a process-global counter, so printing
// them would make EXPLAIN output depend on how many DAGs were built earlier
// in the process; the ordinals make the listing of a given plan identical
// across compilations and runs.
func explainIDs(nodes []*Hop) map[int64]int {
	ids := make(map[int64]int, len(nodes))
	for i, h := range nodes {
		ids[h.ID] = i + 1
	}
	return ids
}
