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
	"sort"
	"strings"
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
	KindReorg                    // transpose, diag, rev, order
	KindIndexing                 // right indexing X[a:b, c:d]
	KindLeftIndex                // left indexing target[a:b, c:d] = src
	KindDataGen                  // rand, seq, fill
	KindNary                     // cbind, rbind, n-ary min/max
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
	KindNary: "Nary", KindTernary: "Ternary", KindParamBuiltin: "ParamBuiltin",
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
// input identities, used for common subexpression elimination.
func (h *Hop) signature() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s:%s:%s", h.Kind, h.Op, h.Name)
	if h.Kind == KindLiteral {
		// the bits, not the printed value: NaNs of another sign or payload
		// are other literals
		fmt.Fprintf(&sb, ":%x:%q:%v:%v", math.Float64bits(h.LitValue), h.LitString, h.LitBool, h.ValueType)
	}
	for _, in := range h.Inputs {
		fmt.Fprintf(&sb, ":%d", in.ID)
	}
	if len(h.Params) > 0 {
		keys := make([]string, 0, len(h.Params))
		for k := range h.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, ":%s=%d", k, h.Params[k].ID)
		}
	}
	if h.Fused != nil {
		fmt.Fprintf(&sb, ":%s:%s", h.Fused.Agg, h.Fused.Prog.Signature())
	}
	return sb.String()
}

// DAG is the HOP DAG of one basic block: the roots are the transient writes
// (block outputs) plus side-effecting operations like print and write.
type DAG struct {
	Roots []*Hop
}

// Nodes returns all nodes of the DAG in a post-order (inputs before
// consumers), visiting shared subexpressions once.
func (d *DAG) Nodes() []*Hop {
	visited := map[int64]bool{}
	var order []*Hop
	var visit func(h *Hop)
	visit = func(h *Hop) {
		if h == nil || visited[h.ID] {
			return
		}
		visited[h.ID] = true
		for _, in := range h.Inputs {
			visit(in)
		}
		// visit params in sorted key order: the post-order returned here
		// decides EXPLAIN listings, consumer lists, and lowering order, all of
		// which must be identical across runs
		pkeys := make([]string, 0, len(h.Params))
		for k := range h.Params {
			pkeys = append(pkeys, k)
		}
		sort.Strings(pkeys)
		for _, k := range pkeys {
			visit(h.Params[k])
		}
		order = append(order, h)
	}
	for _, r := range d.Roots {
		visit(r)
	}
	return order
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
