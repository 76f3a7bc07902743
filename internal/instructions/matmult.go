package instructions

import (
	"fmt"

	"github.com/systemds/systemds-go/internal/compress"
	"github.com/systemds/systemds-go/internal/dist"
	"github.com/systemds/systemds-go/internal/hops"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
	"github.com/systemds/systemds-go/internal/types"
)

// TransposedFederated marks the transpose of a federated matrix in the symbol
// table; matrix multiplications recognize it and push the computation to the
// federated sites instead of collecting the data.
type TransposedFederated struct {
	Source *runtime.FederatedObject
}

// DataType implements runtime.Data.
func (t *TransposedFederated) DataType() types.DataType { return types.Matrix }

// String implements runtime.Data.
func (t *TransposedFederated) String() string {
	return fmt.Sprintf("t(%s)", t.Source.String())
}

// MatMultInst computes matrix multiplication (opcode "ba+*") with local,
// BLAS-like, distributed and federated execution paths. For distributed
// execution the instruction is the executor of a named physical plan: the
// compiler's cost-based planner (hops/cost.go) decides the strategy at
// compile time and annotates it here; the runtime never re-decides against
// ad-hoc size checks.
type MatMultInst struct {
	base
	Left, Right Operand
	ExecType    types.ExecType
	// BlockedOut keeps the result in blocked representation (set by the
	// compiler when a downstream consumer is also a Dist operator).
	BlockedOut bool
	// Method is the physical strategy chosen by the planner for distributed
	// execution (broadcast-left/right, grid join, shuffle); MMAuto for CP
	// plans or plans compiled before sizes were known.
	Method types.MatMultMethod
	// EstBytes is the planner's estimated output size in bytes (-1 unknown),
	// surfaced next to the actual bytes in the plan statistics.
	EstBytes int64
}

// NewMatMult creates a matrix multiplication instruction.
func NewMatMult(out string, left, right Operand) *MatMultInst {
	inst := &MatMultInst{Left: left, Right: right, EstBytes: -1}
	inst.base = newBase("ba+*", []string{out}, "", left, right)
	return inst
}

// Execute implements runtime.Instruction.
func (i *MatMultInst) Execute(ctx *runtime.Context) error {
	l, err := i.Left.Resolve(ctx)
	if err != nil {
		return err
	}
	r, err := i.Right.Resolve(ctx)
	if err != nil {
		return err
	}
	// federated paths
	if tf, ok := l.(*TransposedFederated); ok {
		res, err := xtyFederated(ctx, tf.Source, i.Right, i.opcode)
		if err != nil {
			return err
		}
		ctx.SetMatrix(i.outs[0], res)
		return nil
	}
	if fo, ok := l.(*runtime.FederatedObject); ok {
		rb, err := i.Right.MatrixBlockFor(ctx, i.opcode)
		if err != nil {
			return err
		}
		res, err := fo.Fed.MatVec(rb)
		if err != nil {
			return err
		}
		ctx.SetMatrix(i.outs[0], res)
		return nil
	}
	threads := ctx.Config.Threads()
	// compressed paths: the hot MV/VM products of iterative algorithms run
	// directly on the compressed representation; any other shape combination
	// falls through and decompresses transparently (counted)
	if done, err := i.executeCompressed(ctx, l, r, threads); done {
		return err
	}
	if useDist(ctx, i.ExecType, l, r) {
		return i.executeDistributed(ctx, l, r, threads)
	}
	lb, err := i.Left.MatrixBlockFor(ctx, i.opcode)
	if err != nil {
		return err
	}
	rb, err := i.Right.MatrixBlockFor(ctx, i.opcode)
	if err != nil {
		return err
	}
	var res *matrix.MatrixBlock
	if ctx.Config.UseBLAS && !lb.IsSparse() && !rb.IsSparse() {
		res, err = matrix.MultiplyBLAS(lb, rb, threads)
	} else {
		res, err = matrix.Multiply(lb, rb, threads)
	}
	if err != nil {
		return fmt.Errorf("instructions: matrix multiplication: %w", err)
	}
	ctx.SetMatrix(i.outs[0], res)
	return nil
}

// executeCompressed runs matrix multiplications with a compressed operand
// directly on the column groups when the shape is one the CLA kernels
// pre-aggregate: X %*% v (matrix-vector), X %*% B (matrix right-hand side),
// t(X) %*% v and t(X) %*% B on the lazy transpose marker, t(X) %*% X
// (compressed TSMM), and u %*% X (vector-matrix). It reports whether it
// handled the operation.
func (i *MatMultInst) executeCompressed(ctx *runtime.Context, l, r runtime.Data, threads int) (bool, error) {
	// X %*% v / X %*% B with compressed X
	if co, ok := resolveCompressed(l); ok {
		if _, rc, rok := matrixDims(r); rok {
			cm, err := co.Compressed()
			if err != nil {
				return true, err
			}
			rb, err := i.Right.MatrixBlockFor(ctx, i.opcode)
			if err != nil {
				return true, err
			}
			var res *matrix.MatrixBlock
			var kernel string
			if useDist(ctx, i.ExecType, l, r) {
				// blocked flow: the compressed matrix partitions by row ranges of
				// its column groups (no decompression at the boundary) and the
				// dense right-hand side broadcasts
				p, err := co.Partitioned(ctx.Config.DistBlocksize)
				if err != nil {
					return true, err
				}
				kernel = "dist-cmv"
				if rc == 1 {
					res, err = dist.CompressedMatVec(p, rb, threads)
				} else {
					kernel = "dist-cmm"
					res, err = dist.CompressedMatMult(p, rb, threads)
				}
				if err != nil {
					return true, err
				}
				ctx.CountBlockedOp()
			} else {
				kernel = "cmv"
				if rc == 1 {
					res, err = cm.MatVec(rb, threads)
				} else {
					kernel = "cmm"
					res, err = cm.MatMultDense(rb, threads)
				}
				if err != nil {
					return true, err
				}
			}
			ctx.CountCompressedOp()
			ctx.RecordPlan(i.opcode, kernel+":"+cm.EncodingSummary(), i.EstBytes, res.InMemorySize())
			ctx.SetMatrix(i.outs[0], res)
			return true, nil
		}
	}
	// t(X) %*% ... with the lazy transpose of compressed X: the vector-matrix,
	// transposed matrix-matrix and TSMM kernels over X itself — no transpose
	// ever materializes
	if tc, ok := l.(*runtime.TransposedCompressedObject); ok {
		// t(X) %*% X over the same compressed object is the Gram matrix; a
		// defensive net under the tsmm rewrite (which normally catches this
		// form at the HOP level)
		if co, ok := resolveCompressed(r); ok && co == tc.Source {
			cm, err := co.Compressed()
			if err != nil {
				return true, err
			}
			res := cm.TSMM(threads)
			ctx.CountCompressedOp()
			ctx.RecordPlan(i.opcode, "ctsmm:"+cm.EncodingSummary(), i.EstBytes, res.InMemorySize())
			ctx.SetMatrix(i.outs[0], res)
			return true, nil
		}
		if _, _, rok := matrixDims(r); rok {
			cm, err := tc.Source.Compressed()
			if err != nil {
				return true, err
			}
			rb, err := i.Right.MatrixBlockFor(ctx, i.opcode)
			if err != nil {
				return true, err
			}
			res, kernel, err := xtyCompressed(cm, rb, threads)
			if err != nil {
				return true, err
			}
			ctx.CountCompressedOp()
			ctx.RecordPlan(i.opcode, kernel+":"+cm.EncodingSummary(), i.EstBytes, res.InMemorySize())
			ctx.SetMatrix(i.outs[0], res)
			return true, nil
		}
	}
	// u %*% X with compressed X and a row vector u
	if co, ok := resolveCompressed(r); ok {
		if lr, _, lok := matrixDims(l); lok && lr == 1 {
			cm, err := co.Compressed()
			if err != nil {
				return true, err
			}
			lb, err := i.Left.MatrixBlockFor(ctx, i.opcode)
			if err != nil {
				return true, err
			}
			res, err := cm.VecMat(lb, threads)
			if err != nil {
				return true, err
			}
			ctx.CountCompressedOp()
			ctx.RecordPlan(i.opcode, "cvm:"+cm.EncodingSummary(), i.EstBytes, res.InMemorySize())
			ctx.SetMatrix(i.outs[0], res)
			return true, nil
		}
	}
	return false, nil
}

// executeDistributed runs the physical matmult plan named by the compiler on
// the blocked backend. Without a compile-time plan (sizes were unknown at
// compile time, or an operand became blocked at runtime while the operator
// itself compiled to CP) the instruction re-invokes the planner's own
// strategy chooser with the operands' actual characteristics — the decision
// still lives in hops/cost.go, just with late-bound sizes. A stale broadcast
// plan whose broadcast side arrives blocked (possible when the operand
// stayed blocked across DAGs, invisible to the compiler) is downgraded to
// the grid join by representation: grid-joining the already-partitioned
// operands avoids the collect the broadcast would force.
func (i *MatMultInst) executeDistributed(ctx *runtime.Context, l, r runtime.Data, threads int) error {
	method := i.Method
	if method == types.MMAuto {
		method = lateBoundStrategy(ctx, l, r)
	}
	if method == types.MMBroadcastRight {
		if _, ok := r.(*runtime.BlockedMatrixObject); ok {
			method = types.MMGridJoin
		}
	}
	if method == types.MMBroadcastLeft {
		if _, ok := l.(*runtime.BlockedMatrixObject); ok {
			method = types.MMGridJoin
		}
	}
	var res *dist.BlockedMatrix
	switch method {
	case types.MMBroadcastRight:
		bl, err := resolveBlocked(ctx, i.Left)
		if err != nil {
			return err
		}
		rb, err := i.Right.MatrixBlockFor(ctx, i.opcode)
		if err != nil {
			return err
		}
		if res, err = dist.MatMult(bl, rb, threads); err != nil {
			return err
		}
	case types.MMBroadcastLeft:
		lb, err := i.Left.MatrixBlockFor(ctx, i.opcode)
		if err != nil {
			return err
		}
		br, err := resolveBlocked(ctx, i.Right)
		if err != nil {
			return err
		}
		if res, err = dist.MatMultBL(lb, br, threads); err != nil {
			return err
		}
	case types.MMGridJoin, types.MMShuffle:
		bl, br, err := resolveBlockedPair(ctx, i.Left, i.Right)
		if err != nil {
			return err
		}
		if method == types.MMGridJoin {
			res, err = dist.MatMultBB(bl, br, threads)
		} else {
			res, err = dist.MatMultShuffle(bl, br, threads)
		}
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("instructions: unknown matmult strategy %s", method)
	}
	return bindBlockedResult(ctx, i.outs[0], res, i.BlockedOut, i.opcode, method.String(), i.EstBytes)
}

// lateBoundStrategy resolves a matmult without a compile-time plan by running
// the compiler's cost-based chooser against the operands' runtime
// characteristics (metadata only — no data is touched). Operands without
// matrix metadata fall back to the representation default: broadcast a local
// right operand, grid-join a blocked one.
func lateBoundStrategy(ctx *runtime.Context, l, r runtime.Data) types.MatMultMethod {
	lr, lc, lok := matrixDims(l)
	rr, rc, rok := matrixDims(r)
	if lok && rok {
		bs := ctx.Config.DistBlocksize
		m, _ := hops.ChooseMatMultStrategyCalibrated(
			types.NewDataCharacteristics(lr, lc, bs, -1),
			types.NewDataCharacteristics(rr, rc, bs, -1),
			bs, ctx.Config.OperatorMemBudget, ctx.Config.Calib, ctx.Config.Profile)
		if m != types.MMAuto {
			return m
		}
	}
	if _, ok := r.(*runtime.BlockedMatrixObject); ok {
		return types.MMGridJoin
	}
	return types.MMBroadcastRight
}

// xtyCompressed computes t(X) %*% Y directly on the column groups of a
// compressed X — the vector-matrix kernel for a column vector Y, the
// transposed matrix-matrix kernel otherwise — and names the kernel for the
// plan record. It serves both the fused xty instruction and ba+* over the lazy
// transpose view.
func xtyCompressed(cm *compress.CompressedMatrix, y *matrix.MatrixBlock, threads int) (*matrix.MatrixBlock, string, error) {
	if y.Cols() != 1 {
		res, err := cm.TransMatMultDense(y, threads)
		return res, "cmm", err
	}
	rowVec, err := y.Reshape(1, y.Rows(), true)
	if err != nil {
		return nil, "", err
	}
	res, err := cm.VecMat(rowVec, threads)
	if err != nil {
		return nil, "", err
	}
	col, err := res.Reshape(res.Cols(), 1, true)
	return col, "cvm", err
}

// xtyFederated computes t(X) %*% Y for a federated X without collecting it:
// when Y is federated with aligned row ranges the multiplication is pushed
// down as xty; when Y is a local matrix its per-site row slices are shipped
// and the partial t(X_i) %*% Y_i results are summed (only d x k aggregates
// come back).
func xtyFederated(ctx *runtime.Context, x *runtime.FederatedObject, y Operand, opcode string) (*matrix.MatrixBlock, error) {
	yd, err := y.Resolve(ctx)
	if err != nil {
		return nil, err
	}
	if yf, ok := yd.(*runtime.FederatedObject); ok {
		return x.Fed.XtY(yf.Fed)
	}
	yb, err := y.MatrixBlockFor(ctx, opcode)
	if err != nil {
		return nil, err
	}
	return x.Fed.XtLocalY(yb)
}

// TSMMInst computes the fused t(X) %*% X (opcode "tsmm") with local,
// distributed and federated execution paths.
type TSMMInst struct {
	base
	In       Operand
	ExecType types.ExecType
	// EstBytes is the planner's estimated output size in bytes (-1 unknown),
	// recorded next to the actual bytes when the operator runs blocked.
	EstBytes int64
}

// NewTSMM creates a tsmm instruction.
func NewTSMM(out string, in Operand) *TSMMInst {
	inst := &TSMMInst{In: in, EstBytes: -1}
	inst.base = newBase("tsmm", []string{out}, "", in)
	return inst
}

// Execute implements runtime.Instruction.
func (i *TSMMInst) Execute(ctx *runtime.Context) error {
	d, err := i.In.Resolve(ctx)
	if err != nil {
		return err
	}
	if fo, ok := d.(*runtime.FederatedObject); ok {
		res, err := fo.Fed.TSMM()
		if err != nil {
			return err
		}
		ctx.SetMatrix(i.outs[0], res)
		return nil
	}
	threads := ctx.Config.Threads()
	// compressed input: the Gram matrix comes straight off the dictionaries
	// (counts-weighted self products, co-occurrence-weighted cross products) —
	// X never materializes
	if co, ok := resolveCompressed(d); ok {
		cm, err := co.Compressed()
		if err != nil {
			return err
		}
		if useDist(ctx, i.ExecType, d) {
			// blocked flow: row-range partitions of the column groups compute
			// per-partition Gram matrices off the shared dictionaries, summed in
			// ascending partition order
			p, err := co.Partitioned(ctx.Config.DistBlocksize)
			if err != nil {
				return err
			}
			res, err := dist.CompressedTSMM(p, threads)
			if err != nil {
				return err
			}
			ctx.CountBlockedOp()
			ctx.CountCompressedOp()
			ctx.RecordPlan(i.opcode, "dist-ctsmm:"+cm.EncodingSummary(), i.EstBytes, res.InMemorySize())
			ctx.SetMatrix(i.outs[0], res)
			return nil
		}
		res := cm.TSMM(threads)
		ctx.CountCompressedOp()
		ctx.RecordPlan(i.opcode, "ctsmm:"+cm.EncodingSummary(), i.EstBytes, res.InMemorySize())
		ctx.SetMatrix(i.outs[0], res)
		return nil
	}
	if useDist(ctx, i.ExecType, d) {
		bm, err := resolveBlockedData(ctx, d, i.In)
		if err != nil {
			return err
		}
		res, err := dist.TSMM(bm, threads)
		if err != nil {
			return err
		}
		ctx.CountBlockedOp()
		ctx.RecordPlan(i.opcode, "dist", i.EstBytes, res.InMemorySize())
		ctx.SetMatrix(i.outs[0], res)
		return nil
	}
	blk, err := i.In.MatrixBlockFor(ctx, i.opcode)
	if err != nil {
		return err
	}
	ctx.SetMatrix(i.outs[0], matrix.TSMM(blk, threads))
	return nil
}
