package runtime

import (
	"github.com/systemds/systemds-go/internal/hops"
	"github.com/systemds/systemds-go/internal/lineage"
	"github.com/systemds/systemds-go/internal/matrix"
)

// tryPartialReuse attempts to answer an instruction from the reuse cache via
// a compensation plan over cached sub-results (Section 3.1: partial reuse).
// Two patterns cover the stepwise-linear-regression workload of Example 1,
// where each iteration trains on cbind(Xg, x_new):
//
//	tsmm(cbind(A, B))     = [[tsmm(A), t(A)%*%B], [t(B)%*%A, tsmm(B)]]
//	t(cbind(A, B)) %*% y  = rbind(t(A)%*%y, t(B)%*%y)
//
// When the result for the A-part is cached, only the (much cheaper) parts
// involving the newly added columns are computed.
func tryPartialReuse(ctx *Context, inst Instruction, inputItems []*lineage.Item, outItem *lineage.Item) (Data, bool) {
	switch inst.Opcode() {
	case "tsmm":
		return tryPartialTSMM(ctx, inst, inputItems)
	case "mmchain":
		return tryPartialXtYOverCBind(ctx, inst, inputItems)
	default:
		return nil, false
	}
}

// cachedBlock probes the reuse cache for a matrix intermediate and returns its
// local block. The hit's reference goes back as soon as the block is in hand:
// the block, not the cached object, is what a compensation plan keeps.
func cachedBlock(ctx *Context, item *lineage.Item) (*matrix.MatrixBlock, bool) {
	v, ok := ctx.Cache.Get(item)
	if !ok {
		return nil, false
	}
	if d, isData := v.(Data); isData {
		defer Release(d)
	}
	mo, ok := v.(*MatrixObject)
	if !ok {
		return nil, false
	}
	blk, err := mo.Acquire()
	return blk, err == nil
}

// tryPartialTSMM handles tsmm(X) where X was produced by cbind(A, B) and
// tsmm(A) is cached.
func tryPartialTSMM(ctx *Context, inst Instruction, inputItems []*lineage.Item) (Data, bool) {
	if len(inputItems) != 1 {
		return nil, false
	}
	cbindItem := inputItems[0]
	if cbindItem.Opcode != "cbind" || len(cbindItem.Inputs) != 2 {
		return nil, false
	}
	gramA, ok := cachedBlock(ctx, lineage.NewInstruction("tsmm", "", cbindItem.Inputs[0]))
	if !ok {
		return nil, false
	}
	// the full input X = cbind(A, B) is available as the instruction input
	x, err := ctx.GetMatrixBlockFor(inst.Inputs()[0], "reuse")
	if err != nil {
		return nil, false
	}
	k1 := gramA.Rows()
	if x.Cols() <= k1 {
		return nil, false
	}
	// Only the newly added columns B are materialized; the cross term
	// t(A) %*% B and the new block t(B) %*% B are both read off
	// t(B) %*% X = [t(B)%*%A, t(B)%*%B], avoiding any copy of the (large)
	// prefix A.
	b, err := matrix.Slice(x, 0, x.Rows(), k1, x.Cols())
	if err != nil {
		return nil, false
	}
	threads := ctx.Config.Threads()
	tbx, err := matrix.TransposeMultiply(b, x, threads)
	if err != nil {
		return nil, false
	}
	bta, err := matrix.Slice(tbx, 0, tbx.Rows(), 0, k1)
	if err != nil {
		return nil, false
	}
	btb, err := matrix.Slice(tbx, 0, tbx.Rows(), k1, x.Cols())
	if err != nil {
		return nil, false
	}
	// assemble [[gramA, t(bta)], [bta, btb]]
	n := x.Cols()
	out := matrix.NewDense(n, n)
	out, err = matrix.LeftIndex(out, gramA, 0, k1, 0, k1)
	if err != nil {
		return nil, false
	}
	out, err = matrix.LeftIndex(out, matrix.Transpose(bta), 0, k1, k1, n)
	if err != nil {
		return nil, false
	}
	out, err = matrix.LeftIndex(out, bta, k1, n, 0, k1)
	if err != nil {
		return nil, false
	}
	out, err = matrix.LeftIndex(out, btb, k1, n, k1, n)
	if err != nil {
		return nil, false
	}
	return NewMatrixObject(out, ctx.Pool), true
}

// tryPartialXtYOverCBind handles the fused t(cbind(A, B)) %*% y (the xty
// variant of mmchain) when t(A) %*% y is cached: the missing rows are
// t(B) %*% y, computed from the newly added columns alone.
func tryPartialXtYOverCBind(ctx *Context, inst Instruction, inputItems []*lineage.Item) (Data, bool) {
	if inst.LineageData() != hops.OpXtY || len(inputItems) != 2 {
		return nil, false
	}
	cbindItem, yItem := inputItems[0], inputItems[1]
	if cbindItem.Opcode != "cbind" || len(cbindItem.Inputs) != 2 {
		return nil, false
	}
	aty, ok := cachedBlock(ctx, lineage.NewInstruction("mmchain", hops.OpXtY, cbindItem.Inputs[0], yItem))
	if !ok {
		return nil, false
	}
	// inputs: cbind(A,B) and y are instruction input variables
	ins := inst.Inputs()
	if len(ins) != 2 {
		return nil, false
	}
	x, err := ctx.GetMatrixBlockFor(ins[0], "reuse")
	if err != nil {
		return nil, false
	}
	y, err := ctx.GetMatrixBlockFor(ins[1], "reuse")
	if err != nil {
		return nil, false
	}
	k1 := aty.Rows()
	if x.Cols() <= k1 {
		return nil, false
	}
	b, err := matrix.Slice(x, 0, x.Rows(), k1, x.Cols())
	if err != nil {
		return nil, false
	}
	bty, err := matrix.TransposeMultiply(b, y, ctx.Config.Threads())
	if err != nil {
		return nil, false
	}
	out, err := matrix.RBind(aty, bty)
	if err != nil {
		return nil, false
	}
	return NewMatrixObject(out, ctx.Pool), true
}
