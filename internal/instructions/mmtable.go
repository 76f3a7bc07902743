package instructions

import (
	"fmt"

	"github.com/systemds/systemds-go/internal/compress"
	"github.com/systemds/systemds-go/internal/dist"
	"github.com/systemds/systemds-go/internal/fed"
	"github.com/systemds/systemds-go/internal/hops"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
	"github.com/systemds/systemds-go/internal/types"
)

// This file is the kernel table of the matmult family: ba+*, tsmm, mmchain (a
// row chain) and its xty variant all resolve their operands, normalise, look up (operation,
// lhs representation, rhs representation, backend, shape) in mmTable and share
// one epilogue. It is where the matmult family tells the physical
// representations of a matrix apart — the cellwise operators do so in runCell
// (fused.go), the aggregates in AggInst's ladder over the aggregate table
// (unary.go). A representation pair without a row of its own reaches the
// wildcard row of its operation, which asks for local blocks — so a missing
// kernel is a counted decompression, a collect, or
// the "federated; operation requires a local matrix" error, never a silent
// special case. A compressed operand's rows match any placement: its kernel
// runs in-process on the column groups wherever the planner put the operator,
// so its bits do not depend on the placement. DESIGN.md ("Kernel table") is
// rendered from these rows.

// mmOp is an operation of the matmult family.
type mmOp string

const (
	opMatMult mmOp = "X %*% Y"
	opXtY     mmOp = "t(X) %*% Y" // without the transpose
	opTSMM    mmOp = "t(X) %*% X"
	opChain   mmOp = "t(X) %*% f(X %*% v)" // v travels as Y, f as prog over [q, args…]
)

// rep is the physical representation of an operand.
type rep string

const (
	repAny        rep = "any" // in a row: matches every representation
	repLocal      rep = "local"
	repBlocked    rep = "blocked"
	repCompressed rep = "compressed"
	repFederated  rep = "federated"
)

// repOf classifies a resolved operand. Scalars (promoted to 1x1) and a
// transposed view in any position but the left of a multiply are local: they
// are consumed through their local block.
func repOf(d runtime.Data) rep {
	switch d.(type) {
	case *runtime.BlockedMatrixObject:
		return repBlocked
	case *runtime.CompressedMatrixObject:
		return repCompressed
	case *runtime.FederatedObject:
		return repFederated
	}
	return repLocal
}

// resolveCompressed returns the compressed matrix behind a data object when
// the operand is a first-class compressed value.
func resolveCompressed(d runtime.Data) (*runtime.CompressedMatrixObject, bool) {
	co, ok := d.(*runtime.CompressedMatrixObject)
	return co, ok
}

// transposeView answers r' for the representations whose transpose stays a
// view: t(X) of a compressed or federated X is a runtime.Transposed over X,
// and the transpose of a view is its source. Either direction counts as a
// compressed operator when the source is compressed.
func transposeView(ctx *runtime.Context, d runtime.Data) (runtime.Data, bool) {
	tv, folds := d.(*runtime.Transposed)
	if folds {
		d = tv.Source
	}
	switch repOf(d) {
	case repCompressed:
		ctx.Count(func(s *runtime.RunStats) { s.CompressStats.CompressedOps++ })
	case repFederated:
	default:
		return nil, false
	}
	if folds {
		return d, true
	}
	return &runtime.Transposed{Source: d.(runtime.MatrixData)}, true
}

// mmWhere says which backend a row runs on.
type mmWhere string

const (
	anywhere mmWhere = "any"
	inCP     mmWhere = "CP"   // only when the operator does not run blocked
	inDist   mmWhere = "DIST" // only when it does (see useDist)
)

// mmShape is the set of operand shapes a row requires (or a call has), and
// mmLocals the set of operands a row's kernel takes as local blocks.
type (
	mmShape  uint8
	mmLocals uint8
)

const (
	rhsColVector mmShape = 1 << iota // Y has one column
	lhsRowVector                     // X has one row
	rowScatter                       // t(X) %*% Y is below the tiled crossover (matrix.UseTiledGEMM)
)

const (
	xLocal mmLocals = 1 << iota
	yLocal
)

// mmRow is one row of the kernel table. Before run is called the dispatcher has
// put what the row's key promises on the call: the compressed matrix of a
// compressed operand, and the local blocks named by locals — the counted
// fallback of MatrixData.LocalFor.
// tag is the plan-record tag (followed by ":" and the encoding summary when a
// compressed operand is involved); rows without one record no plan.
type mmRow struct {
	op       mmOp
	lhs, rhs rep
	where    mmWhere
	shape    mmShape
	tag      string
	locals   mmLocals
	kernel   string // the callee, for the rendered table
	run      func(c *mmCall) (*matrix.MatrixBlock, error)
}

// mmTable is searched top to bottom; the first matching row runs. Every
// operation ends in a wildcard row.
var mmTable = []mmRow{
	{opMatMult, repFederated, repAny, anywhere, 0, "", yLocal, "fed.MatVec",
		func(c *mmCall) (*matrix.MatrixBlock, error) { return c.fedX().MatVec(c.yb) }},
	{opMatMult, repCompressed, repAny, anywhere, rhsColVector, "cmv", yLocal, "compress.MatVec",
		func(c *mmCall) (*matrix.MatrixBlock, error) { return c.cm.MatVec(c.yb, c.threads) }},
	{opMatMult, repCompressed, repAny, anywhere, 0, "cmm", yLocal, "compress.MatMultDense",
		func(c *mmCall) (*matrix.MatrixBlock, error) { return c.cm.MatMultDense(c.yb, c.threads) }},
	{opMatMult, repAny, repCompressed, anywhere, lhsRowVector, "cvm", xLocal, "compress.VecMat",
		func(c *mmCall) (*matrix.MatrixBlock, error) { return c.cm.VecMat(c.xb, c.threads) }},
	{opMatMult, repAny, repAny, inDist, 0, "br, bl, gj", 0, "dist.MatMult, MatMultBL, MatMultBB", distMatMult},
	{opMatMult, repAny, repAny, inCP, 0, "", xLocal | yLocal, "matrix.Multiply",
		func(c *mmCall) (*matrix.MatrixBlock, error) { return matrix.Multiply(c.xb, c.yb, c.threads) }},

	{opXtY, repFederated, repFederated, anywhere, 0, "", 0, "fed.XtY",
		func(c *mmCall) (*matrix.MatrixBlock, error) { return c.fedX().XtY(c.yd.(*runtime.FederatedObject).Fed) }},
	{opXtY, repFederated, repAny, anywhere, 0, "", yLocal, "fed.XtLocalY",
		func(c *mmCall) (*matrix.MatrixBlock, error) { return c.fedX().XtLocalY(c.yb) }},
	{opXtY, repCompressed, repAny, anywhere, rhsColVector, "cvm", yLocal, "compress.VecMat",
		func(c *mmCall) (*matrix.MatrixBlock, error) { return compressedXtVec(c.cm, c.yb, c.threads) }},
	{opXtY, repCompressed, repAny, anywhere, 0, "cmm", yLocal, "compress.TransMatMultDense",
		func(c *mmCall) (*matrix.MatrixBlock, error) { return c.cm.TransMatMultDense(c.yb, c.threads) }},
	{opXtY, repAny, repAny, inDist, rowScatter, "dist", 0, "dist.XtY", distXtY},
	{opXtY, repAny, repAny, anywhere, 0, "", xLocal | yLocal, "matrix.TransposeMultiply",
		func(c *mmCall) (*matrix.MatrixBlock, error) { return matrix.TransposeMultiply(c.xb, c.yb, c.threads) }},

	{opTSMM, repFederated, repAny, anywhere, 0, "", 0, "fed.TSMM",
		func(c *mmCall) (*matrix.MatrixBlock, error) { return c.fedX().TSMM() }},
	{opTSMM, repCompressed, repAny, anywhere, 0, "ctsmm", 0, "compress.TSMM",
		func(c *mmCall) (*matrix.MatrixBlock, error) { return c.cm.TSMM(c.threads), nil }},
	{opTSMM, repAny, repAny, inDist, 0, "dist", 0, "dist.TSMM", distTSMM},
	{opTSMM, repAny, repAny, inCP, 0, "", xLocal, "matrix.TSMM",
		func(c *mmCall) (*matrix.MatrixBlock, error) { return matrix.TSMM(c.xb, c.threads), nil }},

	{opChain, repFederated, repAny, anywhere, 0, "", yLocal, "fed.MatVec, f, fed.XtLocalY", fedChain},
	{opChain, repCompressed, repAny, anywhere, 0, "row", yLocal, "compress.MatVec, f, compress.VecMat", compressedChain},
	{opChain, repAny, repAny, anywhere, 0, "row", xLocal | yLocal, "matrix.RowChain",
		func(c *mmCall) (*matrix.MatrixBlock, error) {
			return matrix.RowChain(c.xb, c.yb, c.prog, c.cargs, c.threads)
		}},
}

// mmCall is one instruction of the family on its way through the table.
type mmCall struct {
	plan                       // the compiler's placement, output form and size estimate
	method types.MatMultMethod // the planner's blocked strategy (ba+* only)
	op     mmOp
	opcode string
	out    string
	x, y   Operand
	prog   *matrix.CellProgram // a row chain's f, over [q, args…]; it counts as an mmchain in FusedStats
	args   []Operand

	ctx     *runtime.Context
	threads int
	xd, yd  runtime.Data
	// what the matched row asked for (see mmRow)
	xb, yb *matrix.MatrixBlock
	cargs  []matrix.CellArg // a row chain's arguments, q's slot empty
	cm     *compress.CompressedMatrix
	// set by the blocked matmult strategies: their result, bound blocked or
	// collected, and the strategy that ran as the plan-record tag
	blocked *dist.BlockedMatrix
	tag     string
}

func (c *mmCall) fedX() *fed.FederatedMatrix { return c.xd.(*runtime.FederatedObject).Fed }

// dispatch runs the call: resolve, normalise, look up, execute, bind.
func (c mmCall) dispatch(ctx *runtime.Context) error {
	c.ctx, c.threads = ctx, ctx.Config.Threads()
	var err error
	if c.xd, err = c.x.Resolve(ctx); err != nil {
		return err
	}
	if c.op != opTSMM {
		if c.yd, err = c.y.Resolve(ctx); err != nil {
			return err
		}
	}
	// normalise over a transposed view: t(view) %*% Y is the plain multiply
	// over the view's source; view %*% Y is the transpose-free product over the
	// source (the Gram matrix when Y is that source), and it runs where the
	// source lives, not where the planner placed a multiply over a
	// materialized transpose
	if tv, ok := c.xd.(*runtime.Transposed); ok {
		switch {
		case c.op == opXtY:
			c.op, c.xd = opMatMult, tv.Source
		case c.op == opMatMult && c.yd == runtime.Data(tv.Source):
			c.op, c.xd, c.ExecType = opTSMM, tv.Source, types.ExecCP
		case c.op == opMatMult:
			c.op, c.xd, c.ExecType = opXtY, tv.Source, types.ExecCP
		}
	}
	var shape mmShape
	xr, xc, xok := matrixDims(c.xd)
	_, yc, yok := matrixDims(c.yd)
	if xok && xr == 1 {
		shape |= lhsRowVector
	}
	if yok && yc == 1 {
		shape |= rhsColVector
	}
	if xok && yok && c.op == opXtY && !matrix.UseTiledGEMM(int(xc), int(xr), int(yc)) {
		shape |= rowScatter
	}
	where := inCP
	if useDist(ctx, c.ExecType, c.xd, c.yd) {
		where = inDist
	}
	lhs, rhs := repOf(c.xd), repOf(c.yd)
	for i := range mmTable {
		row := &mmTable[i]
		if row.op == c.op && (row.lhs == repAny || row.lhs == lhs) && (row.rhs == repAny || row.rhs == rhs) &&
			(row.where == anywhere || row.where == where) && row.shape&shape == row.shape {
			if err := c.run(row); err != nil {
				return fmt.Errorf("instructions: %s: %w", c.opcode, err)
			}
			return nil
		}
	}
	return fmt.Errorf("instructions: %s: no kernel for %s over %s and %s operands", c.opcode, c.op, lhs, rhs)
}

// run fetches what the row's key and locals promise its kernel, runs it, and
// ends in the one epilogue of the family: counters, plan record, output.
func (c *mmCall) run(row *mmRow) error {
	var err error
	if co, ok := resolveCompressed(c.xd); ok && row.lhs == repCompressed {
		if c.cm, err = co.Compressed(); err != nil {
			return err
		}
	} else if co, ok := resolveCompressed(c.yd); ok && row.rhs == repCompressed {
		if c.cm, err = co.Compressed(); err != nil {
			return err
		}
	}
	if row.locals&xLocal != 0 {
		if c.xb, err = runtime.LocalBlockOf(c.ctx, c.x.Name, c.xd, c.opcode); err != nil {
			return err
		}
	}
	if row.locals&yLocal != 0 {
		if c.yb, err = runtime.LocalBlockOf(c.ctx, c.y.Name, c.yd, c.opcode); err != nil {
			return err
		}
	}
	if c.prog != nil {
		args, err := cellArgs(c.ctx, c.args, c.opcode)
		if err != nil {
			return err
		}
		c.cargs = append([]matrix.CellArg{{}}, args...)
	}
	res, err := row.run(c)
	if err != nil {
		return err
	}
	if c.cm != nil {
		c.ctx.Count(func(s *runtime.RunStats) { s.CompressStats.CompressedOps++ })
	}
	if c.prog != nil {
		c.ctx.Count(func(s *runtime.RunStats) { s.FusedStats.MMChainOps++ })
	}
	tag := row.tag
	if c.tag != "" {
		tag = c.tag
	}
	if c.cm != nil && tag != "" {
		tag += ":" + c.cm.EncodingSummary()
	}
	if c.blocked != nil {
		return bindBlockedResult(c.ctx, c.out, c.blocked, c.BlockedOut, c.opcode, tag, c.EstBytes)
	}
	if row.where == inDist {
		c.ctx.Count(func(s *runtime.RunStats) { s.DistStats.BlockedOps++ })
	}
	if tag != "" {
		c.ctx.RecordPlan(c.opcode, tag, c.EstBytes, res.InMemorySize())
	}
	c.ctx.SetMatrix(c.out, res)
	return nil
}

// fedChain is two push-downs around f: q = X %*% v at the sites, f(q, …)
// here, t(X) %*% f at the sites again — nothing is collected.
func fedChain(c *mmCall) (*matrix.MatrixBlock, error) {
	q, err := c.fedX().MatVec(c.yb)
	if err == nil {
		q, err = c.chainF(q)
	}
	if err != nil {
		return nil, err
	}
	return c.fedX().XtLocalY(q)
}

// compressedChain runs a row chain over a compressed X: the MV kernel, f,
// then the vector-matrix kernel over X's column groups.
func compressedChain(c *mmCall) (*matrix.MatrixBlock, error) {
	q, err := c.cm.MatVec(c.yb, c.threads)
	if err == nil {
		q, err = c.chainF(q)
	}
	if err != nil {
		return nil, err
	}
	return compressedXtVec(c.cm, q, c.threads)
}

// chainF evaluates a row chain's f over the materialized q.
func (c *mmCall) chainF(q *matrix.MatrixBlock) (*matrix.MatrixBlock, error) {
	args := append([]matrix.CellArg{{Mat: q}}, c.cargs[1:]...)
	return matrix.FusedCell(c.prog, args, c.threads, nil)
}

// compressedXtVec computes t(X) %*% y for a column vector y as the
// vector-matrix kernel over the column groups of X itself.
func compressedXtVec(cm *compress.CompressedMatrix, y *matrix.MatrixBlock, threads int) (*matrix.MatrixBlock, error) {
	rowVec, err := y.Reshape(1, y.Rows(), true)
	if err != nil {
		return nil, err
	}
	res, err := cm.VecMat(rowVec, threads)
	if err != nil {
		return nil, err
	}
	return res.Reshape(res.Cols(), 1, true)
}

// distMatMult runs the physical matmult plan named by the compiler on the
// blocked backend. Without a compile-time plan (sizes were unknown at compile
// time, or an operand became blocked at runtime while the operator itself
// compiled to CP) it re-invokes the planner's own strategy chooser with the
// operands' actual characteristics — the decision still lives in hops/cost.go,
// just with late-bound sizes. A stale broadcast plan whose broadcast side
// arrives blocked (possible when the operand stayed blocked across DAGs,
// invisible to the compiler) is downgraded to the grid join by representation:
// grid-joining the already-partitioned operands avoids the collect the
// broadcast would force.
func distMatMult(c *mmCall) (*matrix.MatrixBlock, error) {
	method := c.method
	if method == types.MMAuto {
		method = lateBoundStrategy(c.ctx, c.xd, c.yd)
	}
	if (method == types.MMBroadcastRight && repOf(c.yd) == repBlocked) ||
		(method == types.MMBroadcastLeft && repOf(c.xd) == repBlocked) {
		method = types.MMGridJoin
	}
	c.tag = method.String()
	var res *dist.BlockedMatrix
	switch method {
	case types.MMBroadcastRight:
		bx, err := resolveBlockedData(c.ctx, c.xd, c.x)
		if err != nil {
			return nil, err
		}
		yb, err := runtime.LocalBlockOf(c.ctx, c.y.Name, c.yd, c.opcode)
		if err != nil {
			return nil, err
		}
		if res, err = dist.MatMult(bx, yb, c.threads); err != nil {
			return nil, err
		}
	case types.MMBroadcastLeft:
		xb, err := runtime.LocalBlockOf(c.ctx, c.x.Name, c.xd, c.opcode)
		if err != nil {
			return nil, err
		}
		by, err := resolveBlockedData(c.ctx, c.yd, c.y)
		if err != nil {
			return nil, err
		}
		if res, err = dist.MatMultBL(xb, by, c.threads); err != nil {
			return nil, err
		}
	case types.MMGridJoin:
		bx, by, err := resolveBlockedPair(c.ctx, c.x, c.y)
		if err != nil {
			return nil, err
		}
		if res, err = dist.MatMultBB(bx, by, c.threads); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown matmult strategy %s", method)
	}
	c.blocked = res
	return nil, nil
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
		m, _ := hops.ChooseMatMultStrategy(
			types.NewDataCharacteristics(lr, lc, bs, -1),
			types.NewDataCharacteristics(rr, rc, bs, -1),
			bs, ctx.Config.OperatorMemBudget)
		if m != types.MMAuto {
			return m
		}
	}
	if repOf(r) == repBlocked {
		return types.MMGridJoin
	}
	return types.MMBroadcastRight
}

// distXtY runs t(X) %*% Y on X's row blocks: X is partitioned once (or
// already blocked), and Y is read where it lives, never collected.
func distXtY(c *mmCall) (*matrix.MatrixBlock, error) {
	bx, err := resolveBlockedData(c.ctx, c.xd, c.x)
	if err != nil {
		return nil, err
	}
	if bo, ok := c.yd.(*runtime.BlockedMatrixObject); ok {
		by, err := bo.Blocked()
		if err != nil {
			return nil, err
		}
		return dist.XtY(bx, nil, by, c.threads)
	}
	yb, err := runtime.LocalBlockOf(c.ctx, c.y.Name, c.yd, c.opcode)
	if err != nil {
		return nil, err
	}
	return dist.XtY(bx, yb, nil, c.threads)
}

func distTSMM(c *mmCall) (*matrix.MatrixBlock, error) {
	bm, err := resolveBlockedData(c.ctx, c.xd, c.x)
	if err != nil {
		return nil, err
	}
	return dist.TSMM(bm, c.threads)
}
