package matrix

import (
	"fmt"
	"math"
	"strings"
	"sync/atomic"
)

// This file implements the single-pass fused operator kernels of the fusion
// subsystem (DESIGN.md, "Fused operator pipelines"): cellwise pipelines
// described by a CellProgram and evaluated a row at a time — by FusedCell
// into one output block, by FusedAgg straight into an aggregate — without
// materializing any full-size intermediate, and the row-wise gradient kernel
// RowChain computing t(X) %*% f(X %*% v, …) in one pass over X.
//
// All fused kernels use fixed-chunk row partitioning: chunk boundaries depend
// only on the row count, partial aggregates are combined in chunk order, and
// rows are accumulated left-to-right within a chunk, so results are bitwise
// reproducible across thread counts.

// CellOpCode classifies one instruction of a cell program.
type CellOpCode uint8

// Cell program instruction codes.
const (
	// CellLoad pushes the value of argument Arg at the current cell.
	CellLoad CellOpCode = iota
	// CellUnary replaces the top of the stack with Un applied to it.
	CellUnary
	// CellBinary pops the right then left operand and pushes Bin(left, right).
	CellBinary
)

// CellInstr is one instruction of a cell program.
type CellInstr struct {
	Code CellOpCode
	Arg  int      // argument index for CellLoad
	Un   UnaryOp  // operation for CellUnary
	Bin  BinaryOp // operation for CellBinary
}

// CellMaxStack bounds the evaluation stack of a cell program; the HOP matcher
// refuses to fuse deeper expression trees.
const CellMaxStack = 8

// CellMaxInstrs bounds the length of a cell program.
const CellMaxInstrs = 64

// CellProgram is a stack program over the cells of a fused pipeline:
// arguments are the leaf operands (matrices of the output's shape, row or
// column vectors broadcast along it, or scalars), interior instructions are
// the fused cellwise operations. It is evaluated a row at a time: every
// instruction runs one row kernel (elementwise.go) over per-worker scratch
// rows. Programs are produced by the HOP-level pattern matcher
// (hops.FuseOperators) and by the single-operator drivers.
type CellProgram struct {
	Instrs  []CellInstr
	NumArgs int
	// Annihilating reports the structural guarantee that the program
	// evaluates to exactly 0 whenever the driver argument (the first matrix
	// argument of the output's shape) is 0, for finite values of the other
	// arguments. It enables the sparse-driver iteration that skips non-stored
	// cells; an Inf or NaN anywhere in another argument — scalar or matrix —
	// switches the iteration off for that run (0 * Inf is NaN), so a result
	// never depends on how the driver happens to be stored.
	Annihilating bool
}

// Validate checks stack discipline and argument bounds.
func (p *CellProgram) Validate() error {
	_, err := p.stackDepth()
	return err
}

// stackDepth validates the program and returns the evaluation stack depth it
// needs.
func (p *CellProgram) stackDepth() (maxDepth int, err error) {
	if len(p.Instrs) == 0 || len(p.Instrs) > CellMaxInstrs {
		return 0, fmt.Errorf("matrix: cell program has %d instructions (want 1..%d)", len(p.Instrs), CellMaxInstrs)
	}
	depth := 0
	for i, ins := range p.Instrs {
		switch ins.Code {
		case CellLoad:
			if ins.Arg < 0 || ins.Arg >= p.NumArgs {
				return 0, fmt.Errorf("matrix: cell instr %d loads argument %d of %d", i, ins.Arg, p.NumArgs)
			}
			depth++
			if maxDepth = max(maxDepth, depth); depth > CellMaxStack {
				return 0, fmt.Errorf("matrix: cell program exceeds max stack depth %d", CellMaxStack)
			}
		case CellUnary:
			if depth < 1 {
				return 0, fmt.Errorf("matrix: cell instr %d underflows the stack", i)
			}
		case CellBinary:
			if depth < 2 {
				return 0, fmt.Errorf("matrix: cell instr %d underflows the stack", i)
			}
			depth--
		default:
			return 0, fmt.Errorf("matrix: cell instr %d has unknown code %d", i, ins.Code)
		}
	}
	if depth != 1 {
		return 0, fmt.Errorf("matrix: cell program leaves %d values on the stack", depth)
	}
	return maxDepth, nil
}

// Signature renders a canonical description of the program, used as lineage
// data so that two fused instructions with different programs never share a
// lineage entry, and for EXPLAIN output.
func (p *CellProgram) Signature() string {
	var sb strings.Builder
	for i, ins := range p.Instrs {
		if i > 0 {
			sb.WriteByte(';')
		}
		switch ins.Code {
		case CellLoad:
			fmt.Fprintf(&sb, "L%d", ins.Arg)
		case CellUnary:
			fmt.Fprintf(&sb, "U%s", ins.Un)
		case CellBinary:
			fmt.Fprintf(&sb, "B%s", ins.Bin)
		}
	}
	return sb.String()
}

// CellArg is one operand of a fused pipeline: a matrix block — of the
// output's shape, or a 1 x cols / rows x 1 vector broadcast along it — or a
// scalar (Mat == nil).
type CellArg struct {
	Mat    *MatrixBlock
	Scalar float64
}

// --- deterministic fixed-chunk row partitioning -----------------------------

const (
	// fusedChunkRows is the target rows per chunk; boundaries depend only on
	// the row count so results are reproducible across thread counts.
	fusedChunkRows = 128
	// fusedMaxChunks caps the number of chunk partials.
	fusedMaxChunks = 256
	// parallelMinCells is the matrix size below which kernels stay
	// single-threaded (goroutine overhead dominates on small operands).
	parallelMinCells = 16 * 1024
)

// chunkWorkers resolves the worker count for a chunked run.
func chunkWorkers(num, threads, cells int) int {
	threads = resolveThreads(threads)
	if cells < parallelMinCells {
		return 1
	}
	if threads > num {
		threads = num
	}
	if threads < 1 {
		threads = 1
	}
	return threads
}

// runChunks executes fn(worker, chunk, r0, r1) for every fixed chunk of
// [0, rows), on nw workers of ParallelFor. Chunks are claimed dynamically but
// identified by index, so chunk-order combination stays deterministic.
func runChunks(rows, num, size, nw int, fn func(worker, chunk, r0, r1 int)) {
	_ = ParallelFor(num, nw, func(w, ci int) error {
		fn(w, ci, ci*size, min(ci*size+size, rows))
		return nil
	})
}

// --- the row-at-a-time evaluator ------------------------------------------------

// spanCells is the target number of cells one evaluation step covers when no
// leaf needs row structure: scratch rows of this length stay L1-resident.
const spanCells = 1024

// leafKind says how a fused argument is read.
type leafKind uint8

const (
	leafScalar leafKind = iota
	leafDense           // output-shaped, dense: a slice of the backing array
	leafSparse          // output-shaped, CSR: expanded into a scratch row
	leafRowVec          // 1 x cols: the same slice for every row
	leafColVec          // rows x 1: a per-row constant
)

// cellLeaf is one resolved argument of a fused run.
type cellLeaf struct {
	kind   leafKind
	scalar float64
	dense  []float64 // leafDense: all cells; leafRowVec, leafColVec: the vector
	csr    *CSR      // leafSparse
}

// finite reports whether the leaf holds no Inf and no NaN.
func (l *cellLeaf) finite() bool {
	vals := l.dense
	switch l.kind {
	case leafScalar:
		return l.scalar-l.scalar == 0
	case leafSparse:
		vals = l.csr.Values
	}
	for _, v := range vals {
		if v-v != 0 { // Inf - Inf and NaN - NaN are NaN
			return false
		}
	}
	return true
}

// cellVal is one evaluation-stack value over the current span: a row of
// values, or (row == nil) a scalar.
type cellVal struct {
	row []float64
	s   float64
}

// fusedRun is the shared immutable state of one FusedCell/FusedAgg execution.
type fusedRun struct {
	prog   *CellProgram
	leaves []cellLeaf
	depth  int // evaluation stack depth of prog
	rows   int
	cols   int
	driver int // index of the first output-shaped matrix argument
	// sparse selects the stored-cells iteration: the driver is CSR and the
	// program annihilates on it, so only its stored cells are evaluated.
	sparse bool
	// flat reports that no leaf needs row structure (scalars and dense
	// output-shaped matrices only): spans may cover any run of cells.
	flat bool
	// spanLen is the usual number of cells per evaluation step (the length
	// scratch rows are allocated with).
	spanLen int
}

// newFusedRun validates a program against its arguments and resolves how each
// argument is read.
func newFusedRun(prog *CellProgram, args []CellArg) (*fusedRun, error) {
	depth, err := prog.stackDepth()
	if err != nil {
		return nil, err
	}
	if len(args) != prog.NumArgs {
		return nil, fmt.Errorf("matrix: cell program got %d arguments, wants %d", len(args), prog.NumArgs)
	}
	fr := &fusedRun{prog: prog, leaves: make([]cellLeaf, len(args)), depth: depth, driver: -1, flat: true}
	for _, a := range args {
		if a.Mat != nil {
			fr.rows, fr.cols = max(fr.rows, a.Mat.rows), max(fr.cols, a.Mat.cols)
		}
	}
	for i, a := range args {
		l := &fr.leaves[i]
		switch m := a.Mat; {
		case m == nil:
			l.scalar = a.Scalar
		case m.rows == fr.rows && m.cols == fr.cols:
			if fr.driver < 0 {
				fr.driver = i
			}
			// sparse structures are compacted here, single-threaded, so
			// workers only perform lock-free reads
			if l.csr = m.csr(); l.csr != nil {
				l.kind, fr.flat = leafSparse, false
			} else {
				l.kind, l.dense = leafDense, m.dense
			}
		case m.rows == 1 && m.cols == fr.cols:
			l.kind, l.dense, fr.flat = leafRowVec, asDense(m).dense, false
		case m.cols == 1 && m.rows == fr.rows:
			l.kind, l.dense, fr.flat = leafColVec, asDense(m).dense, false
		default:
			return nil, fmt.Errorf("matrix: cellwise dimension mismatch: argument %d is %dx%d, want %dx%d or a vector along it",
				i, m.rows, m.cols, fr.rows, fr.cols)
		}
	}
	if fr.driver < 0 {
		return nil, fmt.Errorf("matrix: cellwise dimension mismatch: no argument has the output's shape")
	}
	fr.sparse = fr.leaves[fr.driver].kind == leafSparse && prog.Annihilating
	for i := 0; fr.sparse && i < len(fr.leaves); i++ {
		fr.sparse = i == fr.driver || fr.leaves[i].finite()
	}
	fr.spanLen = fr.cols
	if fr.flat {
		fr.spanLen = min(fr.rows*fr.cols, fr.spanRows()*fr.cols)
	}
	return fr, nil
}

// spanRows is the number of whole rows one evaluation step of the aggregates
// covers.
func (fr *fusedRun) spanRows() int {
	if fr.flat && fr.cols > 0 {
		return max(1, spanCells/fr.cols)
	}
	return 1
}

// cellWorker holds the per-worker scratch state of one fused execution.
type cellWorker struct {
	cur    []cellVal   // per-argument value over the current span
	stack  []cellVal   // evaluation stack
	gather [][]float64 // per-argument scratch: expanded sparse rows, gathered cells
	bufs   [][]float64 // result row of the operator at each stack slot
}

func (fr *fusedRun) newWorker() *cellWorker {
	vals := make([]cellVal, len(fr.leaves)+fr.depth)
	w := &cellWorker{cur: vals[:len(fr.leaves)], stack: vals[len(fr.leaves):]}
	for i, l := range fr.leaves {
		switch l.kind {
		case leafScalar:
			w.cur[i].s = l.scalar
		case leafRowVec:
			w.cur[i].row = l.dense
		}
	}
	return w
}

// scratch returns the per-argument scratch row, n cells long.
func (w *cellWorker) scratch(arg, n, capacity int) []float64 {
	if w.gather == nil {
		w.gather = make([][]float64, len(w.cur))
	}
	if cap(w.gather[arg]) < n {
		w.gather[arg] = make([]float64, max(n, capacity))
	}
	return w.gather[arg][:n]
}

// buf returns the result row of the operator at a stack slot, n cells long.
func (w *cellWorker) buf(slot, n, capacity int) []float64 {
	if w.bufs == nil {
		w.bufs = make([][]float64, len(w.stack))
	}
	if cap(w.bufs[slot]) < n {
		w.bufs[slot] = make([]float64, max(n, capacity))
	}
	return w.bufs[slot][:n]
}

// loadFlat points the arguments of a flat run at cells [i0, i0+n).
func (fr *fusedRun) loadFlat(w *cellWorker, i0, n int) {
	for i, l := range fr.leaves {
		if l.kind == leafDense {
			w.cur[i].row = l.dense[i0 : i0+n]
		}
	}
}

// loadRow points the arguments at row r: a sparse leaf is expanded into a
// per-worker scratch row, a column vector contributes its r-th value as the
// row's constant.
func (fr *fusedRun) loadRow(w *cellWorker, r int) {
	for i, l := range fr.leaves {
		switch l.kind {
		case leafDense:
			w.cur[i].row = l.dense[r*fr.cols : (r+1)*fr.cols]
		case leafSparse:
			buf := w.scratch(i, fr.cols, fr.cols)
			clear(buf)
			for p := l.csr.RowPtr[r]; p < l.csr.RowPtr[r+1]; p++ {
				buf[l.csr.ColIdx[p]] = l.csr.Values[p]
			}
			w.cur[i].row = buf
		case leafColVec:
			w.cur[i].s = l.dense[r]
		}
	}
}

// loadStored points the arguments at the driver's stored cells of row r
// (column indices cidx, values dvals): the other matrix arguments are
// gathered at those columns.
func (fr *fusedRun) loadStored(w *cellWorker, r int, cidx []int, dvals []float64) {
	for i, l := range fr.leaves {
		if i == fr.driver {
			w.cur[i].row = dvals
			continue
		}
		switch l.kind {
		case leafDense, leafRowVec:
			row := l.dense
			if l.kind == leafDense {
				row = row[r*fr.cols : (r+1)*fr.cols]
			}
			buf := w.scratch(i, len(cidx), fr.cols)
			for k, c := range cidx {
				buf[k] = row[c]
			}
			w.cur[i].row = buf
		case leafSparse:
			buf := w.scratch(i, len(cidx), fr.cols)
			for k, c := range cidx {
				buf[k] = l.csr.flatGet(r, c)
			}
			w.cur[i].row = buf
		case leafColVec:
			w.cur[i].s = l.dense[r]
		}
	}
}

// eval runs the program over the n cells loaded into w.cur and returns the
// result row. Each operator instruction is one row-kernel call writing the
// scratch row of its stack slot (in place when its left operand already lives
// there); the last one writes dst when dst is non-nil, and nnz is then the
// non-zero count of dst, taken by that one kernel as it writes. Every other
// kernel call — the interior instructions, and all of them when dst is nil —
// runs the kernels that do not count. With dst == nil the result may alias an
// argument or a scratch row, valid until the worker's next load, and nnz means
// nothing.
func (fr *fusedRun) eval(w *cellWorker, n int, dst []float64) (res []float64, nnz int) {
	instrs := fr.prog.Instrs
	sp := 0
	ran := false // the last instruction ran a kernel (into dst, when given)
	for k, ins := range instrs {
		ran = false
		if ins.Code == CellLoad {
			w.stack[sp] = w.cur[ins.Arg]
			sp++
			continue
		}
		var b cellVal
		if ins.Code == CellBinary {
			sp--
			b = w.stack[sp]
		}
		a := &w.stack[sp-1]
		// operators over scalars alone fold once per span
		if a.row == nil && b.row == nil {
			if ins.Code == CellUnary {
				a.s = pz(ins.Un.Apply(a.s))
			} else {
				a.s = pz(ins.Bin.Apply(a.s, b.s))
			}
			continue
		}
		out, final := dst, dst != nil && k == len(instrs)-1
		if !final {
			out = w.buf(sp-1, n, fr.spanLen)
		}
		switch {
		case ins.Code == CellUnary:
			nnz = unaryRow(ins.Un, out, a.row, final)
		case a.row == nil:
			nnz = binaryRowSV(ins.Bin, out, a.s, b.row, final)
		case b.row == nil:
			nnz = binaryRowVS(ins.Bin, out, a.row, b.s, final)
		default:
			nnz = binaryRowVV(ins.Bin, out, a.row, b.row, final)
		}
		a.row, ran = out, true
	}
	top := w.stack[0]
	if ran || (dst == nil && top.row != nil) {
		return top.row, nnz
	}
	// the program ends in a bare load or folds to a scalar: materialize it
	if dst == nil {
		dst = w.buf(0, n, fr.spanLen)
	}
	if top.row != nil {
		copy(dst, top.row)
	} else {
		for c := range dst {
			dst[c] = top.s
		}
	}
	return dst, int(countRowRangeNNZ(dst, n, 0, 1))
}

// --- fused cellwise kernel ----------------------------------------------------

// FusedCell evaluates a cell program into one output block: every interior
// result lives in a per-worker scratch row, only the root operator's values
// are written. The output carries its exact non-zero count and the
// representation ExamineAndApplySparsity picks for it, whatever the
// representation of the inputs.
//
// When the driver argument is sparse and the program annihilates on it, only
// the driver's stored cells are evaluated and the output keeps (at most) the
// driver's pattern. Cells are independent, so results do not depend on the
// thread count.
func FusedCell(prog *CellProgram, args []CellArg, threads int, rec *Recycler) (*MatrixBlock, error) {
	fr, err := newFusedRun(prog, args)
	if err != nil {
		return nil, err
	}
	if fr.sparse {
		return fr.cellStored(threads), nil
	}
	out := rec.Dense(fr.rows, fr.cols) // every cell is written below
	if fr.flat {
		out.nnz = fr.runFlat(out.dense, threads)
	} else {
		out.nnz = fr.countOver(fr.rows, elemThreads(threads, fr.rows*fr.cols), func(w *cellWorker, r0, r1 int) (nnz int) {
			for r := r0; r < r1; r++ {
				fr.loadRow(w, r)
				_, k := fr.eval(w, fr.cols, out.dense[r*fr.cols:(r+1)*fr.cols])
				nnz += k
			}
			return nnz
		})
	}
	return out.ExamineAndApplySparsity(), nil
}

// countOver splits [0, n) over up to threads workers — fn evaluates its part
// with a worker of its own and returns the non-zeros it wrote — and returns
// the total.
func (fr *fusedRun) countOver(n, threads int, fn func(w *cellWorker, i0, i1 int) int) int64 {
	var nnz atomic.Int64
	parallelRows(n, threads, func(i0, i1 int) { nnz.Add(int64(fn(fr.newWorker(), i0, i1))) })
	return nnz.Load()
}

// runFlat evaluates a flat run into dst, span by span, and returns the
// non-zero count of dst.
func (fr *fusedRun) runFlat(dst []float64, threads int) int64 {
	return fr.countOver(len(dst), elemThreads(threads, len(dst)), func(w *cellWorker, i0, i1 int) (nnz int) {
		for i := i0; i < i1; i += spanCells {
			m := min(spanCells, i1-i)
			fr.loadFlat(w, i, m)
			_, k := fr.eval(w, m, dst[i:i+m])
			nnz += k
		}
		return nnz
	})
}

// cellStored is FusedCell over the stored cells of a sparse driver: the output
// is CSR with the driver's pattern less the cells that evaluated to zero.
func (fr *fusedRun) cellStored(threads int) *MatrixBlock {
	ds := fr.leaves[fr.driver].csr
	vals := make([]float64, len(ds.Values))
	var nnz int64
	otherMats := false
	for i, l := range fr.leaves {
		otherMats = otherMats || (i != fr.driver && l.kind != leafScalar)
	}
	if !otherMats {
		// nothing to gather: the stored values are one flat run
		flat := *fr
		flat.leaves = append([]cellLeaf(nil), fr.leaves...)
		flat.leaves[fr.driver] = cellLeaf{kind: leafDense, dense: ds.Values}
		flat.rows, flat.cols, flat.flat, flat.spanLen = 1, len(vals), true, min(len(vals), spanCells)
		nnz = flat.runFlat(vals, threads)
	} else {
		nnz = fr.countOver(fr.rows, elemThreads(threads, len(vals)), func(w *cellWorker, r0, r1 int) (nnz int) {
			for r := r0; r < r1; r++ {
				lo, hi := ds.RowPtr[r], ds.RowPtr[r+1]
				fr.loadStored(w, r, ds.ColIdx[lo:hi], ds.Values[lo:hi])
				_, k := fr.eval(w, hi-lo, vals[lo:hi])
				nnz += k
			}
			return nnz
		})
	}
	out := &MatrixBlock{rows: fr.rows, cols: fr.cols, sparse: ds.withValues(vals, int(nnz)), nnz: nnz}
	return out.ExamineAndApplySparsity()
}

// CellMap returns the program as a function over rows of values of its one
// matrix argument, args[driver] (every other argument is a scalar): it maps
// src into dst, which may be the same slice. This is how a value-mapped
// representation — the dictionaries of a compressed matrix — runs a cellwise
// chain without ever materializing cells. The function is safe for concurrent
// calls.
func CellMap(prog *CellProgram, args []CellArg, driver int) (func(dst, src []float64), error) {
	depth, err := prog.stackDepth()
	if err != nil {
		return nil, err
	}
	if len(args) != prog.NumArgs || driver < 0 || driver >= len(args) {
		return nil, fmt.Errorf("matrix: cell map got %d arguments and driver %d, program wants %d", len(args), driver, prog.NumArgs)
	}
	// spanLen stays 0: scratch rows are sized by the first (longest) span
	fr := &fusedRun{prog: prog, leaves: make([]cellLeaf, len(args)), depth: depth, rows: 1, driver: driver, flat: true}
	for i, a := range args {
		if i != driver && a.Mat != nil {
			return nil, fmt.Errorf("matrix: cell map argument %d is a matrix, want a scalar", i)
		}
		fr.leaves[i].scalar = a.Scalar
	}
	fr.leaves[driver].kind = leafDense
	return func(dst, src []float64) {
		w := fr.newWorker()
		for i := 0; i < len(src); i += spanCells {
			m := min(spanCells, len(src)-i)
			w.cur[driver].row = src[i : i+m]
			fr.eval(w, m, dst[i:i+m])
		}
	}, nil
}

// --- fused cellwise-aggregate kernel ---------------------------------------

// FusedAgg evaluates a fused cellwise-aggregate pipeline in a single pass
// over the inputs: the cell program is evaluated row by row and the results
// flow directly into agg, a Fusable row of the aggregate table, with no
// full-size intermediate. A full aggregate returns a 1x1 block, a column
// aggregate 1 x cols and a row aggregate rows x 1.
//
// When the driver argument (the first output-shaped matrix argument) is
// sparse and the program annihilates on it, only the driver's stored cells
// are visited (see CellProgram.Annihilating). Results are reproducible across
// thread counts: partial aggregates are formed over fixed row chunks and
// combined in chunk order.
func FusedAgg(prog *CellProgram, agg *Aggregate, args []CellArg, threads int) (*MatrixBlock, error) {
	if !agg.Fusable {
		return nil, fmt.Errorf("matrix: aggregate %s does not fuse", agg.Name)
	}
	fr, err := newFusedRun(prog, args)
	if err != nil {
		return nil, err
	}
	num, size := FusedChunks(fr.rows)
	nw := chunkWorkers(num, threads, fr.rows*fr.cols)
	workers := make([]*cellWorker, nw)
	ds := fr.leaves[fr.driver].csr // read in sparse mode only
	// eachRow evaluates rows [r0, r1) and hands fn every row's values — in
	// sparse mode the values at the driver's stored columns cidx.
	eachRow := func(wi, r0, r1 int, fn func(r int, cidx []int, vals []float64)) {
		if workers[wi] == nil {
			workers[wi] = fr.newWorker()
		}
		w := workers[wi]
		if fr.sparse {
			for r := r0; r < r1; r++ {
				lo, hi := ds.RowPtr[r], ds.RowPtr[r+1]
				fr.loadStored(w, r, ds.ColIdx[lo:hi], ds.Values[lo:hi])
				vals, _ := fr.eval(w, hi-lo, nil)
				fn(r, ds.ColIdx[lo:hi], vals)
			}
			return
		}
		step := fr.spanRows()
		for r := r0; r < r1; r += step {
			m := min(step, r1-r)
			if fr.flat {
				fr.loadFlat(w, r*fr.cols, m*fr.cols)
			} else {
				fr.loadRow(w, r)
			}
			vals, _ := fr.eval(w, m*fr.cols, nil)
			for j := 0; j < m; j++ {
				fn(r+j, nil, vals[j*fr.cols:(j+1)*fr.cols])
			}
		}
	}

	red := agg.Red
	var out *MatrixBlock
	switch agg.Axis {
	case AggFull:
		partials := make([]float64, num)
		runChunks(fr.rows, num, size, nw, func(wi, ci, r0, r1 int) {
			acc := red.Initial()
			eachRow(wi, r0, r1, func(_ int, _ []int, vals []float64) {
				acc = red.fold(acc, red.Fold(red.Initial(), vals))
			})
			partials[ci] = acc
		})
		acc := red.Fold(red.Initial(), partials)
		if fr.sparse && int64(len(ds.Values)) < int64(fr.rows)*int64(fr.cols) {
			acc = red.fold(acc, 0) // skipped cells are exact zeros; fold them in once
		}
		out = NewDense(1, 1)
		out.Set(0, 0, agg.Finish(acc, nil, fr.rows, fr.cols))
		return out, nil

	case AggRow:
		out = NewDense(fr.rows, 1)
		runChunks(fr.rows, num, size, nw, func(wi, ci, r0, r1 int) {
			eachRow(wi, r0, r1, func(r int, _ []int, vals []float64) {
				out.dense[r] = red.Fold(0, vals)
			})
		})

	default:
		parts := make([][]float64, num)
		runChunks(fr.rows, num, size, nw, func(wi, ci, r0, r1 int) {
			buf := make([]float64, fr.cols)
			eachRow(wi, r0, r1, func(_ int, cidx []int, vals []float64) {
				if cidx == nil {
					red.foldCols(buf, vals)
					return
				}
				for i, v := range vals {
					buf[cidx[i]] += v
				}
			})
			parts[ci] = buf
		})
		out = NewDense(1, fr.cols)
		red.combineCols(out.dense, parts)
	}
	agg.Finish(0, out, fr.rows, fr.cols)
	return out, nil
}

// --- row-wise fused gradients -----------------------------------------------

// RowChain computes t(X) %*% f(X %*% v, a₁…aₖ) in one pass over X, without
// materializing the transpose, q = X %*% v or any intermediate of f. prog is
// f as a cell program over an m x 1 output: args[0] is q's slot (its value is
// ignored), every other argument is a scalar, an m x 1 vector or a 1 x 1
// matrix. Per XtYChunks(m, n, 1) chunk of rows, the kernel forms q for the
// chunk in the order X %*% v would (dense X: dotRows; CSR X: the stored
// entries ascending; a CSR v: only v's stored entries, ascending, as the
// dense-sparse multiply walks them), evaluates f over the chunk with the cell
// evaluator, and scatters the chunk's rows with XtYScatter; XtYSum combines
// the chunk partials. Every step is the unfused plan's — MV, the cellwise
// operators, then the row-scatter leg of TransposeMultiply — so the result is
// bitwise-equal to it at every thread count.
func RowChain(x, v *MatrixBlock, prog *CellProgram, args []CellArg, threads int) (*MatrixBlock, error) {
	m, n := x.rows, x.cols
	if v.cols != 1 || v.rows != n {
		return nil, fmt.Errorf("matrix: row chain vector is %dx%d, want %dx1", v.rows, v.cols, n)
	}
	depth, err := prog.stackDepth()
	if err != nil {
		return nil, err
	}
	if len(args) != prog.NumArgs {
		return nil, fmt.Errorf("matrix: row chain got %d arguments, program wants %d", len(args), prog.NumArgs)
	}
	num, size := 0, 0
	if m > 0 && n > 0 {
		num, size = XtYChunks(m, n, 1)
	}
	fr := &fusedRun{prog: prog, leaves: make([]cellLeaf, len(args)), depth: depth, rows: m, cols: 1, flat: true, spanLen: size}
	for i, a := range args {
		l := &fr.leaves[i]
		switch mat := a.Mat; {
		case i == 0:
			l.kind = leafDense // q, one chunk at a time
		case mat == nil:
			l.scalar = a.Scalar
		case mat.rows == m && mat.cols == 1:
			l.kind, l.dense = leafDense, asDense(mat).dense
		case mat.rows == 1 && mat.cols == 1:
			l.scalar = mat.Get(0, 0)
		default:
			return nil, fmt.Errorf("matrix: row chain argument %d is %dx%d, want %dx1, 1x1 or a scalar", i, mat.rows, mat.cols, m)
		}
	}
	dots := chainDots(x, v)
	nw := chunkWorkers(num, threads, m*n)
	workers := make([]*cellWorker, nw)
	// one allocation per chunk, as in TransposeMultiply
	parts := make([][]float64, num)
	runChunks(m, num, size, nw, func(wi, ci, r0, r1 int) {
		if workers[wi] == nil {
			workers[wi] = fr.newWorker()
		}
		w := workers[wi]
		q := w.scratch(0, r1-r0, size)
		clear(q)
		dots(q, r0, r1)
		for i, l := range fr.leaves {
			switch {
			case i == 0:
				w.cur[i].row = q
			case l.kind == leafDense:
				w.cur[i].row = l.dense[r0:r1]
			}
		}
		f, _ := fr.eval(w, r1-r0, nil)
		buf := make([]float64, n)
		XtYScatter(buf, 1, 0, x, r0, r1, f)
		parts[ci] = buf
	})
	return XtYSum(parts, n, 1), nil
}

// chainDots returns the function adding rows [r0, r1) of x %*% v onto q
// (q[0] is row r0), in the order Multiply(x, v) adds them for x's and v's
// representations.
func chainDots(x, v *MatrixBlock) func(q []float64, r0, r1 int) {
	n := x.cols
	switch {
	case !x.IsSparse() && !v.IsSparse():
		return func(q []float64, r0, r1 int) { dotRows(q, x.dense[r0*n:r1*n], v.dense[:n]) }
	case !x.IsSparse():
		vs := v.csr()
		ks := nonEmptyRows(vs, n)
		return func(q []float64, r0, r1 int) {
			for r := r0; r < r1; r++ {
				row := x.dense[r*n : (r+1)*n]
				for _, k := range ks {
					xv := row[k]
					if xv == 0 {
						continue
					}
					for e := vs.RowPtr[k]; e < vs.RowPtr[k+1]; e++ {
						q[r-r0] += float64(xv * vs.Values[e])
					}
				}
			}
		}
	}
	xs := x.csr()
	if !v.IsSparse() {
		return func(q []float64, r0, r1 int) {
			for r := r0; r < r1; r++ {
				for p := xs.RowPtr[r]; p < xs.RowPtr[r+1]; p++ {
					q[r-r0] += float64(xs.Values[p] * v.dense[xs.ColIdx[p]])
				}
			}
		}
	}
	vs := v.csr()
	return func(q []float64, r0, r1 int) {
		for r := r0; r < r1; r++ {
			for p := xs.RowPtr[r]; p < xs.RowPtr[r+1]; p++ {
				k := xs.ColIdx[p]
				for e := vs.RowPtr[k]; e < vs.RowPtr[k+1]; e++ {
					q[r-r0] += float64(xs.Values[p] * vs.Values[e])
				}
			}
		}
	}
}

// scaledAdd accumulates s * row into buf, skipping a zero scale (the
// annihilation short-cut of the row-at-a-time scatter loops).
func scaledAdd(buf, row []float64, s float64) {
	if s == 0 {
		return
	}
	for j, xv := range row {
		buf[j] += float64(s * xv)
	}
}

// --- transpose-free t(X) %*% Y ------------------------------------------------

// xtyMaxPartialCells bounds the total size of the per-chunk partial outputs
// of the row-scatter leg of TransposeMultiply (8 MB of float64): the chunk
// count shrinks as the output grows. It is a function of the shapes alone, so
// the determinism contract is unaffected.
const xtyMaxPartialCells = 1 << 20

// TransposeMultiply computes t(x) %*% y in one pass over x, without
// materializing the transpose. Dense products above the GEMM crossover run on
// the tiled engine with the A side packed straight from x's column panels;
// output rows are disjoint per worker and every cell accumulates in ascending
// row order. Everything else — the t(X) %*% y vector shape of iterative
// algorithms, sparse x, degenerate widths — is the row-scatter leg
// (XtYWalk). Either way results are bitwise-reproducible across thread
// counts.
func TransposeMultiply(x, y *MatrixBlock, threads int) (*MatrixBlock, error) {
	if x.rows != y.rows {
		return nil, fmt.Errorf("matrix: transpose-multiply dimension mismatch t(%dx%d) %%*%% %dx%d", x.rows, x.cols, y.rows, y.cols)
	}
	m, n, k := x.rows, x.cols, y.cols
	if m == 0 || n == 0 || k == 0 {
		return NewDense(n, k), nil
	}
	yd := asDense(y)
	if !x.IsSparse() && UseTiledGEMM(n, m, k) {
		out := NewDense(n, k)
		out.nnz = accDenseDenseTiled(out, x, yd, resolveThreads(threads), true)
		return out, nil
	}
	return XtYWalk(x.walk(threads), m, n, k, func(p RowPiece) []float64 { return yd.dense[p.Lo*k:] })
}

// XtYWalk is the row-scatter leg of t(X) %*% Y for an m x n X that walk
// covers and a k-column Y: each chunk of XtYChunks(m, n, k) scatters its
// pieces' rows, in row order, into one n x k partial of its own (XtYScatter;
// one allocation per chunk, not one slab, so that partials on different
// workers share no cache line), and the partials are added in chunk order
// (XtYSum). y returns Y's rows beside a piece's, from the one beside its row
// Lo on, k values each.
func XtYWalk(walk ChunkWalk, m, n, k int, y func(p RowPiece) []float64) (*MatrixBlock, error) {
	num, size := XtYChunks(m, n, k)
	parts := make([][]float64, num)
	err := walk(num, size, func(ci int, pieces []RowPiece) {
		part := make([]float64, n*k)
		for _, p := range pieces {
			ys, col := y(p), 0
			for _, b := range p.Blocks {
				XtYScatter(part, k, col, b, p.Lo, p.Hi, ys)
				col += b.cols
			}
		}
		parts[ci] = part
	})
	if err != nil {
		return nil, err
	}
	return XtYSum(parts, n, k), nil
}

// FusedChunks is the fixed row chunking of the fused and plain aggregates
// over a rows-row operand: num chunks of size rows each (the last one
// shorter), functions of rows alone.
func FusedChunks(rows int) (num, size int) {
	if rows <= 0 {
		return 0, 0
	}
	num = (rows + fusedChunkRows - 1) / fusedChunkRows
	if num > fusedMaxChunks {
		num = fusedMaxChunks
	}
	size = (rows + num - 1) / num
	num = (rows + size - 1) / size
	return num, size
}

// XtYChunks is the row chunking of the row-scatter leg of t(X) %*% Y for an
// m x n X and a k-column Y: num chunks of size rows each (the last one
// shorter), a function of the shapes alone.
func XtYChunks(m, n, k int) (num, size int) {
	num, size = FusedChunks(m)
	if maxNum := max(1, xtyMaxPartialCells/(n*k)); num > maxNum {
		size = (m + maxNum - 1) / maxNum
		num = (m + size - 1) / size
	}
	return num, size
}

// XtYScatter adds t(x[r0:r1, :]) %*% Y's matching rows onto part, the n x k
// row-major partial output of one chunk: out[col+j, :] += x[r, j] * Y[r, :].
// col is the column of X at which x starts (a block of a wider X fills its
// own rows of part), and y holds Y's rows densely from the one beside x's
// row r0 on, k values each. A row adds nothing where its scale is zero; otherwise every cell adds its
// rows in ascending order, so covering a chunk block by block in row order
// gives the bits of one call over the whole chunk.
func XtYScatter(part []float64, k, col int, x *MatrixBlock, r0, r1 int, y []float64) {
	n := x.cols
	out := part[col*k : (col+n)*k]
	switch {
	case x.sparse != nil:
		xs := x.csr()
		for r := r0; r < r1; r++ {
			yrow := y[(r-r0)*k : (r-r0+1)*k]
			for p := xs.RowPtr[r]; p < xs.RowPtr[r+1]; p++ {
				j := xs.ColIdx[p]
				scaledAdd(out[j*k:(j+1)*k], yrow, xs.Values[p])
			}
		}
	case k == 1:
		scatterRows(out, x.dense, n, r0, r1, y)
	default:
		for r := r0; r < r1; r++ {
			yrow := y[(r-r0)*k : (r-r0+1)*k]
			for j, xv := range x.dense[r*n : (r+1)*n] {
				scaledAdd(out[j*k:(j+1)*k], yrow, xv)
			}
		}
	}
}

// scatterRows adds y[r-r0] * x[r, :] onto out (n cells) for every row r of
// [r0, r1) with a non-zero scale, four such rows per pass over out: each cell
// still adds its rows' products one at a time in ascending row order, so the
// bits are those of scaledAdd row by row, with a quarter of the loads and
// stores of out.
func scatterRows(out, xd []float64, n, r0, r1 int, y []float64) {
	var rows [4]int
	var s [4]float64
	k := 0
	for r := r0; r < r1; r++ {
		if sc := y[r-r0]; sc != 0 {
			rows[k], s[k] = r*n, sc
			if k++; k == 4 {
				scaledAdd4(out, xd[rows[0]:rows[0]+n], xd[rows[1]:rows[1]+n], xd[rows[2]:rows[2]+n],
					xd[rows[3]:rows[3]+n], s)
				k = 0
			}
		}
	}
	for i := 0; i < k; i++ {
		scaledAdd(out, xd[rows[i]:rows[i]+n], s[i])
	}
}

// scaledAdd4 adds s[0]*a + s[1]*b + s[2]*c + s[3]*d onto out, one product at
// a time in that order per cell.
func scaledAdd4(out, a, b, c, d []float64, s [4]float64) {
	a, b, c, d = a[:len(out)], b[:len(out)], c[:len(out)], d[:len(out)]
	for j := range out {
		v := out[j]
		v += float64(s[0] * a[j])
		v += float64(s[1] * b[j])
		v += float64(s[2] * c[j])
		v += float64(s[3] * d[j])
		out[j] = v
	}
}

// XtYSum adds the chunk partials of the row-scatter leg in chunk order into
// the n x k result.
func XtYSum(parts [][]float64, n, k int) *MatrixBlock {
	out := NewDense(n, k)
	ReduceSum.combineCols(out.dense, parts)
	out.RecomputeNNZ()
	return out
}

// --- plain aggregates, chunk by chunk ---------------------------------------

// Reduction is the cell reduction of an aggregate.
type Reduction uint8

// Supported reductions; the zero Reduction is none.
const (
	ReduceSum Reduction = iota + 1
	ReduceSumSq
	ReduceMin
	ReduceMax
	ReduceNNZ // counts the cells that are not 0: a NaN counts, a -0 does not
)

// Initial is the reduction's starting value: 0 for the sums and the count,
// +Inf for min and -Inf for max.
func (op Reduction) Initial() float64 {
	switch op {
	case ReduceMin:
		return math.Inf(1)
	case ReduceMax:
		return math.Inf(-1)
	}
	return 0
}

// fold folds v into acc. Sums add it (the sum of squares its square), a
// count adds 1 when it is not 0; min and max keep it only when it compares
// below (above) acc, so a NaN is never kept and, of equal values, the first
// one stays.
func (op Reduction) fold(acc, v float64) float64 {
	switch {
	case op == ReduceSum:
		return acc + v
	case op == ReduceSumSq:
		return acc + float64(v*v)
	case op == ReduceNNZ:
		if v != 0 {
			return acc + 1
		}
		return acc
	case op == ReduceMin && v < acc, op == ReduceMax && v > acc:
		return v
	}
	return acc
}

// Fold folds vals into acc left to right, by fold's rule.
func (op Reduction) Fold(acc float64, vals []float64) float64 {
	if op == ReduceSum {
		for _, v := range vals {
			acc += v
		}
		return acc
	}
	for _, v := range vals {
		acc = op.fold(acc, v)
	}
	return acc
}

// foldCols folds row into out cell by cell.
func (op Reduction) foldCols(out, row []float64) {
	out = out[:len(row)]
	if op == ReduceSum {
		for c, v := range row {
			out[c] += v
		}
		return
	}
	for c, v := range row {
		out[c] = op.fold(out[c], v)
	}
}

// partial is the reduction that combines op's partial results: a sum of
// squares squares its cells once, in the rows, and a count tests them once;
// both combine as a sum.
func (op Reduction) partial() Reduction {
	if op == ReduceSumSq || op == ReduceNNZ {
		return ReduceSum
	}
	return op
}

// initCols sets every cell of dst, a column aggregate's partial, to initial.
func (op Reduction) initCols(dst []float64) {
	for c := range dst {
		dst[c] = op.Initial()
	}
}

// combineCols sets dst to the chunk partials of a column aggregate folded
// cell by cell, in chunk order.
func (op Reduction) combineCols(dst []float64, parts [][]float64) {
	op.initCols(dst)
	for _, part := range parts {
		op.partial().foldCols(dst, part)
	}
}

// RowPiece is the part of a row chunk that one block row covers: its blocks
// in column order, the global row it starts at, and the chunk's rows in it,
// [Lo, Hi) local to it. A local matrix is one block row of one block.
type RowPiece struct {
	Blocks      []*MatrixBlock
	Row, Lo, Hi int
}

// A ChunkWalk runs fn, possibly concurrently, once per row chunk ci (num
// chunks of size rows, the last one shorter) on the pieces that cover it, in
// row order. The plain aggregates and XtYWalk run on a local matrix's walk or
// on the blocked backend's, whose chunks may cross block boundaries; as the
// drivers fix the order, both give the same bits.
type ChunkWalk func(num, size int, fn func(ci int, pieces []RowPiece)) error

// walk is m's ChunkWalk on up to threads workers; it never fails.
func (m *MatrixBlock) walk(threads int) ChunkWalk {
	return func(num, size int, fn func(int, []RowPiece)) error {
		nw := chunkWorkers(num, threads, m.rows*m.cols)
		pieces, blocks := make([]RowPiece, nw), []*MatrixBlock{m}
		runChunks(m.rows, num, size, nw, func(w, ci, r0, r1 int) {
			pieces[w] = RowPiece{blocks, 0, r0, r1}
			fn(ci, pieces[w:w+1])
		})
		return nil
	}
}

// walkFull folds op over every cell of walk's rows: each chunk of
// FusedChunks(rows) folds its rows' reductions in row order, and the chunk
// partials are folded in chunk order.
func walkFull(op Reduction, rows int, walk ChunkWalk) (float64, error) {
	num, size := FusedChunks(rows)
	partials := make([]float64, num)
	err := walk(num, size, func(ci int, pieces []RowPiece) {
		acc := op.Initial()
		for _, p := range pieces {
			for r := p.Lo; r < p.Hi; r++ {
				acc = op.partial().fold(acc, reduceRow(op, p.Blocks, r))
			}
		}
		partials[ci] = acc
	})
	return op.partial().Fold(op.Initial(), partials), err
}

// walkRows writes each row's reduction into dst, one cell per row of walk.
func walkRows(op Reduction, dst []float64, walk ChunkWalk) error {
	num, size := FusedChunks(len(dst))
	return walk(num, size, func(_ int, pieces []RowPiece) {
		for _, p := range pieces {
			for r := p.Lo; r < p.Hi; r++ {
				dst[p.Row+r] = reduceRow(op, p.Blocks, r)
			}
		}
	})
}

// walkCols writes each column's reduction over walk's rows into dst, one
// cell per column: each chunk of FusedChunks(rows) folds its rows,
// ascending, into a partial of its own, and the partials are folded in chunk
// order.
func walkCols(op Reduction, dst []float64, rows int, walk ChunkWalk) error {
	num, size := FusedChunks(rows)
	parts := make([][]float64, num)
	err := walk(num, size, func(ci int, pieces []RowPiece) {
		part := make([]float64, len(dst))
		op.initCols(part)
		for _, p := range pieces {
			reduceCols(op, part, p.Blocks, p.Lo, p.Hi)
		}
		parts[ci] = part
	})
	op.combineCols(dst, parts)
	return err
}

// reduceRow returns row r's reduction over one block row: one accumulator
// runs across the blocks, left to right; a CSR row folds its stored values
// and, for min and max when it leaves a cell unstored, a 0.
func reduceRow(op Reduction, blocks []*MatrixBlock, r int) float64 {
	acc := op.Initial()
	for _, b := range blocks {
		if b.sparse == nil {
			acc = op.Fold(acc, b.dense[r*b.cols:(r+1)*b.cols])
			continue
		}
		s := b.csr()
		lo, hi := s.RowPtr[r], s.RowPtr[r+1]
		if acc = op.Fold(acc, s.Values[lo:hi]); hi-lo < b.cols && op.partial() != ReduceSum {
			acc = op.fold(acc, 0)
		}
	}
	return acc
}

// reduceCols folds rows [r0, r1) of one block row, ascending, onto dst, one
// cell per column; a CSR row folds its stored values and, for min and max,
// its zeros.
func reduceCols(op Reduction, dst []float64, blocks []*MatrixBlock, r0, r1 int) {
	col := 0
	for _, b := range blocks {
		out := dst[col : col+b.cols]
		col += b.cols
		if b.sparse == nil {
			for r := r0; r < r1; r++ {
				op.foldCols(out, b.dense[r*b.cols:(r+1)*b.cols])
			}
			continue
		}
		s := b.csr()
		var row []float64 // a CSR row with its zeros, for min and max
		if op.partial() != ReduceSum {
			row = make([]float64, b.cols)
		}
		for r := r0; r < r1; r++ {
			lo, hi := s.RowPtr[r], s.RowPtr[r+1]
			if row == nil {
				for p := lo; p < hi; p++ {
					out[s.ColIdx[p]] = op.fold(out[s.ColIdx[p]], s.Values[p])
				}
				continue
			}
			clear(row)
			for p := lo; p < hi; p++ {
				row[s.ColIdx[p]] = s.Values[p]
			}
			op.foldCols(out, row)
		}
	}
}
