package instructions

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"

	"github.com/systemds/systemds-go/internal/dist"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
	"github.com/systemds/systemds-go/internal/types"
)

// DataGenInst generates matrices: rand (uniform or normal), seq, and fill
// (the matrix(value, rows, cols) constructor). rand/seq planned for the
// blocked backend generate the partitions directly — block by block, with
// per-block derived seeds — so a huge generated matrix never materializes as
// one local allocation just to be cut apart again.
type DataGenInst struct {
	base
	plan        // rand/seq planned Dist generate blocked
	Kind string // "rand", "seq", "fill", "sample"
	// rand parameters
	Rows, Cols         Operand
	Min, Max, Sparsity Operand
	PDF                Operand // "uniform" or "normal"
	// Seed is the script's seed (rand and sample); without one (Unseeded)
	// every execution draws its own (Draw)
	Seed     Operand
	Unseeded bool
	// seq parameters
	From, To, Incr Operand
	// fill value
	Value Operand
	// sample parameters
	Population, Size Operand
	Replace          Operand
}

// NewRand creates a rand data generation instruction; a zero seed operand
// makes it unseeded.
func NewRand(out string, rows, cols, minV, maxV, sparsity, pdf, seed Operand) *DataGenInst {
	inst := &DataGenInst{Kind: "rand", Rows: rows, Cols: cols, Min: minV, Max: maxV, Sparsity: sparsity, PDF: pdf, plan: unplanned}
	inst.base = newBase("rand", []string{out}, "", rows, cols, minV, maxV, sparsity, pdf)
	inst.setSeed(seed)
	return inst
}

// NewSeq creates a seq data generation instruction.
func NewSeq(out string, from, to, incr Operand) *DataGenInst {
	inst := &DataGenInst{Kind: "seq", From: from, To: to, Incr: incr, plan: unplanned}
	inst.base = newBase("seq", []string{out}, "", from, to, incr)
	return inst
}

// NewFill creates a fill (matrix constructor) instruction.
func NewFill(out string, value, rows, cols Operand) *DataGenInst {
	inst := &DataGenInst{Kind: "fill", Value: value, Rows: rows, Cols: cols}
	inst.base = newBase("fill", []string{out}, "", value, rows, cols)
	return inst
}

// NewSample creates a sample instruction; a zero seed operand makes it
// unseeded.
func NewSample(out string, population, size, replace, seed Operand) *DataGenInst {
	inst := &DataGenInst{Kind: "sample", Population: population, Size: size, Replace: replace}
	inst.base = newBase("sample", []string{out}, "", population, size, replace)
	inst.setSeed(seed)
	return inst
}

// setSeed appends the seed to the traced operands, or marks the generator
// unseeded when the seed is the zero operand.
func (i *DataGenInst) setSeed(seed Operand) {
	if seed == (Operand{}) {
		i.Unseeded = true
		return
	}
	i.Seed = seed
	i.ins = append(i.ins, seed)
}

// seedDraws counts the seeds unseeded generators have drawn in the process.
var seedDraws atomic.Uint64

// Draw implements runtime.Drawing: an unseeded generator runs as a copy
// seeded with the next draw — the splitmix64 mix of a process-wide counter,
// cut to 52 bits so the seed survives its float64 operand exactly. A seeded
// generator is returned as it is.
func (i *DataGenInst) Draw() runtime.Instruction {
	if !i.Unseeded {
		return i
	}
	z := seedDraws.Add(1) * 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	c := *i
	c.Unseeded = false
	c.ins = slices.Clone(i.ins)
	c.setSeed(LitInt(int64(z >> 12)))
	return &c
}

// Execute implements runtime.Instruction.
func (i *DataGenInst) Execute(ctx *runtime.Context) error {
	switch i.Kind {
	case "rand":
		rows, err := i.Rows.Int(ctx)
		if err != nil {
			return err
		}
		cols, err := i.Cols.Int(ctx)
		if err != nil {
			return err
		}
		minV, err := i.Min.Float64(ctx)
		if err != nil {
			return err
		}
		maxV, err := i.Max.Float64(ctx)
		if err != nil {
			return err
		}
		sp, err := i.Sparsity.Float64(ctx)
		if err != nil {
			return err
		}
		pdf, err := i.PDF.StringValue(ctx)
		if err != nil {
			return err
		}
		seedF, err := i.Seed.Float64(ctx)
		if err != nil {
			return err
		}
		seed := int64(seedF)
		if seed < 0 {
			seed = 42
		}
		if i.ExecType == types.ExecDist && ctx.Config.DistEnabled {
			return i.generateBlockedRand(ctx, rows, cols, minV, maxV, sp, pdf, seed)
		}
		var m *matrix.MatrixBlock
		if pdf == "normal" {
			m = matrix.RandNormal(rows, cols, sp, seed)
		} else {
			m = matrix.RandUniform(rows, cols, minV, maxV, sp, seed)
		}
		ctx.SetMatrix(i.outs[0], m)
		return nil
	case "seq":
		from, err := i.From.Float64(ctx)
		if err != nil {
			return err
		}
		to, err := i.To.Float64(ctx)
		if err != nil {
			return err
		}
		incr, err := i.Incr.Float64(ctx)
		if err != nil {
			return err
		}
		if incr == 0 {
			incr = 1
		}
		if to < from && incr > 0 {
			incr = -incr
		}
		if i.ExecType == types.ExecDist && ctx.Config.DistEnabled {
			return i.generateBlockedSeq(ctx, from, to, incr)
		}
		ctx.SetMatrix(i.outs[0], matrix.Seq(from, to, incr))
		return nil
	case "fill":
		v, err := i.Value.Scalar(ctx)
		if err != nil {
			return err
		}
		rows, err := i.Rows.Int(ctx)
		if err != nil {
			return err
		}
		cols, err := i.Cols.Int(ctx)
		if err != nil {
			return err
		}
		if rows < 0 || cols < 0 {
			return fmt.Errorf("instructions: matrix(%v, rows=%d, cols=%d): negative dimensions", v, rows, cols)
		}
		m, err := fill(v, rows, cols)
		if err != nil {
			return err
		}
		ctx.SetMatrix(i.outs[0], m)
		return nil
	case "sample":
		pop, err := i.Population.Int(ctx)
		if err != nil {
			return err
		}
		size, err := i.Size.Int(ctx)
		if err != nil {
			return err
		}
		replaceS, err := i.Replace.Scalar(ctx)
		if err != nil {
			return err
		}
		seedF, err := i.Seed.Float64(ctx)
		if err != nil {
			return err
		}
		seed := int64(seedF)
		if seed < 0 {
			seed = 7
		}
		ctx.SetMatrix(i.outs[0], matrix.Sample(pop, size, replaceS.Bool(), seed))
		return nil
	default:
		return fmt.Errorf("instructions: unknown datagen kind %q", i.Kind)
	}
}

// generateBlockedRand builds the blocked matrix band by band: one generator
// draws each band of block rows in row-major order across its column blocks,
// so every cell is the cell the local kernel draws from the same seed, the
// full matrix never exists as one local allocation and no repartition is
// ever paid (DistStats.Partitions stays untouched).
func (i *DataGenInst) generateBlockedRand(ctx *runtime.Context, rows, cols int, minV, maxV, sp float64, pdf string, seed int64) error {
	bs := ctx.Config.DistBlocksize
	if bs <= 0 {
		bs = types.DefaultBlocksize
	}
	bm := &dist.BlockedMatrix{Rows: rows, Cols: cols, Blocksize: bs}
	gr, gc := bm.GridRows(), bm.GridCols()
	bm.Blocks = make([]*matrix.MatrixBlock, gr*gc)
	widths := make([]int, gc)
	for bj := range widths {
		widths[bj] = min(bs, cols-bj*bs)
	}
	gen := matrix.NewRandGen(minV, maxV, sp, pdf == "normal", seed)
	for bi := 0; bi < gr; bi++ {
		copy(bm.Blocks[bi*gc:], gen.Band(min(bs, rows-bi*bs), widths))
	}
	return bindBlockedResult(ctx, i.outs[0], bm, i.BlockedOut, i.opcode, "dist", i.EstBytes)
}

// generateBlockedSeq streams the sequence straight into its blocks with the
// same accumulation the local kernel uses, so the blocked result is bitwise
// identical to matrix.Seq without ever materializing the full vector.
func (i *DataGenInst) generateBlockedSeq(ctx *runtime.Context, from, to, incr float64) error {
	bs := ctx.Config.DistBlocksize
	if bs <= 0 {
		bs = types.DefaultBlocksize
	}
	n := matrix.SeqLength(from, to, incr)
	bm := &dist.BlockedMatrix{Rows: n, Cols: 1, Blocksize: bs}
	gr := bm.GridRows()
	bm.Blocks = make([]*matrix.MatrixBlock, gr)
	v := from
	for bi := 0; bi < gr; bi++ {
		br := min(bs, n-bi*bs)
		blk := matrix.NewDense(br, 1)
		for r := 0; r < br; r++ {
			blk.Set(r, 0, v)
			v += incr
		}
		bm.Blocks[bi] = blk
	}
	return bindBlockedResult(ctx, i.outs[0], bm, i.BlockedOut, i.opcode, "dist", i.EstBytes)
}

// fill builds matrix(v, rows, cols): a number fills every cell, and so does
// a string holding one; a string of several numbers separated by blanks is
// the cells themselves, row-major, as in SystemDS's string initialisation.
// Anything else in a string — a wrong count, a token that is not a number —
// is an error.
func fill(v *runtime.Scalar, rows, cols int) (*matrix.MatrixBlock, error) {
	if v.VT != types.String {
		return matrix.Fill(rows, cols, v.Float64()), nil
	}
	tokens := strings.Fields(v.S)
	vals := make([]float64, len(tokens))
	for k, tok := range tokens {
		x, err := strconv.ParseFloat(tok, 64)
		if err != nil {
			return nil, fmt.Errorf("instructions: matrix(%q, rows=%d, cols=%d): value %d, %q, is not a number",
				v.S, rows, cols, k+1, tok)
		}
		vals[k] = x
	}
	switch len(vals) {
	case 1:
		return matrix.Fill(rows, cols, vals[0]), nil
	case rows * cols:
		return matrix.NewDenseFromSlice(rows, cols, vals), nil
	}
	return nil, fmt.Errorf("instructions: matrix(%q, rows=%d, cols=%d): %d values for %d cells",
		v.S, rows, cols, len(vals), rows*cols)
}
