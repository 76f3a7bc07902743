package instructions

import (
	"github.com/systemds/systemds-go/internal/compress"
	"github.com/systemds/systemds-go/internal/runtime"
)

// CompressInst executes a compression decision site (opcode "compress"): the
// sample-based planner in internal/compress estimates per-column cardinality
// and run structure, picks the cheapest encoding per column, and rejects
// compression outright when the estimated ratio is below its threshold. A
// rejected attempt (or a non-matrix operand) rebinds the original value, so
// the site is always safe to execute.
type CompressInst struct {
	base
	plan // EstBytes is the estimated uncompressed size of the operand here
	In   Operand
}

// NewCompress creates a compress instruction.
func NewCompress(out string, in Operand) *CompressInst {
	inst := &CompressInst{plan: unplanned, In: in}
	inst.base = newBase("compress", []string{out}, "", in)
	return inst
}

// Execute implements runtime.Instruction.
func (i *CompressInst) Execute(ctx *runtime.Context) error {
	d, err := i.In.Resolve(ctx)
	if err != nil {
		return err
	}
	mo, ok := d.(*runtime.MatrixObject)
	if !ok {
		// already compressed, scalar, frame, blocked or federated: the site
		// does not apply; keep the value as-is
		ctx.Set(i.outs[0], d)
		return nil
	}
	blk, err := mo.Acquire()
	if err != nil {
		return err
	}
	cm, _, accepted := compress.Compress(blk, compress.PlannerConfig{}, ctx.Config.Threads())
	if !accepted {
		ctx.Count(func(s *runtime.RunStats) { s.CompressStats.Rejected++ })
		ctx.RecordPlan(i.opcode, "reject", i.EstBytes, blk.InMemorySize())
		ctx.Set(i.outs[0], d)
		return nil
	}
	uncompressed, compressed := blk.InMemorySize(), cm.InMemorySize()
	ctx.Count(func(s *runtime.RunStats) {
		s.CompressStats.Compressions++
		s.CompressStats.BytesUncompressed += uncompressed
		s.CompressStats.BytesCompressed += compressed
	})
	ctx.RecordPlan(i.opcode, cm.EncodingSummary(), i.EstBytes, cm.InMemorySize())
	ctx.SetCompressed(i.outs[0], cm)
	return nil
}
