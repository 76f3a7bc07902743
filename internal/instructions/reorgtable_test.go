package instructions

import (
	"fmt"
	"slices"
	"testing"

	"github.com/systemds/systemds-go/internal/compress"
	"github.com/systemds/systemds-go/internal/dist"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
	"github.com/systemds/systemds-go/internal/types"
)

// reorgRow returns the row of a DML reorg function.
func reorgRow(t *testing.T, name string) *matrix.Reorg {
	t.Helper()
	r, ok := matrix.ReorgOf(name)
	if !ok {
		t.Fatalf("no reorg row %s", name)
	}
	return r
}

// reorgCase is one call of a reorg row: its operands as local dense blocks.
type reorgCase struct {
	name  string
	row   *matrix.Reorg
	parts []*matrix.MatrixBlock
}

// reorgCases returns every row over the aggregate fixture (53 x 17, ragged
// at blocksize 7): t and rev of it, diag of its first column and of its
// leading 17 x 17 square, and cbind and rbind of 2, 3 and 5 slices whose
// offsets are block-aligned or not, over one and several blocks across.
func reorgCases(t *testing.T) []reorgCase {
	x := aggFixture()
	slice := func(rl, ru, cl, cu int) *matrix.MatrixBlock {
		s, err := matrix.Slice(x, rl, ru, cl, cu)
		if err != nil {
			t.Fatal(err)
		}
		return s.ToDense()
	}
	cases := []reorgCase{
		{"t(X)", reorgRow(t, "t"), []*matrix.MatrixBlock{x}},
		{"rev(X)", reorgRow(t, "rev"), []*matrix.MatrixBlock{x}},
		{"diag(X[, 1])", reorgRow(t, "diag"), []*matrix.MatrixBlock{slice(0, 53, 0, 1)}},
		{"diag(X[1:17, ])", reorgRow(t, "diag"), []*matrix.MatrixBlock{slice(0, 17, 0, 17)}},
	}
	for _, widths := range [][]int{{7, 10}, {5, 12}, {7, 7, 3}, {3, 4, 10}, {7, 7, 7, 7, 2}, {2, 3, 5, 1, 6}} {
		for _, rows := range []int{5, 53} { // one block row, several
			var parts []*matrix.MatrixBlock
			off := 0
			for _, w := range widths {
				parts = append(parts, slice(0, rows, off%17, off%17+min(w, 17-off%17)))
				off += w
			}
			cases = append(cases, reorgCase{fmt.Sprintf("cbind %v of %d rows", widths, rows), reorgRow(t, "cbind"), parts})
		}
	}
	for _, heights := range [][]int{{14, 20}, {9, 30}, {7, 14, 21}, {10, 4, 30}, {7, 7, 7, 7, 2}, {2, 3, 5, 1, 40}} {
		for _, cols := range []int{5, 17} { // one block column, several
			var parts []*matrix.MatrixBlock
			off := 0
			for _, h := range heights {
				parts = append(parts, slice(off%53, off%53+min(h, 53-off%53), 0, cols))
				off += h
			}
			cases = append(cases, reorgCase{fmt.Sprintf("rbind %v of %d cols", heights, cols), reorgRow(t, "rbind"), parts})
		}
	}
	return cases
}

// TestReorgTableOnEveryRung runs every row of the reorg table through
// ReorgInst on local dense, local CSR, compressed and blocked (blocksize 7)
// operands, and on dense operands the planner placed on the blocked
// backend, at 1, 2 and 3 threads, and holds each result to the row's local
// kernel over the dense operands, cells and non-zeros bitwise. It asserts
// the rung that ran: t of a compressed operand is a view (one compressed
// operator, no decompression); a row with a blocked kernel over blocked or
// DIST-placed operands runs blocked (one blocked operator, a dist plan
// record); anything else runs locally.
func TestReorgTableOnEveryRung(t *testing.T) {
	compressedCases := 0
	for _, c := range reorgCases(t) {
		want, err := c.row.Kernel(c.parts...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		compressed := make([]*compress.CompressedMatrix, len(c.parts))
		for k, p := range c.parts {
			if cm, _, ok := compress.Compress(p, compress.PlannerConfig{}, 1); ok {
				compressed[k] = cm
			}
		}
		for _, rep := range []string{"dense", "csr", "compressed", "blocked", "dense@DIST"} {
			if rep == "compressed" && slices.Contains(compressed, nil) {
				continue
			}
			if rep == "compressed" {
				compressedCases++
			}
			for _, th := range []int{1, 2, 3} {
				name := fmt.Sprintf("%s on %s at T=%d", c.name, rep, th)
				cfg := runtime.DefaultConfig()
				cfg.Parallelism, cfg.DistEnabled, cfg.DistBlocksize = th, true, 7
				ctx := runtime.NewContext(cfg)
				ops := make([]Operand, len(c.parts))
				for k, p := range c.parts {
					v := fmt.Sprint("X", k)
					ops[k] = Var(v)
					switch rep {
					case "csr":
						ctx.SetMatrix(v, p.Copy().ToSparse())
					case "compressed":
						ctx.SetCompressed(v, compressed[k])
					case "blocked":
						bm, err := dist.FromMatrixBlock(p, 7)
						if err != nil {
							t.Fatal(err)
						}
						ctx.SetBlocked(v, bm)
					default:
						ctx.SetMatrix(v, p)
					}
				}
				inst := NewReorg(c.row, "r", ops...)
				if rep == "dense@DIST" {
					inst.SetPlan(types.ExecDist, false, -1)
				}
				if err := inst.Execute(ctx); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				d, err := ctx.Get("r")
				if err != nil {
					t.Fatal(err)
				}
				_, isView := d.(*runtime.Transposed)
				stats := ctx.Stats()
				blockedRung := c.row.Blocked && (rep == "blocked" || rep == "dense@DIST")
				switch {
				case c.row.View && rep == "compressed":
					if !isView || stats.CompressStats.CompressedOps != 1 || stats.CompressStats.Decompressions != 0 {
						t.Errorf("%s: view %v, %d compressed operators, %d decompressions", name, isView,
							stats.CompressStats.CompressedOps, stats.CompressStats.Decompressions)
					}
				case blockedRung:
					if stats.DistStats.BlockedOps != 1 || len(stats.PlanStats) != 1 || stats.PlanStats[0].Op+"|"+stats.PlanStats[0].Plan != c.row.Opcode+"|dist" {
						t.Errorf("%s: %d blocked operators, plan records %+v", name, stats.DistStats.BlockedOps, stats.PlanStats)
					}
				default:
					if isView || stats.DistStats.BlockedOps != 0 {
						t.Errorf("%s: ran on the view or blocked rung (%d blocked operators)", name, stats.DistStats.BlockedOps)
					}
					if rep == "compressed" && stats.CompressStats.Decompressions == 0 {
						t.Errorf("%s: ran locally without decompressing", name)
					}
				}
				got, err := ctx.GetMatrixBlock("r")
				if err != nil {
					t.Fatal(err)
				}
				if err := sameCells(got, want, 0); err != nil || got.NNZ() != want.NNZ() {
					t.Errorf("%s: %v; nnz %d, want %d", name, err, got.NNZ(), want.NNZ())
				}
			}
		}
	}
	if compressedCases < 4 {
		t.Errorf("only %d cases ran on compressed operands", compressedCases)
	}
}
