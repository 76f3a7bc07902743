package instructions

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/systemds/systemds-go/internal/compress"
	"github.com/systemds/systemds-go/internal/dist"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
)

// aggFixture is a 53 x 17 matrix of small integers, a third of them zero:
// it compresses, and blocksize 7 leaves ragged edge blocks in both
// directions.
func aggFixture() *matrix.MatrixBlock {
	rng := rand.New(rand.NewSource(47))
	m := matrix.NewDense(53, 17)
	vals := m.DenseValues()
	for i := range vals {
		if rng.Intn(3) > 0 {
			vals[i] = float64(rng.Intn(7) - 3)
		}
	}
	m.RecomputeNNZ()
	return m
}

// aggResult runs opcode through AggInst on the operand bound to X and
// returns its value (a full aggregate) or its vector.
func aggResult(ctx *runtime.Context, opcode string) (float64, *matrix.MatrixBlock, error) {
	if err := NewAgg(opcode, "r", Var("X")).Execute(ctx); err != nil {
		return 0, nil, err
	}
	d, err := ctx.Get("r")
	if err != nil {
		return 0, nil, err
	}
	if s, ok := d.(*runtime.Scalar); ok {
		return s.Float64(), nil, nil
	}
	blk, err := ctx.GetMatrixBlock("r")
	return 0, blk, err
}

// sameCells reports whether two vectors agree cell by cell: bitwise, or
// within tol relative when tol > 0.
func sameCells(got, want *matrix.MatrixBlock, tol float64) error {
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		return fmt.Errorf("shape %dx%d, want %dx%d", got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for r := 0; r < want.Rows(); r++ {
		for c := 0; c < want.Cols(); c++ {
			if g, w := got.Get(r, c), want.Get(r, c); !sameValue(g, w, tol) {
				return fmt.Errorf("cell (%d,%d) = %v, want %v", r, c, g, w)
			}
		}
	}
	return nil
}

func sameValue(got, want, tol float64) bool {
	if tol == 0 {
		return math.Float64bits(got) == math.Float64bits(want)
	}
	return math.Abs(got-want) <= tol*math.Max(1, math.Abs(want))
}

// TestAggregateTableOnEveryRung runs every row of the aggregate table
// through AggInst on a local dense, a local CSR, a compressed and a blocked
// (blocksize 7, ragged) operand, and on a scalar, at 1, 2 and 3 threads, and
// holds each result to the local rung over the dense operand: bitwise, but
// for the compressed sums, which pre-aggregate dictionaries and agree within
// 1e-9. A row the compressed or blocked rung can run must be run there: the
// compressed rung counts a compressed operator and no decompression, the
// blocked one a blocked operator and no collect of its operand.
func TestAggregateTableOnEveryRung(t *testing.T) {
	x := aggFixture()
	csr := x.Copy()
	csr.ToSparse()
	cm, _, ok := compress.Compress(x, compress.PlannerConfig{}, 1)
	if !ok {
		t.Fatal("fixture does not compress")
	}
	operands := []struct {
		name string
		bind func(ctx *runtime.Context) error
	}{
		{"dense", func(ctx *runtime.Context) error { ctx.SetMatrix("X", x); return nil }},
		{"csr", func(ctx *runtime.Context) error { ctx.SetMatrix("X", csr); return nil }},
		{"compressed", func(ctx *runtime.Context) error { ctx.SetCompressed("X", cm); return nil }},
		{"blocked", func(ctx *runtime.Context) error {
			bm, err := dist.FromMatrixBlock(x, 7)
			ctx.SetBlocked("X", bm)
			return err
		}},
	}
	for _, agg := range matrix.Aggregates() {
		wantV, want := agg.Apply(x, 1)
		for _, th := range []int{1, 2, 3} {
			for _, op := range operands {
				name := fmt.Sprintf("%s on %s at T=%d", agg.Name, op.name, th)
				cfg := runtime.DefaultConfig()
				cfg.Parallelism, cfg.DistEnabled = th, true
				ctx := runtime.NewContext(cfg)
				if err := op.bind(ctx); err != nil {
					t.Fatal(err)
				}
				v, vec, err := aggResult(ctx, agg.Name)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				tol := 0.0
				stats := ctx.Stats()
				switch {
				case agg.Dims != nil:
				case op.name == "compressed" && stats.CompressStats.Decompressions == 0:
					if stats.CompressStats.CompressedOps != 1 {
						t.Errorf("%s: %d compressed operators", name, stats.CompressStats.CompressedOps)
					}
					if agg.Red == matrix.ReduceSum {
						tol = 1e-9
					}
				case op.name == "compressed" && agg.Red != 0 && agg.Axis == matrix.AggFull:
					t.Errorf("%s: decompressed for a full reduction", name)
				case op.name == "blocked" && agg.Red != 0:
					if stats.DistStats.BlockedOps != 1 || stats.DistStats.Collects > 1 {
						t.Errorf("%s: %d blocked operators, %d collects", name, stats.DistStats.BlockedOps, stats.DistStats.Collects)
					}
				}
				if want == nil {
					if vec != nil || !sameValue(v, wantV, tol) {
						t.Errorf("%s = %v (vector %v), want %v", name, v, vec != nil, wantV)
					}
				} else if vec == nil {
					t.Errorf("%s: a scalar, want a %dx%d vector", name, want.Rows(), want.Cols())
				} else if err := sameCells(vec, want, tol); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
			// a scalar is a 1 x 1 matrix to every row that can fold it
			ctx := newCtx()
			ctx.Set("X", runtime.NewDouble(-2.5))
			v, _, err := aggResult(ctx, agg.Name)
			one := matrix.FromRows([][]float64{{-2.5}})
			switch wantOne, _ := agg.Apply(one, 1); {
			case agg.Dims == nil && (agg.Red == 0 || agg.Axis != matrix.AggFull):
				if err == nil {
					t.Errorf("%s of a scalar: no error", agg.Name)
				}
			case err != nil:
				t.Errorf("%s of a scalar: %v", agg.Name, err)
			case !sameValue(v, wantOne, 0):
				t.Errorf("%s of a scalar = %v, want %v", agg.Name, v, wantOne)
			}
		}
	}
}
