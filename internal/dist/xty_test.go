package dist

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
)

// mixedMatrix is an m x n matrix whose rows alternate between sparse bands
// (one cell in 40 set) and dense bands of 37 rows each, so a partition holds
// sparse, dense and mixed blocks, depending on the blocksize. Its values are
// real-valued: every summation order shows in the bits.
func mixedMatrix(m, n int, seed int64) *matrix.MatrixBlock {
	dense := matrix.RandUniform(m, n, -1, 1, 1.0, seed)
	out := matrix.NewDense(m, n)
	for r := 0; r < m; r++ {
		for c := 0; c < n; c++ {
			if (r/37)%2 == 1 || (r*n+c)%40 == 0 {
				out.Set(r, c, dense.Get(r, c))
			}
		}
	}
	return out.ExamineAndApplySparsity()
}

func sameBits(a, b *matrix.MatrixBlock) error {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return fmt.Errorf("shape %dx%d vs %dx%d", a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	for r := 0; r < a.Rows(); r++ {
		for c := 0; c < a.Cols(); c++ {
			if x, y := a.Get(r, c), b.Get(r, c); math.Float64bits(x) != math.Float64bits(y) {
				return fmt.Errorf("cell (%d,%d): %v vs %v", r, c, x, y)
			}
		}
	}
	if a.NNZ() != b.NNZ() || a.IsSparse() != b.IsSparse() {
		return fmt.Errorf("nnz %d (sparse %v) vs %d (sparse %v)", a.NNZ(), a.IsSparse(), b.NNZ(), b.IsSparse())
	}
	return nil
}

// TestXtYBitwiseEqualsTransposeMultiply: dist.XtY walks the chunks of the
// row-scatter leg over X's blocks, so for finite data it has the bits of
// matrix.TransposeMultiply over the collected X — for row counts off the
// chunk and block sizes (chunk boundaries inside blocks, blocks inside
// chunks), dense, sparse and mixed blocks, one and several block columns, a
// vector and a three-column Y held locally (dense or sparse) or blocked (at
// X's blocksize or another), and any pool width.
func TestXtYBitwiseEqualsTransposeMultiply(t *testing.T) {
	inputs := []struct {
		name string
		x    *matrix.MatrixBlock
	}{
		{"dense", matrix.RandUniform(2999, 13, -1, 1, 1.0, 11)},
		{"sparse", matrix.RandUniform(2999, 13, -1, 1, 0.02, 12)},
		{"mixed", mixedMatrix(2999, 13, 13)},
		{"short", mixedMatrix(130, 13, 14)},
		{"one row", matrix.RandUniform(1, 13, -1, 1, 1.0, 15)},
		{"wide", mixedMatrix(40, 1030, 16)},
	}
	for _, in := range inputs {
		m := in.x.Rows()
		for _, k := range []int{1, 3} {
			ys := map[string]*matrix.MatrixBlock{
				"dense y":  matrix.RandUniform(m, k, -1, 1, 1.0, int64(20+k)),
				"sparse y": matrix.RandUniform(m, k, -1, 1, 0.1, int64(30+k)),
			}
			for yname, y := range ys {
				for _, bs := range []int{7, 500, 1024} {
					bx, err := FromMatrixBlock(in.x, bs)
					if err != nil {
						t.Fatal(err)
					}
					collected, err := bx.ToMatrixBlock()
					if err != nil {
						t.Fatal(err)
					}
					want, err := matrix.TransposeMultiply(collected, y, 1)
					if err != nil {
						t.Fatal(err)
					}
					by, err := FromMatrixBlock(y, bs)
					if err != nil {
						t.Fatal(err)
					}
					byOther, err := FromMatrixBlock(y, 64)
					if err != nil {
						t.Fatal(err)
					}
					for _, threads := range []int{1, 2, 3, 7} {
						for form, run := range map[string]func() (*matrix.MatrixBlock, error){
							"local":         func() (*matrix.MatrixBlock, error) { return XtY(bx, y, nil, threads) },
							"blocked":       func() (*matrix.MatrixBlock, error) { return XtY(bx, nil, by, threads) },
							"blocked at 64": func() (*matrix.MatrixBlock, error) { return XtY(bx, nil, byOther, threads) },
						} {
							got, err := run()
							if err != nil {
								t.Fatal(err)
							}
							if err := sameBits(got, want); err != nil {
								t.Errorf("%s X, %s k=%d (%s), bs=%d, T=%d: %v", in.name, yname, k, form, bs, threads, err)
							}
						}
					}
				}
			}
		}
	}
}

func TestXtYDimensionErrors(t *testing.T) {
	bx, err := FromMatrixBlock(testMatrix(10, 4), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := XtY(bx, matrix.NewDense(9, 1), nil, 1); err == nil {
		t.Error("local Y with the wrong row count should error")
	}
	by, err := FromMatrixBlock(matrix.NewDense(11, 1), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := XtY(bx, nil, by, 1); err == nil {
		t.Error("blocked Y with the wrong row count should error")
	}
}

// collectByLeftIndex is the collect ToMatrixBlock replaced: one LeftIndex per
// block, each a copy of the whole output.
func collectByLeftIndex(b *BlockedMatrix) (*matrix.MatrixBlock, error) {
	out := matrix.NewDense(b.Rows, b.Cols)
	gc := b.GridCols()
	var err error
	for bi := 0; bi < b.GridRows(); bi++ {
		for bj := 0; bj < gc; bj++ {
			blk := b.Blocks[bi*gc+bj]
			rl, cl := bi*b.Blocksize, bj*b.Blocksize
			if out, err = matrix.LeftIndex(out, blk, rl, rl+blk.Rows(), cl, cl+blk.Cols()); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// TestToMatrixBlockWritesInPlace: collecting a 5 x 5 grid writes every block
// into the one output — the bits, non-zero count and representation of the
// copy-per-block collect, for dense, sparse and mixed grids — and allocates
// less than twice the output's bytes (the copy-per-block collect allocated
// one output per block).
func TestToMatrixBlockWritesInPlace(t *testing.T) {
	const n, bs = 320, 64
	for name, m := range map[string]*matrix.MatrixBlock{
		"dense":  matrix.RandUniform(n, n, -1, 1, 1.0, 41),
		"sparse": matrix.RandUniform(n, n, -1, 1, 0.01, 42),
		"mixed":  mixedMatrix(n, n, 43),
	} {
		bm, err := FromMatrixBlock(m, bs)
		if err != nil {
			t.Fatal(err)
		}
		if bm.GridRows() != 5 || bm.GridCols() != 5 {
			t.Fatalf("grid %dx%d, want 5x5", bm.GridRows(), bm.GridCols())
		}
		want, err := collectByLeftIndex(bm)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		got, err := bm.ToMatrixBlock()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBits(got, want); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		outBytes := uint64(n * n * 8)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2*outBytes {
			t.Errorf("%s: collect allocated %d bytes, want < %d (twice the output)", name, alloc, 2*outBytes)
		}
	}
}
