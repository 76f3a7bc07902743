package dist

import (
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
)

// seqMatrix builds a deterministic dense matrix with non-trivial FP values.
func seqMatrix(rows, cols int, seed int64) *matrix.MatrixBlock {
	return matrix.RandUniform(rows, cols, -1, 1, 1.0, seed)
}

func TestMatMultBLMatchesLocal(t *testing.T) {
	for _, tc := range []struct{ m, k, n, bs int }{
		{8, 96, 64, 32},  // boundary blocks in every dimension
		{40, 64, 30, 32}, // non-aligned output grid
		{5, 33, 7, 16},
	} {
		a := seqMatrix(tc.m, tc.k, 11)
		b := seqMatrix(tc.k, tc.n, 12)
		bb, err := FromMatrixBlock(b, tc.bs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MatMultBL(a, bb, 0)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		gotLocal, err := got.ToMatrixBlock()
		if err != nil {
			t.Fatal(err)
		}
		want, err := matrix.Multiply(a, b, 1)
		if err != nil {
			t.Fatal(err)
		}
		// BL accumulates k-stripes in place in ascending order, so it has
		// the local multiply's bits
		if !want.Equals(gotLocal, 0) {
			t.Errorf("%+v: broadcast-left result differs from local multiply", tc)
		}
	}
}

// TestMatMultBBBitwiseEqualsLocal asserts the grid join's defining property:
// accumulating co-partitioned k-blocks in ascending order with the
// multiply-accumulate kernel reproduces the local dense multiplication
// bitwise, for aligned and boundary grids alike.
func TestMatMultBBBitwiseEqualsLocal(t *testing.T) {
	for _, tc := range []struct{ m, k, n, bs int }{
		{64, 128, 64, 32}, // aligned, 4 k-blocks
		{40, 100, 24, 32}, // boundary blocks, k not a block multiple
		{8, 256, 8, 32},   // long common dimension
	} {
		a := seqMatrix(tc.m, tc.k, 21)
		b := seqMatrix(tc.k, tc.n, 22)
		ba, err := FromMatrixBlock(a, tc.bs)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := FromMatrixBlock(b, tc.bs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MatMultBB(ba, bb, 0)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		gotLocal, err := got.ToMatrixBlock()
		if err != nil {
			t.Fatal(err)
		}
		want, err := matrix.Multiply(a, b, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equals(gotLocal, 0) {
			t.Errorf("%+v: grid join is not bitwise-equal to the local multiply", tc)
		}
	}
}

// TestMatMultBBBitwiseAboveTiledCrossover re-runs the grid join's bitwise
// acceptance at shapes where the local one-shot multiply selects the tiled
// GEMM engine: with bs=64 each k-block product stays below the crossover
// (simple-kernel blocks accumulate onto a tiled-sized reference), while
// bs=256 pushes the block products themselves onto the tiled kernel. Both
// mixes must stay bitwise-equal to CP, which is exactly the
// accumulation-order contract the tiled engine preserves.
func TestMatMultBBBitwiseAboveTiledCrossover(t *testing.T) {
	const m, k, n = 160, 1024, 144
	if 2*m*k*n < matrix.TiledGEMMCrossoverFLOPs {
		t.Fatal("test shape no longer exceeds the tiled-kernel crossover")
	}
	a := seqMatrix(m, k, 31)
	b := seqMatrix(k, n, 32)
	want, err := matrix.Multiply(a, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range []int{64, 256} {
		ba, err := FromMatrixBlock(a, bs)
		if err != nil {
			t.Fatal(err)
		}
		bb, err := FromMatrixBlock(b, bs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := MatMultBB(ba, bb, 0)
		if err != nil {
			t.Fatalf("bs=%d: %v", bs, err)
		}
		gotLocal, err := got.ToMatrixBlock()
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equals(gotLocal, 0) {
			t.Errorf("bs=%d: grid join is not bitwise-equal to the tiled local multiply", bs)
		}
	}
}

func TestMatMultBBDimensionErrors(t *testing.T) {
	a, _ := FromMatrixBlock(seqMatrix(8, 8, 1), 4)
	b, _ := FromMatrixBlock(seqMatrix(9, 8, 2), 4)
	if _, err := MatMultBB(a, b, 0); err == nil {
		t.Error("dimension mismatch not rejected")
	}
	c, _ := FromMatrixBlock(seqMatrix(8, 8, 3), 8)
	if _, err := MatMultBB(a, c, 0); err == nil {
		t.Error("blocksize mismatch not rejected")
	}
}

// TestCellwiseVector: dist.Cell with a row or column vector on either side
// of a blocked operand equals matrix.CellwiseOp over the local matrices.
func TestCellwiseVector(t *testing.T) {
	x := seqMatrix(40, 24, 31)
	col := seqMatrix(40, 1, 32)
	row := seqMatrix(1, 24, 33)
	bx, err := FromMatrixBlock(x, 16)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		v    *matrix.MatrixBlock
		op   matrix.BinaryOp
		swap bool
	}{
		{"col-add", col, matrix.OpAdd, false},
		{"row-sub", row, matrix.OpSub, false},
		{"col-sub-swapped", col, matrix.OpSub, true},
		{"row-div-swapped", row, matrix.OpDiv, true},
	} {
		args := []CellArg{{Blocked: bx}, {CellArg: matrix.CellArg{Mat: tc.v}}}
		if tc.swap {
			args[0], args[1] = args[1], args[0]
		}
		got, err := Cell(matrix.BinaryProgram(tc.op), args, 0)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		gotLocal, err := got.ToMatrixBlock()
		if err != nil {
			t.Fatal(err)
		}
		var want *matrix.MatrixBlock
		if tc.swap {
			want, err = matrix.CellwiseOp(tc.v, x, tc.op, 1)
		} else {
			want, err = matrix.CellwiseOp(x, tc.v, tc.op, 1)
		}
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equals(gotLocal, 0) {
			t.Errorf("%s: blocked broadcast differs from local kernel", tc.name)
		}
	}
	nonBroadcasting := []CellArg{{Blocked: bx}, {CellArg: matrix.CellArg{Mat: seqMatrix(7, 1, 9)}}}
	if _, err := Cell(matrix.BinaryProgram(matrix.OpAdd), nonBroadcasting, 0); err == nil {
		t.Error("non-broadcastable vector not rejected")
	}
}
