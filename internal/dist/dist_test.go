package dist

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
)

// testMatrix generates a deterministic dense matrix with distinct values.
func testMatrix(rows, cols int) *matrix.MatrixBlock {
	m := matrix.NewDense(rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			m.Set(r, c, float64(r*cols+c%17)-float64(c))
		}
	}
	return m
}

// boundary shapes: rows/cols % blocksize != 0 exercises partial edge blocks.
var shapes = []struct{ rows, cols, bs int }{
	{64, 64, 32},  // aligned
	{70, 50, 32},  // boundary blocks on both dims
	{33, 97, 32},  // single block row + many partial columns
	{10, 10, 32},  // smaller than one block
	{100, 1, 32},  // column vector
	{1, 100, 32},  // row vector
	{96, 64, 100}, // blocksize larger than the matrix in one dim
}

func TestFromToMatrixBlockRoundTrip(t *testing.T) {
	for _, s := range shapes {
		m := testMatrix(s.rows, s.cols)
		bm, err := FromMatrixBlock(m, s.bs)
		if err != nil {
			t.Fatalf("%dx%d/%d: partition: %v", s.rows, s.cols, s.bs, err)
		}
		back, err := bm.ToMatrixBlock()
		if err != nil {
			t.Fatalf("%dx%d/%d: collect: %v", s.rows, s.cols, s.bs, err)
		}
		if !m.Equals(back, 0) {
			t.Errorf("%dx%d/%d: round trip differs", s.rows, s.cols, s.bs)
		}
	}
}

func TestRegion(t *testing.T) {
	m := testMatrix(70, 50)
	bm, err := FromMatrixBlock(m, 32)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][4]int{{0, 70, 0, 50}, {10, 40, 20, 45}, {31, 33, 31, 33}, {64, 70, 32, 50}} {
		want, err := matrix.Slice(m, r[0], r[1], r[2], r[3])
		if err != nil {
			t.Fatal(err)
		}
		got, err := bm.Region(r[0], r[1], r[2], r[3])
		if err != nil {
			t.Fatalf("region %v: %v", r, err)
		}
		if !want.Equals(got, 0) {
			t.Errorf("region %v differs from local slice", r)
		}
	}
	if _, err := bm.Region(0, 71, 0, 50); err == nil {
		t.Error("out-of-bounds region should error")
	}
}

// TestCellwiseMatchesLocal: dist.Cell over two aligned blocked operands
// equals matrix.CellwiseOp over the local matrices.
func TestCellwiseMatchesLocal(t *testing.T) {
	for _, s := range shapes {
		a, b := testMatrix(s.rows, s.cols), testMatrix(s.rows, s.cols)
		ba, _ := FromMatrixBlock(a, s.bs)
		bb, _ := FromMatrixBlock(b, s.bs)
		res, err := Cell(matrix.BinaryProgram(matrix.OpMul), []CellArg{{Blocked: ba}, {Blocked: bb}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.ToMatrixBlock()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := matrix.CellwiseOp(a, b, matrix.OpMul, 1)
		if !want.Equals(got, 0) {
			t.Errorf("%dx%d/%d: cellwise differs", s.rows, s.cols, s.bs)
		}
	}
}

// TestScalarAndUnaryMatchLocal: dist.Cell with a scalar operand equals
// matrix.ScalarOp, and with a unary program the local fused kernel.
func TestScalarAndUnaryMatchLocal(t *testing.T) {
	for _, s := range shapes {
		a := testMatrix(s.rows, s.cols)
		ba, _ := FromMatrixBlock(a, s.bs)
		scalarArgs := []CellArg{{Blocked: ba}, {CellArg: matrix.CellArg{Scalar: 2.5}}}
		sres, err := Cell(matrix.ScalarProgram(matrix.OpMul, 2.5, false), scalarArgs, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, _ := sres.ToMatrixBlock()
		if !matrix.ScalarOp(a, 2.5, matrix.OpMul, false, 1).Equals(got, 0) {
			t.Errorf("%dx%d/%d: scalar op differs", s.rows, s.cols, s.bs)
		}
		abs := matrix.UnaryProgram(matrix.OpAbs)
		ures, err := Cell(abs, []CellArg{{Blocked: ba}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, _ = ures.ToMatrixBlock()
		want, err := matrix.FusedCell(abs, []matrix.CellArg{{Mat: a}}, 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !want.Equals(got, 0) {
			t.Errorf("%dx%d/%d: unary differs", s.rows, s.cols, s.bs)
		}
	}
}

// TestMatMultBroadcastMatchesLocal: the broadcast join has the bits of
// matrix.Multiply for finite data — each strip multiplies by b itself when
// the grid has one column block and accumulates ascending k-stripes with
// MultiplyAcc otherwise — over ragged shapes, blocksizes 7, 100 and 1024,
// dense, sparse and mixed left blocks, a dense and a sparse right-hand side,
// and 1, 2 and 3 pool workers against the local multiply at as many threads.
func TestMatMultBroadcastMatchesLocal(t *testing.T) {
	lefts := []struct {
		name string
		make func(m, k int) *matrix.MatrixBlock
	}{
		{"dense", func(m, k int) *matrix.MatrixBlock { return matrix.RandUniform(m, k, -1, 1, 1.0, 41) }},
		{"sparse", func(m, k int) *matrix.MatrixBlock { return matrix.RandUniform(m, k, -1, 1, 0.05, 42) }},
		{"mixed", func(m, k int) *matrix.MatrixBlock { return mixedMatrix(m, k, 43) }},
	}
	rights := []struct {
		name     string
		sparsity float64
	}{{"dense", 1.0}, {"sparse", 0.1}}
	for _, sh := range []struct{ m, k, n int }{
		{70, 50, 33}, {250, 230, 3}, {1030, 45, 1}, {31, 1100, 5}, {9, 7, 120},
	} {
		for _, l := range lefts {
			a := l.make(sh.m, sh.k)
			for _, r := range rights {
				b := matrix.RandUniform(sh.k, sh.n, -1, 1, r.sparsity, 44)
				for _, th := range []int{1, 2, 3} {
					want, err := matrix.Multiply(a, b, th)
					if err != nil {
						t.Fatal(err)
					}
					want.ExamineAndApplySparsity() // as the collect does
					for _, bs := range []int{7, 100, 1024} {
						name := fmt.Sprintf("%dx%dx%d %s x %s bs=%d T=%d", sh.m, sh.k, sh.n, l.name, r.name, bs, th)
						ba, err := FromMatrixBlock(a, bs)
						if err != nil {
							t.Fatal(err)
						}
						res, err := MatMult(ba, b, th)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						got, err := res.ToMatrixBlock()
						if err != nil {
							t.Fatal(err)
						}
						if err := sameBits(got, want); err != nil {
							t.Errorf("%s: %v", name, err)
						}
					}
				}
			}
		}
	}
}

// kernelInputs are the operands of the bitwise kernel tests: ragged shapes,
// with several column blocks at every blocksize but 1024 for the wide one,
// dense, sparse and mixed (real-valued, so every summation order shows in the
// bits), and the empty shapes 0 x n and m x 0.
func kernelInputs() []struct {
	name string
	x    *matrix.MatrixBlock
} {
	var in []struct {
		name string
		x    *matrix.MatrixBlock
	}
	add := func(name string, x *matrix.MatrixBlock) {
		in = append(in, struct {
			name string
			x    *matrix.MatrixBlock
		}{fmt.Sprintf("%dx%d %s", x.Rows(), x.Cols(), name), x})
	}
	for _, sh := range []struct{ m, n int }{{1037, 60}, {250, 230}, {75, 530}} {
		add("dense", matrix.RandUniform(sh.m, sh.n, -1, 1, 1.0, 51))
		add("sparse", matrix.RandUniform(sh.m, sh.n, -1, 1, 0.05, 52))
		add("mixed", mixedMatrix(sh.m, sh.n, 53))
	}
	add("empty", matrix.NewDense(0, 13))
	add("empty", matrix.NewDense(13, 0))
	return in
}

// kernelBlocksizes and poolWidths span the partitions and pool widths of the
// bitwise kernel tests.
var (
	kernelBlocksizes = []int{7, 100, 500, 1024}
	poolWidths       = []int{1, 2, 3, 7}
)

// TestMatMultBBMatchesLocal: the grid join has the bits of matrix.Multiply
// for finite data — each output block accumulates its k-blocks in ascending
// order with MultiplyAcc — over ragged shapes with several column blocks,
// dense, sparse and mixed left blocks, a dense and a sparse right-hand side,
// empty dimensions, blocksizes 7 to 1024 and 1, 2, 3 and 7 pool workers.
func TestMatMultBBMatchesLocal(t *testing.T) {
	lefts := []struct {
		name string
		make func(m, k int) *matrix.MatrixBlock
	}{
		{"dense", func(m, k int) *matrix.MatrixBlock { return matrix.RandUniform(m, k, -1, 1, 1.0, 61) }},
		{"sparse", func(m, k int) *matrix.MatrixBlock { return matrix.RandUniform(m, k, -1, 1, 0.05, 62) }},
		{"mixed", func(m, k int) *matrix.MatrixBlock { return mixedMatrix(m, k, 63) }},
	}
	for _, sh := range []struct{ m, k, n int }{
		{1037, 60, 3}, {250, 230, 33}, {75, 530, 40}, {9, 7, 120}, {0, 5, 3}, {13, 0, 5}, {13, 5, 0},
	} {
		for _, l := range lefts {
			a := l.make(sh.m, sh.k)
			for _, sparsity := range []float64{1.0, 0.1} {
				b := matrix.RandUniform(sh.k, sh.n, -1, 1, sparsity, 64)
				want, err := matrix.Multiply(a, b, 1)
				if err != nil {
					t.Fatal(err)
				}
				want.ExamineAndApplySparsity() // as the collect does
				for _, bs := range kernelBlocksizes {
					ba, _ := FromMatrixBlock(a, bs)
					bb, _ := FromMatrixBlock(b, bs)
					for _, th := range poolWidths {
						name := fmt.Sprintf("%dx%dx%d %s x %v bs=%d T=%d", sh.m, sh.k, sh.n, l.name, sparsity, bs, th)
						res, err := MatMultBB(ba, bb, th)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						got, err := res.ToMatrixBlock()
						if err != nil {
							t.Fatal(err)
						}
						if err := sameBits(got, want); err != nil {
							t.Errorf("%s: %v", name, err)
						}
					}
				}
			}
		}
	}
}

func TestTransposeMatchesLocal(t *testing.T) {
	for _, s := range shapes {
		a := testMatrix(s.rows, s.cols)
		ba, _ := FromMatrixBlock(a, s.bs)
		res, err := Transpose(ba, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.ToMatrixBlock()
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Transpose(a).Equals(got, 0) {
			t.Errorf("%dx%d/%d: transpose differs", s.rows, s.cols, s.bs)
		}
	}
}

// TestRBindCBindMatchLocal: Bind along either axis over two and three parts
// equals the local bind kernel over the collected parts, whether a part lands
// in whole blocks (its blocks taken by reference, Shared) or not (blocks
// assembled from Regions). Shared lists exactly the arrays the output's
// blocks live in: a taken part's View or blocks, and the assembled blocks.
func TestRBindCBindMatchLocal(t *testing.T) {
	check := func(name string, parts []*matrix.MatrixBlock, bs int, shared bool) {
		t.Helper()
		row, _ := matrix.ReorgOf(name)
		blocked := make([]*BlockedMatrix, len(parts))
		for k, p := range parts {
			blocked[k], _ = FromMatrixBlock(p, bs)
		}
		res, err := Bind(row, blocked, 0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := res.ToMatrixBlock()
		if err != nil {
			t.Fatal(err)
		}
		want, _ := row.Kernel(parts...)
		if !want.Equals(got, 0) || got.NNZ() != want.NNZ() {
			t.Errorf("%s of %d parts, blocksize %d: differs from the local kernel", name, len(parts), bs)
		}
		if (res.Shared != nil) != shared {
			t.Errorf("%s of %d parts, blocksize %d: shared %v, want %v", name, len(parts), bs, res.Shared != nil, shared)
		}
		if res.Shared == nil {
			return
		}
		held := map[*matrix.MatrixBlock]bool{}
		for _, blk := range res.Blocks {
			array := blk
			for _, p := range blocked {
				if p.View != nil && slices.Contains(p.Blocks, blk) {
					array = p.View
				}
			}
			held[array] = true
		}
		listed := map[*matrix.MatrixBlock]bool{}
		for _, a := range res.Shared {
			if listed[a] || !held[a] {
				t.Errorf("%s of %d parts, blocksize %d: Shared lists an array twice or one no block lives in", name, len(parts), bs)
			}
			listed[a] = true
		}
		if len(listed) != len(held) {
			t.Errorf("%s of %d parts, blocksize %d: Shared lists %d arrays, the blocks live in %d", name, len(parts), bs, len(listed), len(held))
		}
	}
	for _, s := range []struct {
		rs     []int
		c, bs  int
		shared bool
	}{
		{[]int{64, 32}, 50, 32, true},     // aligned fast path
		{[]int{70, 33}, 50, 32, false},    // boundary re-assembly: the first part's last block is not whole
		{[]int{5, 7}, 3, 32, false},       // one output block
		{[]int{64, 7, 32}, 50, 32, true},  // three parts, the third unaligned
		{[]int{9, 64, 41}, 50, 32, false}, // three parts, none aligned
		{[]int{32, 32, 32}, 70, 32, true}, // three aligned parts over three column blocks
	} {
		parts := make([]*matrix.MatrixBlock, len(s.rs))
		for k, r := range s.rs {
			parts[k] = testMatrix(r, s.c)
		}
		check("rbind", parts, s.bs, s.shared)
	}
	for _, s := range []struct {
		r      int
		cs     []int
		bs     int
		shared bool
	}{
		{50, []int{64, 32}, 32, true},
		{50, []int{70, 33}, 32, false},
		{3, []int{5, 7}, 32, false},
		{50, []int{64, 7, 32}, 32, true},
		{50, []int{9, 64, 41}, 32, false},
		{70, []int{32, 32, 32}, 32, true},
	} {
		parts := make([]*matrix.MatrixBlock, len(s.cs))
		for k, c := range s.cs {
			parts[k] = testMatrix(s.r, c)
		}
		check("cbind", parts, s.bs, s.shared)
	}
	rbind, _ := matrix.ReorgOf("rbind")
	if _, err := Bind(rbind, []*BlockedMatrix{{Cols: 3, Blocksize: 32}, {Cols: 4, Blocksize: 32}}, 0); err == nil {
		t.Error("rbind column mismatch should error")
	}
	transpose, _ := matrix.ReorgOf("t")
	if _, err := Bind(transpose, []*BlockedMatrix{{Cols: 3, Blocksize: 32}}, 0); err == nil {
		t.Error("Bind of a row that is not a bind should error")
	}
}

// TestAggregationsMatchLocal: every row of the aggregate table with a
// reduction folds it on the blocked walk with the local rung's drivers —
// FusedChunks over global rows, chunk bodies, chunk order, one Finish — so it
// has the bits of the row's local rung, NaN for the mean of no cells and ±Inf
// for the extremes of no cells included, over the kernel inputs, every
// blocksize and pool width. A row without a reduction has no blocked rung.
func TestAggregationsMatchLocal(t *testing.T) {
	for _, in := range kernelInputs() {
		a := in.x
		for _, agg := range matrix.Aggregates() {
			if agg.Red == 0 {
				continue
			}
			wantV, want := agg.Apply(a, 1)
			if want != nil {
				want.ExamineAndApplySparsity() // as the collect does
			}
			for _, bs := range kernelBlocksizes {
				ba, _ := FromMatrixBlock(a, bs)
				for _, th := range poolWidths {
					name := fmt.Sprintf("%s bs=%d T=%d %s", in.name, bs, th, agg.Name)
					v, res, err := Aggregate(ba, agg, th)
					if err != nil {
						t.Fatal(err)
					}
					if want == nil {
						if res != nil || math.Float64bits(v) != math.Float64bits(wantV) {
							t.Errorf("%s = %v (vector %v), want %v", name, v, res != nil, wantV)
						}
						continue
					}
					got, err := res.ToMatrixBlock()
					if err != nil {
						t.Fatal(err)
					}
					if err := sameBits(got, want); err != nil {
						t.Errorf("%s: %v", name, err)
					}
				}
			}
		}
	}
	ba, _ := FromMatrixBlock(testMatrix(10, 10), 4)
	median, _ := matrix.AggregateOf("median")
	if _, _, err := Aggregate(ba, median, 0); err == nil {
		t.Error("an aggregate without a reduction should error")
	}
}

// TestTSMMMatchesLocal: the blocked TSMM adds the block-row strips in
// ascending order into one accumulator with TSMMAcc, so it has the bits of
// matrix.TSMM over the kernel inputs, every blocksize and pool width.
func TestTSMMMatchesLocal(t *testing.T) {
	for _, in := range kernelInputs() {
		want := matrix.TSMM(in.x, 1)
		for _, bs := range kernelBlocksizes {
			ba, _ := FromMatrixBlock(in.x, bs)
			for _, th := range poolWidths {
				got, err := TSMM(ba, th)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameBits(got, want); err != nil {
					t.Errorf("%s bs=%d T=%d: %v", in.name, bs, th, err)
				}
			}
		}
	}
}

// TestTSMMOverViewsMatchesPerStrip: over row-strip views TSMM makes one
// TSMMAcc call on their array, with the bits of one call per strip in
// ascending order — ragged last strips, blocksizes 7, 100 and 1024, T = 1, 2
// and 3, and shapes whose strips run the simple kernel while the whole array
// runs the tiled one as well as shapes on one side of that crossover.
func TestTSMMOverViewsMatchesPerStrip(t *testing.T) {
	for _, sh := range [][2]int{{45001, 7}, {1003, 7}, {203, 60}, {2003, 60}, {1030, 100}} {
		m, n := sh[0], sh[1]
		x := matrix.RandUniform(m, n, -1, 1, 1.0, int64(m+n))
		for _, bs := range []int{7, 100, 1024} {
			if n > bs {
				continue
			}
			bx, err := FromMatrixBlock(x, bs)
			if err != nil {
				t.Fatal(err)
			}
			if bx.View == nil || m%bs == 0 {
				t.Fatalf("%dx%d bs=%d: want row-strip views with a ragged last strip", m, n, bs)
			}
			for _, th := range []int{1, 2, 3} {
				want := matrix.NewDense(n, n)
				for _, strip := range bx.Blocks {
					if err := matrix.TSMMAcc(want, strip, th); err != nil {
						t.Fatal(err)
					}
				}
				got, err := TSMM(bx, th)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameBits(got, want); err != nil {
					t.Errorf("%dx%d bs=%d T=%d: %v", m, n, bs, th, err)
				}
			}
		}
	}
}

func TestForEachBlockStopsAfterError(t *testing.T) {
	boom := errors.New("boom")
	var executed atomic.Int64
	// single worker: the first block fails, so no further block may execute
	err := forEachBlock("test", 10, 10, 1, func(bi, bj int) error {
		executed.Add(1)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if n := executed.Load(); n != 1 {
		t.Errorf("executed %d blocks after error, want 1", n)
	}
	// multiple workers: at most one in-flight block per worker can still run
	executed.Store(0)
	err = forEachBlock("test", 20, 20, 4, func(bi, bj int) error {
		executed.Add(1)
		return fmt.Errorf("fail (%d,%d)", bi, bj)
	})
	// every block fails; the first in row-major order is always the one reported
	if err == nil || err.Error() != "fail (0,0)" {
		t.Fatalf("err = %v, want fail (0,0)", err)
	}
	if n := executed.Load(); n > 8 {
		t.Errorf("executed %d blocks after first error, want a small bound (<= 8)", n)
	}
}
