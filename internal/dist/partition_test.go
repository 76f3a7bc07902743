package dist

import (
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/obs"
)

// slicedPartition is the copying partition every block of which is a
// matrix.Slice of m: the reference the views must match.
func slicedPartition(t *testing.T, m *matrix.MatrixBlock, bs int) []*matrix.MatrixBlock {
	t.Helper()
	gr, gc := ceilDiv(m.Rows(), bs), ceilDiv(m.Cols(), bs)
	blocks := make([]*matrix.MatrixBlock, 0, gr*gc)
	for bi := 0; bi < gr; bi++ {
		for bj := 0; bj < gc; bj++ {
			blk, err := matrix.Slice(m, bi*bs, min(bi*bs+bs, m.Rows()), bj*bs, min(bj*bs+bs, m.Cols()))
			if err != nil {
				t.Fatal(err)
			}
			blocks = append(blocks, blk)
		}
	}
	return blocks
}

// TestPartitionViewsTheDenseArray: a dense matrix with one column block is
// partitioned into row strips that are its own array — each strip starts at
// its first row's cell, and its capacity ends at its last — with the
// non-zero counts, representations and bits of the copying path, whether the
// parent is full (counts taken from it) or holds zeros (counted per strip).
// The partition claims the parent: nothing may write it in place or recycle
// it from then on, and the blocked matrix owns no bytes.
func TestPartitionViewsTheDenseArray(t *testing.T) {
	withZeros := matrix.RandUniform(1030, 45, -1, 1, 1.0, 51)
	for r := 0; r < withZeros.Rows(); r += 3 {
		withZeros.Set(r, r%45, 0)
	}
	for _, tc := range []struct {
		name string
		m    *matrix.MatrixBlock
		bs   int
	}{
		{"full ragged", matrix.RandUniform(1030, 45, -1, 1, 1.0, 52), 100},
		{"full ragged at 1024", matrix.RandUniform(1030, 45, -1, 1, 1.0, 53), 1024},
		{"full one strip", matrix.RandUniform(1000, 45, -1, 1, 1.0, 56), 1024},
		{"full bs=cols", matrix.RandUniform(33, 7, -1, 1, 1.0, 54), 7},
		{"with zeros", withZeros, 100},
		{"column vector", matrix.RandUniform(250, 1, -1, 1, 1.0, 55), 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			m.Claim() // as the handle that holds m would
			bm, err := FromMatrixBlock(m, tc.bs)
			if err != nil {
				t.Fatal(err)
			}
			if bm.View != m || bm.OwnedSize() != 0 {
				t.Fatalf("View %p (want %p), OwnedSize %d: not a view partition", bm.View, m, bm.OwnedSize())
			}
			if m.Owned() {
				t.Error("the parent kept its claim: it could be written in place under its views")
			}
			vals := m.DenseValues()
			want := slicedPartition(t, m, tc.bs)
			if len(bm.Blocks) != len(want) {
				t.Fatalf("%d blocks, want %d", len(bm.Blocks), len(want))
			}
			for bi, blk := range bm.Blocks {
				if err := sameBits(blk, want[bi]); err != nil {
					t.Errorf("strip %d: %v", bi, err)
				}
				dv := blk.DenseValues()
				if &dv[0] != &vals[bi*tc.bs*m.Cols()] || cap(dv) != len(dv) {
					t.Errorf("strip %d is not a capped view of the parent's rows", bi)
				}
			}
		})
	}
}

// TestPartitionCopiesWhereViewsWouldDiffer: a sparse matrix, one with more
// than one column block, and a dense one with a strip under the sparse
// threshold all take the copying path, block for block the Slice of the
// parent, and leave the parent's claim alone.
func TestPartitionCopiesWhereViewsWouldDiffer(t *testing.T) {
	sparseStrip := matrix.RandUniform(300, 20, -1, 1, 1.0, 61)
	for r := 100; r < 200; r++ {
		for c := 1; c < 20; c++ {
			sparseStrip.Set(r, c, 0)
		}
	}
	for _, tc := range []struct {
		name string
		m    *matrix.MatrixBlock
		bs   int
	}{
		{"sparse", matrix.RandUniform(300, 20, -1, 1, 0.05, 62), 100},
		{"two column blocks", matrix.RandUniform(300, 20, -1, 1, 1.0, 63), 7},
		{"sparse strip", sparseStrip, 100},
		{"mixed bands", mixedMatrix(300, 20, 64), 100},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.m
			m.Claim()
			owned := m.Owned()
			bm, err := FromMatrixBlock(m, tc.bs)
			if err != nil {
				t.Fatal(err)
			}
			if bm.View != nil || bm.OwnedSize() != bm.InMemorySize() {
				t.Fatal("partitioned into views")
			}
			if m.Owned() != owned {
				t.Error("a copying partition changed the parent's claim")
			}
			want := slicedPartition(t, m, tc.bs)
			for i, blk := range bm.Blocks {
				if err := sameBits(blk, want[i]); err != nil {
					t.Errorf("block %d: %v", i, err)
				}
			}
			if tc.name == "sparse strip" && !bm.Blocks[1].IsSparse() {
				t.Errorf("strip 1 (sparsity %.3f) should be sparse", bm.Blocks[1].Sparsity())
			}
		})
	}
}

// TestPartitionSpanCarriesCopiedBytes: the "partition" span records the bytes
// the partition copied — none for views, every block's for a copy.
func TestPartitionSpanCarriesCopiedBytes(t *testing.T) {
	obs.Reset()
	obs.Enable()
	defer func() {
		obs.Disable()
		obs.Reset()
	}()
	views, err := FromMatrixBlock(matrix.RandUniform(300, 20, -1, 1, 1.0, 65), 100)
	if err != nil {
		t.Fatal(err)
	}
	copied, err := FromMatrixBlock(matrix.RandUniform(300, 20, -1, 1, 1.0, 66), 7)
	if err != nil {
		t.Fatal(err)
	}
	var got []int64
	for _, r := range obs.Snapshot() {
		if r.Cat == obs.CatDist && r.Name == "partition" {
			got = append(got, r.Bytes)
		}
	}
	if want := []int64{0, copied.InMemorySize()}; len(got) != 2 || got[0] != want[0] || got[1] != want[1] || views.View == nil {
		t.Errorf("partition span bytes %v, want %v", got, want)
	}
}
