package dist

import (
	"math"
	"testing"

	"github.com/systemds/systemds-go/internal/compress"
	"github.com/systemds/systemds-go/internal/matrix"
)

// lowCardTestMatrix generates a deterministic compressible matrix: low
// cardinality in most columns, one run-heavy column, one noise column.
func lowCardTestMatrix(rows, cols int, seed int64) *matrix.MatrixBlock {
	noise := matrix.RandUniform(rows, cols, 0, 1, 1.0, seed)
	out := matrix.NewDense(rows, cols)
	for c := 0; c < cols; c++ {
		for r := 0; r < rows; r++ {
			switch c % 3 {
			case 0:
				out.Set(r, c, math.Floor(noise.Get(r, c)*5))
			case 1:
				out.Set(r, c, float64((r/64)%7))
			default:
				out.Set(r, c, noise.Get(r, c))
			}
		}
	}
	out.RecomputeNNZ()
	return out
}

func compressForDist(tb testing.TB, m *matrix.MatrixBlock) *compress.CompressedMatrix {
	tb.Helper()
	cm, plan, ok := compress.Compress(m, compress.PlannerConfig{}, 1)
	if !ok {
		tb.Fatalf("compression rejected: %+v", plan)
	}
	return cm
}

func assertClose(t *testing.T, name string, want, got *matrix.MatrixBlock) {
	t.Helper()
	if want.Rows() != got.Rows() || want.Cols() != got.Cols() {
		t.Fatalf("%s: got %dx%d, want %dx%d", name, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for r := 0; r < want.Rows(); r++ {
		for c := 0; c < want.Cols(); c++ {
			w, g := want.Get(r, c), got.Get(r, c)
			diff := math.Abs(w - g)
			if diff > 1e-9 && diff > 1e-9*math.Abs(w) {
				t.Fatalf("%s: (%d,%d) got %v, want %v", name, r, c, g, w)
			}
		}
	}
}

func TestPartitionCompressedCoversRows(t *testing.T) {
	m := lowCardTestMatrix(700, 6, 1)
	cm := compressForDist(t, m)
	for _, rpp := range []int{64, 256, 700, 1000} {
		p, err := PartitionCompressed(cm, rpp)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for i := 0; i < p.NumParts(); i++ {
			r0, r1 := p.partRange(i)
			total += r1 - r0
		}
		if total != m.Rows() {
			t.Fatalf("rpp=%d: partitions cover %d rows, want %d", rpp, total, m.Rows())
		}
		// partitions decompress to exactly the matching row slices
		for i := 0; i < p.NumParts(); i++ {
			r0, r1 := p.partRange(i)
			want, err := matrix.Slice(m, r0, r1, 0, m.Cols())
			if err != nil {
				t.Fatal(err)
			}
			assertClose(t, "partition", want, p.Parts[i].Decompress())
		}
	}
}

func TestPartitionCompressedRejectsBadSize(t *testing.T) {
	cm := compressForDist(t, lowCardTestMatrix(100, 3, 2))
	if _, err := PartitionCompressed(cm, 0); err == nil {
		t.Fatal("expected error for rowsPerPart=0")
	}
}

func TestCompressedMatVecMatchesDense(t *testing.T) {
	m := lowCardTestMatrix(600, 6, 3)
	cm := compressForDist(t, m)
	v := matrix.RandUniform(m.Cols(), 1, -1, 1, 1.0, 7)
	want, err := matrix.Multiply(m, v, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PartitionCompressed(cm, 128)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := CompressedMatVec(p, v, workers)
		if err != nil {
			t.Fatal(err)
		}
		assertClose(t, "matvec", want, got)
	}
}

func TestCompressedMatMultMatchesDense(t *testing.T) {
	m := lowCardTestMatrix(500, 6, 4)
	cm := compressForDist(t, m)
	b := matrix.RandUniform(m.Cols(), 9, -1, 1, 1.0, 11)
	want, err := matrix.Multiply(m, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	p, err := PartitionCompressed(cm, 96)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := CompressedMatMult(p, b, workers)
		if err != nil {
			t.Fatal(err)
		}
		assertClose(t, "matmult", want, got)
	}
}

func TestCompressedTSMMMatchesDense(t *testing.T) {
	m := lowCardTestMatrix(640, 7, 5)
	cm := compressForDist(t, m)
	want := matrix.TSMM(m, 1)
	p, err := PartitionCompressed(cm, 100)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		got, err := CompressedTSMM(p, workers)
		if err != nil {
			t.Fatal(err)
		}
		assertClose(t, "tsmm", want, got)
	}
}

// TestCompressedDistBitwiseStable asserts the executors are bitwise identical
// across worker counts: partition-owned output rows (MV/MM) and ascending
// partial sums (TSMM) make thread count invisible to the result.
func TestCompressedDistBitwiseStable(t *testing.T) {
	m := lowCardTestMatrix(512, 6, 6)
	cm := compressForDist(t, m)
	v := matrix.RandUniform(m.Cols(), 1, -1, 1, 1.0, 13)
	b := matrix.RandUniform(m.Cols(), 5, -1, 1, 1.0, 17)
	p, err := PartitionCompressed(cm, 64)
	if err != nil {
		t.Fatal(err)
	}
	refMV, err := CompressedMatVec(p, v, 1)
	if err != nil {
		t.Fatal(err)
	}
	refMM, err := CompressedMatMult(p, b, 1)
	if err != nil {
		t.Fatal(err)
	}
	refTS, err := CompressedTSMM(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		gotMV, err := CompressedMatVec(p, v, workers)
		if err != nil {
			t.Fatal(err)
		}
		gotMM, err := CompressedMatMult(p, b, workers)
		if err != nil {
			t.Fatal(err)
		}
		gotTS, err := CompressedTSMM(p, workers)
		if err != nil {
			t.Fatal(err)
		}
		for name, pair := range map[string][2]*matrix.MatrixBlock{
			"matvec": {refMV, gotMV}, "matmult": {refMM, gotMM}, "tsmm": {refTS, gotTS},
		} {
			ref, got := pair[0], pair[1]
			for r := 0; r < ref.Rows(); r++ {
				for c := 0; c < ref.Cols(); c++ {
					if math.Float64bits(ref.Get(r, c)) != math.Float64bits(got.Get(r, c)) {
						t.Fatalf("%s workers=%d: (%d,%d) not bitwise equal", name, workers, r, c)
					}
				}
			}
		}
	}
}
