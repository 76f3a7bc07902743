package runtime

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"github.com/systemds/systemds-go/internal/bufferpool"
	"github.com/systemds/systemds-go/internal/compress"
	"github.com/systemds/systemds-go/internal/matrix"
)

// compressedFixture builds a compressed 1024 x 32 low-cardinality matrix.
func compressedFixture(t *testing.T) (*matrix.MatrixBlock, *compress.CompressedMatrix) {
	t.Helper()
	noise := matrix.RandUniform(1024, 32, 0, 1, 1.0, 9)
	m := matrix.NewDense(1024, 32)
	for r := 0; r < 1024; r++ {
		for c := 0; c < 32; c++ {
			m.Set(r, c, math.Floor(noise.Get(r, c)*4))
		}
	}
	m.RecomputeNNZ()
	cm, plan, ok := compress.Compress(m, compress.PlannerConfig{}, 1)
	if !ok {
		t.Fatalf("fixture did not compress: %v", plan)
	}
	return m, cm
}

// TestCompressedObjectSpillsCompressedBytes asserts the buffer-pool contract
// of the compressed object: eviction writes the compressed serialization
// (file smaller than the dense image), restore reproduces the data, and the
// decompression memo is dropped across the spill.
func TestCompressedObjectSpillsCompressedBytes(t *testing.T) {
	dir := t.TempDir()
	pool := bufferpool.New(0, dir) // no auto-eviction; we drive Evict directly
	m, cm := compressedFixture(t)
	co := NewCompressedMatrixObject(cm, pool)

	path := filepath.Join(dir, "spill.sdsc")
	freed, written, err := co.Evict(path, false)
	if err != nil {
		t.Fatalf("evict failed: %v", err)
	}
	if freed != cm.InMemorySize() {
		t.Errorf("evict freed %d bytes, want %d", freed, cm.InMemorySize())
	}
	if co.IsInMemory() {
		t.Fatalf("object still in memory after eviction")
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatalf("spill file missing: %v", err)
	}
	if written != info.Size() {
		t.Errorf("evict reports %d bytes written, the file has %d", written, info.Size())
	}
	if dense := m.InMemorySize(); info.Size() >= dense {
		t.Errorf("spill file is %d bytes, want < dense image %d (compressed bytes must hit disk)", info.Size(), dense)
	}

	restored, err := co.Compressed()
	if err != nil {
		t.Fatalf("restore failed: %v", err)
	}
	back := restored.Decompress()
	if !back.Equals(m, 0) {
		t.Errorf("restored compressed matrix differs from the original")
	}
	dc := co.DataCharacteristics()
	if dc.Rows != 1024 || dc.Cols != 32 || dc.NNZ != m.NNZ() {
		t.Errorf("characteristics after restore = %s", dc)
	}
}

// TestCompressedObjectDecompressMemoizedAndCounted asserts the transparent
// fallback counts exactly one decompression per materialization, not one per
// consumer.
func TestCompressedObjectDecompressMemoizedAndCounted(t *testing.T) {
	_, cm := compressedFixture(t)
	ctx := NewContext(DefaultConfig())
	co := NewCompressedMatrixObject(cm, nil)
	b1, err := co.LocalFor(ctx, "other")
	if err != nil {
		t.Fatal(err)
	}
	b2, err := co.LocalFor(ctx, "other")
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Errorf("repeated decompression did not reuse the memo")
	}
	if got := ctx.Stats().CompressStats; got.Decompressions != 1 || got.DecompressionsByOp["other"] != 1 {
		t.Errorf("decompressions = %d (by op %v), want 1 against \"other\"", got.Decompressions, got.DecompressionsByOp)
	}
}
