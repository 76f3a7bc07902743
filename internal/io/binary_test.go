package io

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
)

// codecCase is one shape of the codec's input space.
type codecCase struct {
	name      string
	m         *matrix.MatrixBlock
	blocksize int
}

func codecCases() []codecCase {
	special := matrix.NewDense(3, 4)
	for i, v := range []float64{math.NaN(), math.Float64frombits(0x7ff8dead0000beef), math.Copysign(0, -1), 0,
		math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, -math.MaxFloat64, 1, -1, 0.1, math.Float64frombits(0xfff0000000000001)} {
		special.Set(i/4, i%4, v)
	}
	return []codecCase{
		{"dense one block", matrix.RandUniform(40, 7, -1, 1, 1, 1), 1024},
		{"dense row blocks", matrix.RandUniform(200, 37, -10, 10, 1, 2), 64},
		{"dense grid ragged", matrix.RandUniform(150, 70, -1, 1, 1, 3), 64},
		{"dense grid exact", matrix.RandUniform(128, 64, -1, 1, 1, 4), 32},
		{"dense blocksize one", matrix.RandUniform(5, 3, -1, 1, 1, 5), 1},
		{"default blocksize", matrix.RandUniform(30, 30, -1, 1, 1, 6), 0},
		{"sparse one block", matrix.RandUniform(100, 50, 0, 1, 0.05, 7), 1024},
		{"sparse grid ragged", matrix.RandUniform(150, 70, 0, 1, 0.1, 8), 64},
		{"sparse with an empty band", matrix.RandUniform(300, 20, 0, 1, 0.002, 9), 100},
		{"half dense grid", matrix.RandUniform(90, 90, 0, 1, 0.5, 10), 40},
		{"all zero", matrix.NewDense(20, 10), 8},
		{"0xn", matrix.NewDense(0, 9), 4},
		{"nx0", matrix.NewDense(9, 0), 4},
		{"0x0", matrix.NewDense(0, 0), 4},
		{"1x1", matrix.FromRows([][]float64{{42.5}}), 1024},
		{"special values", special, 1024},
		{"special values, blocks of two", special, 2},
	}
}

func encode(t testing.TB, m *matrix.MatrixBlock, blocksize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteMatrixBinaryTo(&buf, m, blocksize); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameBits reports whether two blocks agree in shape, representation, nnz and
// every cell's float64 bits.
func sameBits(a, b *matrix.MatrixBlock) error {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() {
		return fmt.Errorf("shape %dx%d vs %dx%d", a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	if a.Rows() == 0 || a.Cols() == 0 {
		return nil
	}
	if a.IsSparse() != b.IsSparse() {
		return fmt.Errorf("sparse %v vs %v", a.IsSparse(), b.IsSparse())
	}
	if a.NNZ() != b.NNZ() {
		return fmt.Errorf("nnz %d vs %d", a.NNZ(), b.NNZ())
	}
	for r := 0; r < a.Rows(); r++ {
		for c := 0; c < a.Cols(); c++ {
			if x, y := math.Float64bits(a.Get(r, c)), math.Float64bits(b.Get(r, c)); x != y {
				return fmt.Errorf("cell (%d,%d): %#x vs %#x", r, c, x, y)
			}
		}
	}
	return nil
}

// TestSDSBEncoderMatchesOracle: the format did not move — the streaming
// encoder produces the previous encoder's bytes for every shape, EncodedSize
// is their length, and encoding reads the source without converting it.
func TestSDSBEncoderMatchesOracle(t *testing.T) {
	for _, tc := range codecCases() {
		t.Run(tc.name, func(t *testing.T) {
			wasSparse := tc.m.IsSparse()
			var want bytes.Buffer
			if err := oracleWriteMatrixBinaryTo(&want, tc.m.Copy(), tc.blocksize); err != nil {
				t.Fatal(err)
			}
			got := encode(t, tc.m, tc.blocksize)
			if !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("encoding differs from the oracle's (%d vs %d bytes)", len(got), want.Len())
			}
			if size := EncodedSize(tc.m.Rows(), tc.m.Cols(), tc.blocksize); size != int64(len(got)) {
				t.Errorf("EncodedSize = %d, encoding has %d bytes", size, len(got))
			}
			if tc.m.IsSparse() != wasSparse {
				t.Errorf("encoding changed the source's representation (sparse %v -> %v)", wasSparse, tc.m.IsSparse())
			}
		})
	}
}

// TestSDSBDecoderMatchesOracle: decoding gives the previous decoder's block —
// shape, sparse/dense choice, nnz, cell bits — and decode∘encode is the
// identity on the cell bits of every dense result, NaN payloads, ±0 and ±Inf
// included (a sparse result has no slot for a stored -0, then as now).
func TestSDSBDecoderMatchesOracle(t *testing.T) {
	for _, tc := range codecCases() {
		t.Run(tc.name, func(t *testing.T) {
			enc := encode(t, tc.m, tc.blocksize)
			got, err := ReadMatrixBinaryFrom(bytes.NewReader(enc), tc.name)
			if err != nil {
				t.Fatal(err)
			}
			want, err := oracleReadMatrixBinaryFrom(bytes.NewReader(enc))
			if err != nil {
				t.Fatal(err)
			}
			if err := sameBits(got, want); err != nil {
				t.Errorf("decoded block differs from the oracle's: %v", err)
			}
			if !got.IsSparse() {
				if err := sameBits(got, tc.m.Copy().ToDense()); err != nil {
					t.Errorf("round trip changed the matrix: %v", err)
				}
			}
		})
	}
}

// TestSDSBFileRoundTrip covers the file entry points, which the buffer pool
// spills through.
func TestSDSBFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.bin")
	m := matrix.RandUniform(300, 41, -1, 1, 1, 11)
	if err := WriteMatrixBinary(path, m, 128); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != EncodedSize(300, 41, 128) {
		t.Fatalf("file size %v (err %v), want %d", fi, err, EncodedSize(300, 41, 128))
	}
	got, err := ReadMatrixBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBits(got, m); err != nil {
		t.Error(err)
	}
}

// TestSDSBDecoderConsumesExactly: a source that knows its length is read to
// the end of the encoding and no further, so encodings can follow each other.
func TestSDSBDecoderConsumesExactly(t *testing.T) {
	a, b := matrix.RandUniform(70, 9, -1, 1, 1, 12), matrix.RandUniform(3, 200, -1, 1, 1, 13)
	stream := bytes.NewReader(append(encode(t, a, 32), encode(t, b, 32)...))
	for _, want := range []*matrix.MatrixBlock{a, b} {
		got, err := ReadMatrixBinaryFrom(stream, "stream")
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBits(got, want); err != nil {
			t.Error(err)
		}
	}
	if stream.Len() != 0 {
		t.Errorf("%d bytes left unread", stream.Len())
	}
}

// onlyReader hides every method of a reader but Read.
type onlyReader struct{ r *bytes.Reader }

func (o onlyReader) Read(p []byte) (int, error) { return o.r.Read(p) }

func TestSDSBDecoderUnknownLengthSource(t *testing.T) {
	m := matrix.RandUniform(50, 50, -1, 1, 1, 14)
	got, err := ReadMatrixBinaryFrom(onlyReader{bytes.NewReader(encode(t, m, 16))}, "pipe")
	if err != nil {
		t.Fatal(err)
	}
	if err := sameBits(got, m); err != nil {
		t.Error(err)
	}
	huge := header(1<<40, 1<<20, 1024)
	if _, err := ReadMatrixBinaryFrom(onlyReader{bytes.NewReader(huge)}, "pipe"); err == nil {
		t.Error("a header larger than its stream decoded")
	}
}

// TestSDSBDecodeAllocation: decoding allocates the result and little else,
// whatever the block count (the previous decoder copied the whole output once
// per block).
func TestSDSBDecodeAllocation(t *testing.T) {
	const rows, cols = 2000, 100
	m := matrix.RandUniform(rows, cols, -1, 1, 1, 15)
	for _, blocksize := range []int{4096, 500, 50} {
		enc := encode(t, m, blocksize)
		rd := bytes.NewReader(enc)
		// TotalAlloc is process-wide: the least of three rounds leaves out
		// what the runtime (the race detector's, say) allocates meanwhile
		perRun := math.Inf(1)
		for round := 0; round < 3; round++ {
			var ms0, ms1 runtime.MemStats
			const runs = 5
			runtime.ReadMemStats(&ms0)
			for i := 0; i < runs; i++ {
				rd.Reset(enc)
				if _, err := ReadMatrixBinaryFrom(rd, "alloc"); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&ms1)
			perRun = min(perRun, float64(ms1.TotalAlloc-ms0.TotalAlloc)/runs)
		}
		if limit := 1.1 * 8 * rows * cols; perRun > limit {
			t.Errorf("blocksize %d: decode allocates %.0f bytes, want < %.0f", blocksize, perRun, limit)
		}
	}
}

// TestSDSBCodecReusesItsChunkAcrossGC: a decode after GCs, on a goroutine of
// its own, still borrows the staging chunk the previous call returned, so a
// small read allocates far less than one chunk whatever the scheduling.
func TestSDSBCodecReusesItsChunkAcrossGC(t *testing.T) {
	enc := encode(t, matrix.RandUniform(256, 8, -1, 1, 1, 17), 0)
	decode := func() {
		if _, err := ReadMatrixBinaryFrom(bytes.NewReader(enc), "gc"); err != nil {
			t.Error(err)
		}
	}
	decode()
	least := uint64(math.MaxUint64)
	for round := 0; round < 5; round++ {
		// two cycles empty a sync.Pool, its victim cache included
		runtime.GC()
		runtime.GC()
		var ms0, ms1 runtime.MemStats
		done := make(chan struct{})
		runtime.ReadMemStats(&ms0)
		go func() {
			defer close(done)
			decode()
		}()
		<-done
		runtime.ReadMemStats(&ms1)
		least = min(least, ms1.TotalAlloc-ms0.TotalAlloc)
	}
	if limit := uint64(codecChunk / 2); least > limit {
		t.Errorf("a 256x8 decode after GC allocates %d bytes, want < %d: the staging chunk was not reused", least, limit)
	}
}

func header(words ...uint64) []byte {
	b := binary.LittleEndian.AppendUint64(nil, binaryMagic)
	b = binary.LittleEndian.AppendUint64(b, binaryVersion)
	for _, w := range words {
		b = binary.LittleEndian.AppendUint64(b, w)
	}
	return b
}

// hostileInputs are byte strings no writer produced; the decoder must answer
// each with an error. They double as the fuzz seed corpus.
func hostileInputs(t testing.TB) map[string][]byte {
	valid := encode(t, matrix.RandUniform(6, 5, -1, 1, 1, 16), 4)
	patched := func(off int, v uint64) []byte {
		b := bytes.Clone(valid)
		binary.LittleEndian.PutUint64(b[off:], v)
		return b
	}
	return map[string][]byte{
		"empty":               {},
		"short header":        valid[:17],
		"bad magic":           patched(0, 0x1234),
		"version two":         patched(8, 2),
		"zero blocksize":      patched(32, 0),
		"negative rows":       patched(16, 1<<63),
		"huge dims":           header(1<<40, 1<<20, 1024),
		"huge empty":          header(1<<50, 0, 4), // decodes, to no cells, without walking its rows
		"overflowing dims":    header(1<<33, 1<<33, 1<<20),
		"overflowing grid":    header(1<<58, 1, 1),
		"rows beyond payload": patched(16, 7),
		"block dims flipped":  patched(40, 5),
		"truncated payload":   valid[:len(valid)-9],
		"truncated mid block": valid[:headerBytes+blockHeaderBytes+8],
		"header only":         valid[:headerBytes],
	}
}

func TestSDSBDecoderRejectsHostileInput(t *testing.T) {
	for name, data := range hostileInputs(t) {
		t.Run(name, func(t *testing.T) {
			if m, err := ReadMatrixBinaryFrom(bytes.NewReader(data), name); err == nil && m.Rows()*m.Cols() > 0 {
				t.Errorf("decoded a %dx%d matrix", m.Rows(), m.Cols())
			}
			path := filepath.Join(t.TempDir(), "m.bin")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if m, err := ReadMatrixBinary(path); err == nil && m.Rows()*m.Cols() > 0 {
				t.Error("decoded from a file")
			}
		})
	}
}

// FuzzReadMatrixBinary: whatever the bytes, decoding returns a block or an
// error — it neither panics nor produces more cells than the input holds —
// and decoding the consumed bytes again gives the same block.
func FuzzReadMatrixBinary(f *testing.F) {
	f.Add(encode(f, matrix.RandUniform(9, 7, -1, 1, 1, 17), 4))
	f.Add(encode(f, matrix.RandUniform(30, 12, 0, 1, 0.1, 18), 8))
	for _, data := range hostileInputs(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		m, err := ReadMatrixBinaryFrom(rd, "fuzz")
		if err != nil {
			return
		}
		used := data[:len(data)-rd.Len()]
		if 8*m.Rows()*m.Cols() > len(used) {
			t.Fatalf("a %dx%d matrix came out of %d bytes", m.Rows(), m.Cols(), len(used))
		}
		again, err := ReadMatrixBinaryFrom(bytes.NewReader(used), "fuzz")
		if err != nil {
			t.Fatalf("second decode of the same bytes failed: %v", err)
		}
		if err := sameBits(m, again); err != nil {
			t.Fatalf("decoding is not deterministic: %v", err)
		}
	})
}

func benchmarkShapes() []struct{ rows, cols int } {
	return []struct{ rows, cols int }{{8000, 256}, {4000, 200}}
}

// BenchmarkSDSBEncode encodes into memory; MB/s is over the dense payload.
func BenchmarkSDSBEncode(b *testing.B) {
	for _, s := range benchmarkShapes() {
		b.Run(fmt.Sprintf("%dx%d", s.rows, s.cols), func(b *testing.B) {
			m := matrix.RandUniform(s.rows, s.cols, -1, 1, 1, 19)
			var buf bytes.Buffer
			buf.Grow(int(EncodedSize(s.rows, s.cols, 1000)))
			b.SetBytes(int64(8 * s.rows * s.cols))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := WriteMatrixBinaryTo(&buf, m, 1000); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSDSBDecode decodes from memory; MB/s is over the dense payload.
func BenchmarkSDSBDecode(b *testing.B) {
	for _, s := range benchmarkShapes() {
		b.Run(fmt.Sprintf("%dx%d", s.rows, s.cols), func(b *testing.B) {
			enc := encode(b, matrix.RandUniform(s.rows, s.cols, -1, 1, 1, 20), 1000)
			rd := bytes.NewReader(enc)
			b.SetBytes(int64(8 * s.rows * s.cols))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(enc)
				if _, err := ReadMatrixBinaryFrom(rd, "bench"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
