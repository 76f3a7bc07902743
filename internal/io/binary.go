package io

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"sync"

	"github.com/systemds/systemds-go/internal/matrix"
)

// The SDSB binary blocked format, version 1: five little-endian uint64 header
// words (magic, version, rows, cols, blocksize), then the blocks in row-major
// block order, each three words (rows, cols, nnz) followed by its cells as
// row-major float64 bits. It corresponds to SystemDS' binary block format
// used between jobs. Every field is one 8-byte word, so both directions
// stream words through a fixed chunk buffer in a single pass: time linear in
// the cell count whatever the block count, memory the chunk plus (decoding)
// the result. The bytes are a compatibility surface — buffer-pool spill
// files, the persistent lineage store and `write`n files hold them.
const (
	binaryMagic   uint64 = 0x53445342 // "SDSB"
	binaryVersion uint64 = 1

	headerBytes      = 5 * 8
	blockHeaderBytes = 3 * 8
	defaultBlocksize = 1024
	// codecChunk is the size of the staging buffer between the float64 cells
	// and the byte stream: large enough that a file sees few system calls,
	// small enough to stay cache resident.
	codecChunk = 256 << 10
)

// chunks recycles the staging buffers; a codec call borrows one for its
// duration.
var chunks = sync.Pool{New: func() any { b := make([]byte, codecChunk); return &b }}

// EncodedSize returns the exact number of bytes WriteMatrixBinaryTo produces
// for a rows x cols matrix (blocksize <= 0 selects the writer's default).
func EncodedSize(rows, cols, blocksize int) int64 {
	if blocksize <= 0 {
		blocksize = defaultBlocksize
	}
	size, _ := encodedSize(uint64(rows), uint64(cols), uint64(blocksize))
	return size
}

// encodedSize is EncodedSize over the raw header words; ok is false when the
// size does not fit an int64 (only a corrupt header gets there).
func encodedSize(rows, cols, blocksize uint64) (size int64, ok bool) {
	const limit = math.MaxInt64 / 64 // 24*blocks + 8*cells below stays in range
	if rows > limit || cols > limit || (cols != 0 && rows > limit/cols) {
		return 0, false
	}
	var blocks uint64
	if rows != 0 && cols != 0 {
		gr, gc := (rows-1)/blocksize+1, (cols-1)/blocksize+1
		if gr > limit/gc {
			return 0, false
		}
		blocks = gr * gc
	}
	return int64(headerBytes + blocks*blockHeaderBytes + rows*cols*8), true
}

// WriteMatrixBinary writes a matrix to a file in the binary blocked format.
func WriteMatrixBinary(path string, m *matrix.MatrixBlock, blocksize int) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("io: create %s: %w", path, err)
	}
	if err := WriteMatrixBinaryTo(f, m, blocksize); err != nil {
		f.Close()
		return fmt.Errorf("io: write %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("io: write %s: %w", path, err)
	}
	return nil
}

// wordWriter stages little-endian words in a chunk buffer in front of dst.
type wordWriter struct {
	dst io.Writer
	buf []byte
	n   int
}

func (w *wordWriter) flush() error {
	_, err := w.dst.Write(w.buf[:w.n])
	w.n = 0
	return err
}

func (w *wordWriter) words(vs ...uint64) error {
	for _, v := range vs {
		if w.n == len(w.buf) {
			if err := w.flush(); err != nil {
				return err
			}
		}
		binary.LittleEndian.PutUint64(w.buf[w.n:], v)
		w.n += 8
	}
	return nil
}

func (w *wordWriter) floats(vs []float64) error {
	for len(vs) > 0 {
		if w.n == len(w.buf) {
			if err := w.flush(); err != nil {
				return err
			}
		}
		out := w.buf[w.n:]
		k := min(len(vs), len(out)/8)
		for i, v := range vs[:k] {
			binary.LittleEndian.PutUint64(out[i*8:], math.Float64bits(v))
		}
		w.n += k * 8
		vs = vs[k:]
	}
	return nil
}

// WriteMatrixBinaryTo writes the binary blocked format to an arbitrary
// writer (the persistent lineage store serializes cached intermediates into
// its spill files with it). The source is only read: a sparse block is
// encoded row by row from its CSR arrays and stays sparse.
func WriteMatrixBinaryTo(dst io.Writer, m *matrix.MatrixBlock, blocksize int) error {
	if blocksize <= 0 {
		blocksize = defaultBlocksize
	}
	chunk := chunks.Get().(*[]byte)
	defer chunks.Put(chunk)
	w := &wordWriter{dst: dst, buf: *chunk}
	rows, cols := m.Rows(), m.Cols()
	if err := w.words(binaryMagic, binaryVersion, uint64(rows), uint64(cols), uint64(blocksize)); err != nil {
		return err
	}
	var dense, row []float64
	if m.IsSparse() {
		row = make([]float64, min(cols, blocksize))
	} else {
		dense = m.DenseValues()
	}
	for r0 := 0; r0 < rows && cols > 0; r0 += blocksize {
		r1 := min(r0+blocksize, rows)
		for c0 := 0; c0 < cols; c0 += blocksize {
			c1 := min(c0+blocksize, cols)
			if err := w.words(uint64(r1-r0), uint64(c1-c0), uint64(m.RangeNNZ(r0, r1, c0, c1))); err != nil {
				return err
			}
			var err error
			switch {
			case dense == nil:
				for r := r0; r < r1 && err == nil; r++ {
					m.CopyRow(row[:c1-c0], r, c0)
					err = w.floats(row[:c1-c0])
				}
			case c1-c0 == cols: // the block's rows are adjacent in the source
				err = w.floats(dense[r0*cols : r1*cols])
			default:
				for r := r0; r < r1 && err == nil; r++ {
					err = w.floats(dense[r*cols+c0 : r*cols+c1])
				}
			}
			if err != nil {
				return err
			}
		}
	}
	return w.flush()
}

// ReadMatrixBinary reads a matrix written by WriteMatrixBinary.
func ReadMatrixBinary(path string) (*matrix.MatrixBlock, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("io: open %s: %w", path, err)
	}
	defer f.Close()
	return ReadMatrixBinaryFrom(f, path)
}

// wordReader stages the byte stream of one encoding in a chunk buffer and
// hands it out as little-endian words. left is what the encoding still has
// to deliver beyond the buffer: reads never ask src for more, so a stream
// holding several encodings is consumed exactly. nnz counts the non-zero
// cells floats has delivered.
type wordReader struct {
	src      io.Reader
	buf      []byte
	pos, end int
	left     int64
	nnz      int64
}

// fill makes at least one word available, or fails: io.ErrUnexpectedEOF when
// the source ends inside the encoding.
func (r *wordReader) fill() error {
	r.end = copy(r.buf, r.buf[r.pos:r.end])
	r.pos = 0
	want := int(min(int64(len(r.buf)-r.end), r.left))
	if r.end+want < 8 {
		return io.ErrUnexpectedEOF
	}
	n, err := io.ReadAtLeast(r.src, r.buf[r.end:r.end+want], 8-r.end)
	r.end += n
	r.left -= int64(n)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

func (r *wordReader) words(vs ...*uint64) error {
	for _, v := range vs {
		if r.end-r.pos < 8 {
			if err := r.fill(); err != nil {
				return err
			}
		}
		*v = binary.LittleEndian.Uint64(r.buf[r.pos:])
		r.pos += 8
	}
	return nil
}

func (r *wordReader) floats(dst []float64) error {
	for len(dst) > 0 {
		if r.end-r.pos < 8 {
			if err := r.fill(); err != nil {
				return err
			}
		}
		in := r.buf[r.pos:r.end]
		k := min(len(dst), len(in)/8)
		var nnz int64
		for i := range dst[:k] {
			v := math.Float64frombits(binary.LittleEndian.Uint64(in[i*8:]))
			dst[i] = v
			if v != 0 {
				nnz++
			}
		}
		r.nnz += nnz
		r.pos += k * 8
		dst = dst[k:]
	}
	return nil
}

// sourceLen returns how many bytes src can still deliver, when it knows.
func sourceLen(src io.Reader) (int64, bool) {
	switch s := src.(type) {
	case interface{ Len() int }: // bytes.Reader, bytes.Buffer, strings.Reader
		return int64(s.Len()), true
	case *os.File:
		fi, err := s.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return 0, false
		}
		pos, err := s.Seek(0, io.SeekCurrent)
		if err != nil {
			return 0, false
		}
		return fi.Size() - pos, true
	}
	return 0, false
}

// ReadMatrixBinaryFrom reads the binary blocked format from an arbitrary
// reader, consuming exactly the encoding; label names the source in error
// messages. The header is untrusted: it is validated against the format and,
// before anything is allocated for it, against the length of the source — a
// source that does not know its length is read to its end first so that it
// does. The per-block nnz word is advisory, as it always was: the count is
// taken from the cells as they are copied.
func ReadMatrixBinaryFrom(src io.Reader, label string) (*matrix.MatrixBlock, error) {
	avail, known := sourceLen(src)
	if !known {
		data, err := io.ReadAll(src)
		if err != nil {
			return nil, fmt.Errorf("io: %s: %w", label, err)
		}
		src, avail = bytes.NewReader(data), int64(len(data))
	}
	chunk := chunks.Get().(*[]byte)
	defer chunks.Put(chunk)
	r := &wordReader{src: src, buf: *chunk, left: headerBytes}
	var magic, version, urows, ucols, ubs uint64
	if err := r.words(&magic, &version, &urows, &ucols, &ubs); err != nil {
		return nil, fmt.Errorf("io: %s: corrupt header: %w", label, err)
	}
	if magic != binaryMagic {
		return nil, fmt.Errorf("io: %s is not a SystemDS-Go binary matrix file", label)
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("io: %s: unsupported binary format version %d", label, version)
	}
	size, ok := encodedSize(urows, ucols, max(ubs, 1))
	if ubs == 0 || !ok || size > avail {
		return nil, fmt.Errorf("io: %s: corrupt header: %d x %d in blocks of %d does not fit the %d bytes present",
			label, urows, ucols, ubs, avail)
	}
	r.left = size - headerBytes
	rows, cols := int(urows), int(ucols)
	blocksize := int(min(ubs, uint64(max(rows, cols, 1)))) // larger is one block either way
	dense := make([]float64, rows*cols)
	for r0 := 0; r0 < rows && cols > 0; r0 += blocksize {
		r1 := min(r0+blocksize, rows)
		for c0 := 0; c0 < cols; c0 += blocksize {
			c1 := min(c0+blocksize, cols)
			var brows, bcols, nnz uint64
			if err := r.words(&brows, &bcols, &nnz); err != nil {
				return nil, fmt.Errorf("io: %s: corrupt block header: %w", label, err)
			}
			if brows != uint64(r1-r0) || bcols != uint64(c1-c0) {
				return nil, fmt.Errorf("io: %s: block size mismatch", label)
			}
			var err error
			if c1-c0 == cols {
				err = r.floats(dense[r0*cols : r1*cols])
			} else {
				for row := r0; row < r1 && err == nil; row++ {
					err = r.floats(dense[row*cols+c0 : row*cols+c1])
				}
			}
			if err != nil {
				return nil, fmt.Errorf("io: %s: corrupt block payload: %w", label, err)
			}
		}
	}
	out := matrix.NewDenseCounted(rows, cols, dense, r.nnz)
	out.ExamineAndApplySparsity()
	return out, nil
}

// ReadMatrixLibSVM reads a libsvm-formatted file ("label idx:val idx:val ...",
// 1-based indexes) and returns the feature matrix and label vector.
func ReadMatrixLibSVM(path string, numFeatures int) (x, y *matrix.MatrixBlock, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("io: read %s: %w", path, err)
	}
	return ParseLibSVM(data, numFeatures)
}

// ParseLibSVM parses libsvm bytes into a feature matrix and label vector.
// When numFeatures <= 0 the number of features is determined from the data.
func ParseLibSVM(data []byte, numFeatures int) (x, y *matrix.MatrixBlock, err error) {
	lines := strings.Split(string(data), "\n")
	type entry struct {
		col int
		val float64
	}
	rows := make([][]entry, 0, len(lines))
	labels := make([]float64, 0, len(lines))
	maxCol := 0
	for ln, line := range lines {
		line = trimSpace(line)
		if line == "" {
			continue
		}
		fields := splitFields(line)
		if len(fields) == 0 {
			continue
		}
		var label float64
		if _, err := fmt.Sscanf(fields[0], "%g", &label); err != nil {
			return nil, nil, fmt.Errorf("io: libsvm line %d: bad label %q", ln+1, fields[0])
		}
		es := make([]entry, 0, len(fields)-1)
		for _, f := range fields[1:] {
			var idx int
			var val float64
			if _, err := fmt.Sscanf(f, "%d:%g", &idx, &val); err != nil {
				return nil, nil, fmt.Errorf("io: libsvm line %d: bad entry %q", ln+1, f)
			}
			if idx < 1 {
				return nil, nil, fmt.Errorf("io: libsvm line %d: index %d must be >= 1", ln+1, idx)
			}
			if idx > maxCol {
				maxCol = idx
			}
			es = append(es, entry{col: idx - 1, val: val})
		}
		rows = append(rows, es)
		labels = append(labels, label)
	}
	cols := numFeatures
	if cols <= 0 {
		cols = maxCol
	}
	b := matrix.NewBuilder(len(rows), cols)
	for r, es := range rows {
		for _, e := range es {
			if e.col < cols {
				b.Add(r, e.col, e.val)
			}
		}
	}
	x = b.Build()
	x.ExamineAndApplySparsity()
	y = matrix.NewDense(len(labels), 1)
	for i, l := range labels {
		y.Set(i, 0, l)
	}
	return x, y, nil
}

func trimSpace(s string) string {
	start, end := 0, len(s)
	for start < end && (s[start] == ' ' || s[start] == '\t') {
		start++
	}
	for end > start && (s[end-1] == ' ' || s[end-1] == '\t' || s[end-1] == '\r') {
		end--
	}
	return s[start:end]
}

func splitFields(s string) []string {
	var out []string
	start := -1
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' || s[i] == '\t' {
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
		} else if start < 0 {
			start = i
		}
	}
	if start >= 0 {
		out = append(out, s[start:])
	}
	return out
}
