package compress

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"github.com/systemds/systemds-go/internal/matrix"
)

// Binary serialization of compressed matrices for buffer-pool spill files.
// The point of spilling a compressed matrix is that the *compressed* bytes
// hit disk: the format writes dictionaries, codes and runs directly, never a
// decompressed cell image.

const serializeMagic = uint32(0x53445343) // "SDSC"

type binWriter struct {
	w   *bufio.Writer
	err error
}

func (b *binWriter) write(v any) {
	if b.err == nil {
		b.err = binary.Write(b.w, binary.LittleEndian, v)
	}
}

// writeCols writes a column set as its length and the int32 indexes.
func (b *binWriter) writeCols(cols []int) {
	idx := make([]int32, len(cols))
	for i, c := range cols {
		idx[i] = int32(c)
	}
	b.write(int32(len(cols)))
	b.write(idx)
}

// Write serializes the compressed matrix.
func (c *CompressedMatrix) Write(w io.Writer) error {
	bw := &binWriter{w: bufio.NewWriter(w)}
	bw.write(serializeMagic)
	bw.write(int64(c.NumRows))
	bw.write(int64(c.NumCols))
	bw.write(int32(len(c.Groups)))
	for _, g := range c.Groups {
		switch t := g.(type) {
		case *DDCGroup:
			bw.write(uint8(EncDDC))
			bw.writeCols(t.Cols)
			bw.write(int32(t.numVals()))
			bw.write(t.Dict)
			bw.write(t.Counts)
			if t.Codes8 != nil {
				bw.write(uint8(1))
				bw.write(int64(len(t.Codes8)))
				bw.write(t.Codes8)
			} else {
				bw.write(uint8(2))
				bw.write(int64(len(t.Codes16)))
				bw.write(t.Codes16)
			}
		case *RLEGroup:
			bw.write(uint8(EncRLE))
			bw.write(int32(t.Col))
			bw.write(int32(len(t.Values)))
			bw.write(t.Values)
			bw.write(t.Starts)
			bw.write(t.Lens)
		case *SDCGroup:
			bw.write(uint8(EncSDC))
			bw.write(int32(t.Col))
			bw.write(int64(t.N))
			bw.write(t.Default)
			bw.write(int32(len(t.Dict)))
			bw.write(t.Dict)
			bw.write(t.Counts)
			bw.write(int64(len(t.Pos)))
			bw.write(t.Pos)
			bw.write(t.Codes)
		case *UncompressedGroup:
			bw.write(uint8(EncUncompressed))
			bw.writeCols(t.ColIdx)
			bw.write(int64(t.Data.Rows()))
			bw.write(int64(t.Data.Cols()))
			// dense row-major cell image of just this group's columns, one
			// row at a time so a sparse block is never densified
			row := make([]float64, t.Data.Cols())
			for r := range t.Data.Rows() {
				t.Data.CopyRow(row, r, 0)
				bw.write(row)
			}
		default:
			return fmt.Errorf("compress: cannot serialize column group %T", g)
		}
	}
	if bw.err != nil {
		return bw.err
	}
	return bw.w.Flush()
}

// Read deserializes a compressed matrix written by Write. Malformed input
// returns an error: every length is checked before anything is sized from it
// (codes, runs, positions and cells against the row count, dictionaries
// against the code space), group columns ascend across the file inside the
// matrix, codes index inside their dictionary, SDC positions ascend below the
// row count, and RLE runs tile the rows with at most MaxDictSize distinct
// values, so every group the kernels expand to dictionary codes fits them.
func Read(r io.Reader) (*CompressedMatrix, error) {
	d := &spillDecoder{r: bufio.NewReader(r)}
	var magic uint32
	d.read(&magic)
	if d.err == nil && magic != serializeMagic {
		return nil, fmt.Errorf("compress: bad magic %#x in compressed spill file", magic)
	}
	d.rows = length[int64](d, "row count", 0, math.MaxInt32)
	d.cols = length[int64](d, "column count", 0, math.MaxInt32)
	out := &CompressedMatrix{NumRows: d.rows, NumCols: d.cols}
	for range length[int32](d, "group count", 0, d.cols) {
		var tag uint8
		d.read(&tag)
		var g ColGroup
		switch Encoding(tag) {
		case EncDDC:
			g = d.ddc()
		case EncRLE:
			g = d.rle()
		case EncSDC:
			g = d.sdc()
		case EncUncompressed:
			g = d.uncompressed()
		default:
			d.fail("unknown column-group tag %d", tag)
		}
		if d.err != nil {
			break
		}
		out.Groups = append(out.Groups, g)
	}
	if d.err != nil {
		return nil, d.err
	}
	return out, nil
}

// spillDecoder reads one spill file of a rows x cols matrix. err is the first
// read error or malformed field; once it is set every read is a no-op and
// every length reads as 0.
type spillDecoder struct {
	r          *bufio.Reader
	err        error
	rows, cols int
	next       int // lowest column the next group may cover
}

func (d *spillDecoder) read(v any) {
	if d.err == nil {
		d.err = binary.Read(d.r, binary.LittleEndian, v)
	}
}

// fail records a malformed field unless an earlier error stands.
func (d *spillDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("compress: corrupt spill file: "+format, args...)
	}
}

// length reads a length field and returns it when it lies in [lo, hi].
func length[T int32 | int64](d *spillDecoder, what string, lo, hi int) int {
	var n T
	d.read(&n)
	if d.err == nil && (int64(n) < int64(lo) || int64(n) > int64(hi)) {
		d.fail("%s %d outside [%d, %d]", what, n, lo, hi)
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

// readChunk caps the elements one read allocates ahead of the bytes that
// fill them, so a length larger than the input fails at the end of the input
// instead of allocating what it claims.
const readChunk = 1 << 16

// readSlice reads n values, growing the slice one chunk at a time. The result
// is non-nil even when n is 0.
func readSlice[T uint8 | uint16 | int32 | float64](d *spillDecoder, n int) []T {
	out := make([]T, 0, min(n, readChunk))
	for len(out) < n && d.err == nil {
		k := min(n-len(out), readChunk)
		out = slices.Grow(out, k)[:len(out)+k]
		d.read(out[len(out)-k:])
	}
	return out
}

// readCodes reads n codes and checks that each indexes a dictionary of nv
// entries.
func readCodes[T uint8 | uint16](d *spillDecoder, n, nv int) []T {
	codes := readSlice[T](d, n)
	for _, k := range codes {
		if int(k) >= nv {
			d.fail("code %d beyond a dictionary of %d", k, nv)
			break
		}
	}
	return codes
}

// claim checks that column c lies in [next, cols) and moves next past it.
func (d *spillDecoder) claim(c int32) int {
	if int(c) < d.next || int(c) >= d.cols {
		d.fail("column %d outside [%d, %d)", c, d.next, d.cols)
	}
	d.next = int(c) + 1
	return int(c)
}

// col reads and claims the column of a single-column group.
func (d *spillDecoder) col() int {
	var c int32
	d.read(&c)
	return d.claim(c)
}

// colSet reads and claims a non-empty ascending column set.
func (d *spillDecoder) colSet() []int {
	idx := readSlice[int32](d, length[int32](d, "group width", 1, d.cols-d.next))
	cols := make([]int, len(idx))
	for i, c := range idx {
		cols[i] = d.claim(c)
	}
	return cols
}

func (d *spillDecoder) ddc() ColGroup {
	g := &DDCGroup{Cols: d.colSet()}
	nv := length[int32](d, "dictionary size", 0, MaxDictSize)
	g.Dict, g.Counts = readSlice[float64](d, nv*len(g.Cols)), readSlice[int32](d, nv)
	var width uint8
	d.read(&width)
	n := length[int64](d, "code count", d.rows, d.rows)
	switch {
	case width == 1 && nv <= 256:
		g.Codes8 = readCodes[uint8](d, n, nv)
	case width == 2:
		g.Codes16 = readCodes[uint16](d, n, nv)
	default:
		d.fail("code width %d for %d tuples", width, nv)
	}
	return g
}

func (d *spillDecoder) rle() ColGroup {
	g := &RLEGroup{Col: d.col()}
	// every run covers at least one row
	n := length[int32](d, "run count", 0, d.rows)
	g.Values, g.Starts, g.Lens = readSlice[float64](d, n), readSlice[int32](d, n), readSlice[int32](d, n)
	if d.err != nil {
		return nil
	}
	end := 0
	for i, s := range g.Starts {
		if int(s) != end || g.Lens[i] < 1 {
			d.fail("run %d at row %d of length %d, want one starting at row %d", i, s, g.Lens[i], end)
			return nil
		}
		end += int(g.Lens[i])
	}
	if end != d.rows {
		d.fail("runs end at row %d, want %d", end, d.rows)
	}
	if tooManyRunValues(g.Values) {
		d.fail("runs carry more than %d distinct values", MaxDictSize)
	}
	return g
}

func (d *spillDecoder) sdc() ColGroup {
	g := &SDCGroup{Col: d.col(), N: length[int64](d, "row count", d.rows, d.rows)}
	d.read(&g.Default)
	nv := length[int32](d, "dictionary size", 0, MaxDictSize)
	g.Dict, g.Counts = readSlice[float64](d, nv), readSlice[int32](d, nv)
	n := length[int64](d, "exception count", 0, d.rows)
	g.Pos, g.Codes = readSlice[int32](d, n), readCodes[uint16](d, n, nv)
	prev := -1
	for _, p := range g.Pos {
		if int(p) <= prev || int(p) >= d.rows {
			d.fail("exception at row %d after row %d of %d", p, prev, d.rows)
			break
		}
		prev = int(p)
	}
	return g
}

func (d *spillDecoder) uncompressed() ColGroup {
	cols := d.colSet()
	rows := length[int64](d, "block rows", d.rows, d.rows)
	width := length[int64](d, "block width", len(cols), len(cols))
	vals := readSlice[float64](d, rows*width)
	if d.err != nil {
		return nil
	}
	blk := matrix.NewDenseFromSlice(rows, width, vals)
	// CSR keeps no negative zero: a block holding one stays dense, so the
	// restored cells are the written bits
	if !slices.ContainsFunc(vals, func(v float64) bool { return v == 0 && math.Signbit(v) }) {
		blk = blk.ExamineAndApplySparsity()
	}
	return &UncompressedGroup{ColIdx: cols, Data: blk}
}

// WriteFile spills the compressed matrix to a file.
func (c *CompressedMatrix) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := c.Write(f); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}

// ReadFile restores a compressed matrix from a spill file.
func ReadFile(path string) (*CompressedMatrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
