package io

import (
	"bufio"
	"encoding/binary"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/types"
)

func TestMatrixCSVRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.csv")
	m := matrix.RandUniform(50, 7, -5, 5, 1.0, 3)
	if err := WriteMatrixCSV(path, m, DefaultCSVOptions()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrixCSV(path, DefaultCSVOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equals(m, 1e-12) {
		t.Error("CSV round trip changed values")
	}
}

func TestMatrixCSVWithHeaderAndDelimiter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.csv")
	m := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	opts := CSVOptions{Delimiter: ';', Header: true, Threads: 2}
	if err := WriteMatrixCSV(path, m, opts); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrixCSV(path, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equals(m, 0) {
		t.Errorf("round trip = %v", got)
	}
}

func TestParseMatrixCSVErrors(t *testing.T) {
	if _, err := ParseMatrixCSV([]byte("1,2\n3,abc\n"), DefaultCSVOptions()); err == nil {
		t.Error("expected parse error")
	}
	if _, err := ParseMatrixCSV([]byte("1,2\n3\n"), DefaultCSVOptions()); err == nil {
		t.Error("expected column count error")
	}
	empty, err := ParseMatrixCSV([]byte(""), DefaultCSVOptions())
	if err != nil {
		t.Fatal(err)
	}
	if empty.Rows() != 0 {
		t.Error("empty input should produce empty matrix")
	}
}

func TestParseMatrixCSVSparseOutput(t *testing.T) {
	// mostly-zero CSV should come back in sparse representation
	csv := "0,0,0,0,0,0,0,0,0,1\n0,0,0,0,0,0,0,0,0,0\n0,0,0,0,0,0,0,2,0,0\n"
	m, err := ParseMatrixCSV([]byte(csv), DefaultCSVOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !m.IsSparse() {
		t.Error("expected sparse representation for mostly-zero data")
	}
	if m.NNZ() != 2 || m.Get(0, 9) != 1 || m.Get(2, 7) != 2 {
		t.Error("sparse CSV values wrong")
	}
}

func TestReadMatrixCSVMissingFile(t *testing.T) {
	if _, err := ReadMatrixCSV("/nonexistent/file.csv", DefaultCSVOptions()); err == nil {
		t.Error("expected error for missing file")
	}
}

func TestFrameCSVRoundTripWithInference(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f.csv")
	content := "city,temp,count,flag\ngraz,12.5,3,true\nvienna,15.0,7,false\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	opts := CSVOptions{Delimiter: ',', Header: true}
	f, err := ReadFrameCSV(path, nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumRows() != 2 || f.NumCols() != 4 {
		t.Fatalf("dims %dx%d", f.NumRows(), f.NumCols())
	}
	schema := f.Schema()
	if schema[0] != types.String || schema[1] != types.FP64 || schema[2] != types.INT64 || schema[3] != types.Boolean {
		t.Errorf("inferred schema = %v", schema)
	}
	if f.ColumnNames()[0] != "city" {
		t.Errorf("names = %v", f.ColumnNames())
	}
	// write back and re-read
	out := filepath.Join(dir, "f2.csv")
	if err := WriteFrameCSV(out, f, opts); err != nil {
		t.Fatal(err)
	}
	f2, err := ReadFrameCSV(out, f.Schema(), opts)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := f2.GetString(1, 0)
	if s != "vienna" {
		t.Errorf("round trip cell = %q", s)
	}
}

func TestParseFrameCSVSchemaMismatch(t *testing.T) {
	if _, err := ParseFrameCSV([]byte("1,2\n"), types.Schema{types.FP64}, DefaultCSVOptions()); err == nil {
		t.Error("expected schema mismatch error")
	}
	if _, err := ParseFrameCSV([]byte("1,2\n1\n"), nil, DefaultCSVOptions()); err == nil {
		t.Error("expected ragged row error")
	}
}

// Errors name the 1-based line in the file, header included; with several
// chunks the lowest failing line wins, whichever goroutine fails first.
func TestCSVErrorLineNumbers(t *testing.T) {
	opts := CSVOptions{Delimiter: ',', Header: true, Threads: 1}
	fp := types.Schema{types.FP64, types.FP64}
	check := func(what string, err error, want string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: error %v, want it to name %q", what, err, want)
		}
	}
	_, err := ParseMatrixCSV([]byte("a,b\n1,2\n3,x\n"), opts)
	check("matrix", err, "line 3:")
	_, err = ParseFrameCSV([]byte("a,b\n1,2\n3\n"), nil, opts)
	check("ragged frame", err, "line 3 ")
	_, err = ParseFrameCSV([]byte("a,b\n1,2\n3,x\n"), fp, opts)
	check("frame with a schema", err, "line 3:")

	var good, ragged, bad strings.Builder
	for _, b := range []*strings.Builder{&good, &ragged, &bad} {
		b.WriteString("a,b\n")
	}
	for line := 2; line <= 2000; line++ {
		row, short := "1,2\n", "1,2\n"
		if line == 5 || line == 1900 {
			row, short = "x,2\n", "1\n"
		}
		good.WriteString("1,2\n")
		bad.WriteString(row)
		ragged.WriteString(short)
	}
	for threads := 1; threads <= 4; threads++ {
		opts.Threads = threads
		for rep := 0; rep < 10; rep++ {
			_, err = ParseMatrixCSV([]byte(bad.String()), opts)
			check("matrix in chunks", err, "line 5:")
			_, err = ParseFrameCSV([]byte(bad.String()), fp, opts)
			check("frame in chunks", err, "line 5:")
			_, err = ParseFrameCSV([]byte(ragged.String()), nil, opts)
			check("ragged frame in chunks", err, "line 5 ")
		}
		if m, err := ParseMatrixCSV([]byte(good.String()), opts); err != nil || m.Rows() != 1999 || m.NNZ() != 2*1999 {
			t.Errorf("threads %d: clean input gave %v, %v", threads, m, err)
		}
	}
}

// A missing cell survives read, write and read again in every column type.
func TestFrameCSVMissingCellsRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opts := CSVOptions{Delimiter: ',', Header: true}
	f, err := ParseFrameCSV([]byte("n,b,x\n1,true,2.5\n,,\n"), nil, opts)
	if err != nil {
		t.Fatal(err)
	}
	schema := f.Schema()
	if schema.String() != (types.Schema{types.INT64, types.Boolean, types.FP64}).String() {
		t.Fatalf("inferred schema %v", schema)
	}
	path := filepath.Join(dir, "f.csv")
	if err := WriteFrameCSV(path, f, opts); err != nil {
		t.Fatal(err)
	}
	written, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "n,b,x\n1,true,2.5\n,,NaN\n"; string(written) != want {
		t.Errorf("written %q, want %q", written, want)
	}
	back, err := ReadFrameCSV(path, schema, opts)
	if err != nil {
		t.Fatal(err)
	}
	for c, want := range []float64{1, 1, 2.5} {
		col := back.NumericColumn(c)
		if col[0] != want || !math.IsNaN(col[1]) {
			t.Errorf("column %d after the round trip: %v", c, col)
		}
	}
}

func TestMatrixBinaryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "m.bin")
	m := matrix.RandUniform(200, 37, -10, 10, 1.0, 4)
	if err := WriteMatrixBinary(path, m, 64); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrixBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equals(m, 0) {
		t.Error("binary round trip changed values")
	}
}

func TestMatrixBinarySparseInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.bin")
	m := matrix.RandUniform(100, 50, 0, 1, 0.05, 5)
	if err := WriteMatrixBinary(path, m, 1024); err != nil {
		t.Fatal(err)
	}
	got, err := ReadMatrixBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equals(m, 0) {
		t.Error("sparse binary round trip changed values")
	}
	if !got.IsSparse() {
		t.Error("re-read sparse matrix should be sparse")
	}
}

func TestReadMatrixBinaryErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.bin")
	if err := os.WriteFile(path, []byte("not a binary matrix"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadMatrixBinary(path); err == nil {
		t.Error("expected corrupt header error")
	}
	if _, err := ReadMatrixBinary(filepath.Join(dir, "missing.bin")); err == nil {
		t.Error("expected missing file error")
	}
}

func TestLibSVMParse(t *testing.T) {
	data := []byte("1 1:0.5 3:2.0\n-1 2:1.5\n\n1 1:1 2:1 3:1\n")
	x, y, err := ParseLibSVM(data, 0)
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows() != 3 || x.Cols() != 3 {
		t.Fatalf("dims %dx%d", x.Rows(), x.Cols())
	}
	if x.Get(0, 0) != 0.5 || x.Get(0, 2) != 2.0 || x.Get(1, 1) != 1.5 {
		t.Error("libsvm values wrong")
	}
	if y.Get(0, 0) != 1 || y.Get(1, 0) != -1 {
		t.Error("libsvm labels wrong")
	}
	// explicit feature count
	x2, _, err := ParseLibSVM(data, 5)
	if err != nil {
		t.Fatal(err)
	}
	if x2.Cols() != 5 {
		t.Errorf("explicit cols = %d", x2.Cols())
	}
	if _, _, err := ParseLibSVM([]byte("1 0:5\n"), 0); err == nil {
		t.Error("expected error for 0-based index")
	}
	if _, _, err := ParseLibSVM([]byte("abc 1:5\n"), 0); err == nil {
		t.Error("expected error for bad label")
	}
	if _, _, err := ParseLibSVM([]byte("1 nonsense\n"), 0); err == nil {
		t.Error("expected error for bad entry")
	}
}

// --- SDSB codec: the implementation it replaced, kept as the test oracle ---

// oracleWriteMatrixBinaryTo is the previous encoder: one Slice copy and one
// byte slice per block. It densifies a sparse source in place, so callers
// pass it a copy.
func oracleWriteMatrixBinaryTo(dst io.Writer, m *matrix.MatrixBlock, blocksize int) error {
	if blocksize <= 0 {
		blocksize = 1024
	}
	w := bufio.NewWriterSize(dst, 1<<20)
	header := []uint64{0x53445342, 1, uint64(m.Rows()), uint64(m.Cols()), uint64(blocksize)}
	for _, h := range header {
		if err := binary.Write(w, binary.LittleEndian, h); err != nil {
			return err
		}
	}
	for r0 := 0; r0 < m.Rows() || r0 == 0; r0 += blocksize {
		if m.Rows() == 0 && r0 > 0 {
			break
		}
		r1 := min(r0+blocksize, m.Rows())
		for c0 := 0; c0 < m.Cols() || c0 == 0; c0 += blocksize {
			if m.Cols() == 0 && c0 > 0 {
				break
			}
			c1 := min(c0+blocksize, m.Cols())
			if r1 <= r0 || c1 <= c0 {
				continue
			}
			blk, err := matrix.Slice(m, r0, r1, c0, c1)
			if err != nil {
				return err
			}
			for _, v := range []uint64{uint64(blk.Rows()), uint64(blk.Cols()), uint64(blk.NNZ())} {
				if err := binary.Write(w, binary.LittleEndian, v); err != nil {
					return err
				}
			}
			vals := blk.DenseValues()
			buf := make([]byte, 8*len(vals))
			for i, v := range vals {
				binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
			}
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		if m.Rows() == 0 {
			break
		}
	}
	return w.Flush()
}

// oracleReadMatrixBinaryFrom is the previous decoder: one MatrixBlock and one
// LeftIndex (a full copy of the output) per block. It trusts the header.
func oracleReadMatrixBinaryFrom(src io.Reader) (*matrix.MatrixBlock, error) {
	r := bufio.NewReaderSize(src, 1<<20)
	header := make([]uint64, 5)
	for i := range header {
		if err := binary.Read(r, binary.LittleEndian, &header[i]); err != nil {
			return nil, err
		}
	}
	rows, cols, blocksize := int(header[2]), int(header[3]), int(header[4])
	out := matrix.NewDense(rows, cols)
	for r0 := 0; r0 < rows; r0 += blocksize {
		r1 := min(r0+blocksize, rows)
		for c0 := 0; c0 < cols; c0 += blocksize {
			c1 := min(c0+blocksize, cols)
			meta := make([]uint64, 3)
			for i := range meta {
				if err := binary.Read(r, binary.LittleEndian, &meta[i]); err != nil {
					return nil, err
				}
			}
			buf := make([]byte, 8*meta[0]*meta[1])
			if _, err := io.ReadFull(r, buf); err != nil {
				return nil, err
			}
			vals := make([]float64, meta[0]*meta[1])
			for i := range vals {
				vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
			}
			var err error
			out, err = matrix.LeftIndex(out, matrix.NewDenseFromSlice(int(meta[0]), int(meta[1]), vals), r0, r1, c0, c1)
			if err != nil {
				return nil, err
			}
		}
	}
	out.RecomputeNNZ()
	out.ExamineAndApplySparsity()
	return out, nil
}
