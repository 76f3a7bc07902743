package io

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"github.com/systemds/systemds-go/internal/frame"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/types"
)

// --- CSV readers: the line-splitting algorithm the scanner replaced, kept as
// the fuzz oracle ---

// naiveLines splits the file at "\n" and strips one trailing "\r" per line.
func naiveLines(data []byte) []string {
	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		lines[i] = strings.TrimSuffix(line, "\r")
	}
	return lines
}

// naiveDataLines drops the header line and trailing blank lines.
func naiveDataLines(data []byte, opts CSVOptions) (header string, lines []string) {
	lines = naiveLines(data)
	if opts.Header {
		header, lines = lines[0], lines[1:]
	}
	for len(lines) > 0 && strings.TrimSpace(lines[len(lines)-1]) == "" {
		lines = lines[:len(lines)-1]
	}
	return header, lines
}

func naiveParseMatrixCSV(data []byte, opts CSVOptions) (*matrix.MatrixBlock, error) {
	_, lines := naiveDataLines(data, opts)
	if len(lines) == 0 {
		return matrix.NewDense(0, 0), nil
	}
	cols := 1 + strings.Count(lines[0], string(opts.Delimiter))
	out := matrix.NewDense(len(lines), cols)
	for r, line := range lines {
		fields := strings.Split(line, string(opts.Delimiter))
		if len(fields) != cols {
			return nil, fmt.Errorf("line %d: expected %d columns, found %d", r+1, cols, len(fields))
		}
		for c, field := range fields {
			if field = strings.TrimSpace(field); field == "" {
				continue
			}
			v, err := strconv.ParseFloat(field, 64)
			if err != nil {
				return nil, fmt.Errorf("line %d: invalid number %q", r+1, field)
			}
			out.Set(r, c, v)
		}
	}
	out.RecomputeNNZ()
	out.ExamineAndApplySparsity()
	return out, nil
}

func naiveParseFrameCSV(data []byte, schema types.Schema, opts CSVOptions) (*frame.FrameBlock, error) {
	header, lines := naiveDataLines(data, opts)
	if len(lines) == 0 {
		return frame.NewFrame(types.Schema{}, 0), nil
	}
	cells := make([][]string, len(lines))
	for r, line := range lines {
		cells[r] = strings.Split(line, string(opts.Delimiter))
		for i := range cells[r] {
			cells[r][i] = strings.TrimSpace(cells[r][i])
		}
	}
	cols := len(cells[0])
	if schema == nil {
		schema = naiveInferSchema(cells, cols)
	}
	if len(schema) != cols {
		return nil, fmt.Errorf("schema has %d columns, data has %d", len(schema), cols)
	}
	f := frame.NewFrame(schema, len(lines))
	if opts.Header {
		fields := strings.Split(header, string(opts.Delimiter))
		names := make([]string, cols)
		for i := range names {
			names[i] = fmt.Sprintf("C%d", i+1)
			if i < len(fields) {
				names[i] = strings.TrimSpace(fields[i])
			}
		}
		if err := f.SetColumnNames(names); err != nil {
			return nil, err
		}
	}
	for r := range cells {
		if len(cells[r]) != cols {
			return nil, fmt.Errorf("line %d has %d columns, expected %d", r+1, len(cells[r]), cols)
		}
		for c := 0; c < cols; c++ {
			if err := f.SetString(r, c, cells[r][c]); err != nil {
				return nil, fmt.Errorf("line %d: %w", r+1, err)
			}
		}
	}
	return f, nil
}

// naiveInferSchema parses every cell of a column as an int, a float and a
// boolean word; "" and "NA" do not count.
func naiveInferSchema(cells [][]string, cols int) types.Schema {
	schema := make(types.Schema, cols)
	for c := 0; c < cols; c++ {
		isInt, isFloat, isBool := true, true, true
		for r := range cells {
			if c >= len(cells[r]) {
				continue
			}
			v := cells[r][c]
			if v == "" || v == "NA" {
				continue
			}
			if _, err := strconv.ParseInt(v, 10, 64); err != nil {
				isInt = false
			}
			if _, err := strconv.ParseFloat(v, 64); err != nil {
				isFloat = false
			}
			if v != "true" && v != "false" && v != "TRUE" && v != "FALSE" {
				isBool = false
			}
		}
		switch {
		case isBool:
			schema[c] = types.Boolean
		case isInt:
			schema[c] = types.INT64
		case isFloat:
			schema[c] = types.FP64
		default:
			schema[c] = types.String
		}
	}
	return schema
}

// sameFloat compares bits, every NaN equal to every NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

func sameFrame(got, want *frame.FrameBlock) error {
	if got.NumRows() != want.NumRows() || got.NumCols() != want.NumCols() {
		return fmt.Errorf("dims %dx%d, want %dx%d", got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	if g, w := got.Schema(), want.Schema(); g.String() != w.String() {
		return fmt.Errorf("schema %v, want %v", g, w)
	}
	if g, w := got.ColumnNames(), want.ColumnNames(); strings.Join(g, "\x00") != strings.Join(w, "\x00") {
		return fmt.Errorf("names %q, want %q", g, w)
	}
	for c := 0; c < got.NumCols(); c++ {
		for r := 0; r < got.NumRows(); r++ {
			if want.StringColumn(c) != nil {
				if g, w := got.StringColumn(c)[r], want.StringColumn(c)[r]; g != w {
					return fmt.Errorf("cell (%d,%d) %q, want %q", r, c, g, w)
				}
			} else if g, w := got.NumericColumn(c)[r], want.NumericColumn(c)[r]; !sameFloat(g, w) {
				return fmt.Errorf("cell (%d,%d) %v, want %v", r, c, g, w)
			}
		}
	}
	return nil
}

func sameMatrix(got, want *matrix.MatrixBlock) error {
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() || got.NNZ() != want.NNZ() {
		return fmt.Errorf("%dx%d nnz %d, want %dx%d nnz %d", got.Rows(), got.Cols(), got.NNZ(), want.Rows(), want.Cols(), want.NNZ())
	}
	for r := 0; r < got.Rows(); r++ {
		for c := 0; c < got.Cols(); c++ {
			if g, w := got.Get(r, c), want.Get(r, c); !sameFloat(g, w) {
				return fmt.Errorf("cell (%d,%d) %v, want %v", r, c, g, w)
			}
		}
	}
	return nil
}

// csvSeeds cover a header, CRLF, missing cells, NA, ragged rows, an
// all-missing column, trailing blank lines and the edges of type inference.
var csvSeeds = []string{
	"city,temp,count,flag\ngraz,12.5,3,true\nvienna,15.0,7,false\n",
	"a,b\r\n1,2\r\n3,4\r\n",
	"1,,3\n,5,\nNA,7,8\n",
	"x,y,z\n1,NA,\n2,,\n3,NA,\n",
	"1,2\n3\n",
	"1,2\n3,4,5\n",
	"1,2\n3,4\n\n \r\n\t\n",
	"\n1,2\n",
	" 1 , 2 \n\t3\t,\v4 \n",
	"9223372036854775807,9223372036854775808,-9223372036854775808\n+5,-0,007\n",
	"1e400,NaN,Inf\ntrue,nan,-inf\n",
	"true,True,1\nFALSE,false,0\n",
	"0x1p-2,1_000,.5\n5.,1e5,-.0\n",
	"h\n",
	"",
}

func FuzzParseFrameCSV(f *testing.F) {
	for _, s := range csvSeeds {
		f.Add([]byte(s), true, byte(','))
		f.Add([]byte(s), false, byte(','))
	}
	f.Add([]byte("a;b\n1;2\n"), true, byte(';'))
	f.Fuzz(func(t *testing.T, data []byte, header bool, delim byte) {
		if delim >= utf8.RuneSelf {
			t.Skip("the oracle splits at the UTF-8 encoding of a non-ASCII delimiter")
		}
		opts := CSVOptions{Delimiter: delim, Header: header}
		want, wantErr := naiveParseFrameCSV(data, nil, opts)
		for _, threads := range []int{1, 3} {
			opts.Threads = threads
			got, err := ParseFrameCSV(data, nil, opts)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("threads %d: error %v, want %v", threads, err, wantErr)
			}
			if err != nil {
				continue
			}
			if err := sameFrame(got, want); err != nil {
				t.Fatalf("threads %d: %v", threads, err)
			}
			// the same data under the inferred schema, given explicitly
			want2, wantErr2 := naiveParseFrameCSV(data, want.Schema(), opts)
			got2, err2 := ParseFrameCSV(data, want.Schema(), opts)
			if (err2 != nil) != (wantErr2 != nil) {
				t.Fatalf("threads %d, explicit schema: error %v, want %v", threads, err2, wantErr2)
			}
			if err2 == nil {
				if err := sameFrame(got2, want2); err != nil {
					t.Fatalf("threads %d, explicit schema: %v", threads, err)
				}
			}
		}
	})
}

func FuzzParseMatrixCSV(f *testing.F) {
	for _, s := range csvSeeds {
		f.Add([]byte(s), true, byte(','))
		f.Add([]byte(s), false, byte(','))
	}
	f.Add([]byte("0,0,0\n0,0,2\n0,0,0\n0,0,0\n"), false, byte(','))
	f.Fuzz(func(t *testing.T, data []byte, header bool, delim byte) {
		if delim >= utf8.RuneSelf {
			t.Skip("the oracle splits at the UTF-8 encoding of a non-ASCII delimiter")
		}
		opts := CSVOptions{Delimiter: delim, Header: header}
		want, wantErr := naiveParseMatrixCSV(data, opts)
		for _, threads := range []int{1, 3} {
			opts.Threads = threads
			got, err := ParseMatrixCSV(data, opts)
			if (err != nil) != (wantErr != nil) {
				t.Fatalf("threads %d: error %v, want %v", threads, err, wantErr)
			}
			if err != nil {
				continue
			}
			if err := sameMatrix(got, want); err != nil {
				t.Fatalf("threads %d: %v", threads, err)
			}
		}
	})
}

// parseFloat's fast path must give strconv's bits on every plain decimal:
// random digit strings of every length around the 2^53 and 10^22 limits,
// with and without a sign and a point anywhere.
func TestParseFloatMatchesStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var b []byte
	for i := 0; i < 300000; i++ {
		b = b[:0]
		switch rng.Intn(3) {
		case 0:
			b = append(b, '-')
		case 1:
			b = append(b, '+')
		}
		n := 1 + rng.Intn(24)
		dot := rng.Intn(n + 2)
		for j := 0; j < n; j++ {
			if j == dot {
				b = append(b, '.')
			}
			b = append(b, byte('0'+rng.Intn(10)))
		}
		got, err := parseFloat(b)
		want, wantErr := strconv.ParseFloat(string(b), 64)
		if (err != nil) != (wantErr != nil) || !sameFloat(got, want) {
			t.Fatalf("%q: %v (%v), want %v (%v)", b, got, err, want, wantErr)
		}
	}
	for _, s := range []string{"", "-", "+", ".", "-.", "1.2.3", "9007199254740993", "9007199254740992.5", "-0", "-0.0", "5.", ".5"} {
		got, err := parseFloat([]byte(s))
		want, wantErr := strconv.ParseFloat(s, 64)
		if (err != nil) != (wantErr != nil) || !sameFloat(got, want) {
			t.Errorf("%q: %v (%v), want %v (%v)", s, got, err, want, wantErr)
		}
	}
}
