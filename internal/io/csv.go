// Package io implements the data ingestion and persistence layer of
// SystemDS-Go: multi-threaded CSV readers and writers for matrices and
// frames, a binary blocked format and libsvm support.
package io

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"unicode/utf8"

	"github.com/systemds/systemds-go/internal/frame"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/types"
)

// CSVOptions configures CSV reading and writing.
type CSVOptions struct {
	Delimiter byte
	Header    bool
	Threads   int
}

// DefaultCSVOptions returns comma-delimited, headerless, multi-threaded
// options.
func DefaultCSVOptions() CSVOptions {
	return CSVOptions{Delimiter: ',', Header: false, Threads: 0}
}

// WriteMatrixCSV writes a matrix to a CSV file.
func WriteMatrixCSV(path string, m *matrix.MatrixBlock, opts CSVOptions) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("io: create %s: %w", path, err)
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	delim := string(opts.Delimiter)
	if opts.Header {
		cols := make([]string, m.Cols())
		for c := range cols {
			cols[c] = fmt.Sprintf("C%d", c+1)
		}
		if _, err := w.WriteString(strings.Join(cols, delim) + "\n"); err != nil {
			return err
		}
	}
	buf := make([]byte, 0, 32)
	for r := 0; r < m.Rows(); r++ {
		for c := 0; c < m.Cols(); c++ {
			if c > 0 {
				if err := w.WriteByte(opts.Delimiter); err != nil {
					return err
				}
			}
			buf = strconv.AppendFloat(buf[:0], m.Get(r, c), 'g', -1, 64)
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		if err := w.WriteByte('\n'); err != nil {
			return err
		}
	}
	return w.Flush()
}

// ReadMatrixCSV reads a numeric CSV file into a matrix; see ParseMatrixCSV.
func ReadMatrixCSV(path string, opts CSVOptions) (*matrix.MatrixBlock, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("io: read %s: %w", path, err)
	}
	return ParseMatrixCSV(data, opts)
}

// ParseMatrixCSV parses CSV bytes into a matrix. The data lines are cut into
// row chunks at newlines and each chunk is parsed on its own goroutine, up to
// opts.Threads of them: string-to-double parsing is the compute-intensive
// part noted in Section 4.2. An empty field is 0.
func ParseMatrixCSV(data []byte, opts CSVOptions) (*matrix.MatrixBlock, error) {
	sc := scanCSV(data, opts)
	if sc.rows == 0 {
		return matrix.NewDense(0, 0), nil
	}
	cols := sc.cols
	dense := make([]float64, sc.rows*cols)
	nnz := make([]int64, len(sc.chunks))
	err := parseChunks(sc.chunks, func(i int, ch csvChunk) error {
		var n int64
		rest := ch.data
		for r := 0; r < ch.rows; r++ {
			var line []byte
			line, rest = nextLine(rest)
			dst := dense[(ch.row0+r)*cols : (ch.row0+r+1)*cols]
			c := 0
			for j := 0; j <= len(line); c++ {
				var field []byte
				field, j = nextField(line, j, opts.Delimiter)
				if c >= cols {
					return fmt.Errorf("io: line %d: too many columns (expected %d)", ch.line0+r, cols)
				}
				if len(field) == 0 {
					continue
				}
				v, err := parseFloat(field)
				if err != nil {
					return fmt.Errorf("io: line %d: invalid number %q", ch.line0+r, field)
				}
				dst[c] = v
				if v != 0 {
					n++
				}
			}
			if c != cols {
				return fmt.Errorf("io: line %d: expected %d columns, found %d", ch.line0+r, cols, c)
			}
		}
		nnz[i] = n
		return nil
	})
	if err != nil {
		return nil, err
	}
	var total int64
	for _, n := range nnz {
		total += n
	}
	out := matrix.NewDenseCounted(sc.rows, cols, dense, total)
	out.ExamineAndApplySparsity()
	return out, nil
}

// csvScan is a CSV buffer cut for parsing: the header line and the data lines
// in chunks of whole lines.
type csvScan struct {
	delim  byte
	header []byte // the first line when opts.Header is set
	chunks []csvChunk
	rows   int
	cols   int // the number of fields of the first data line
}

// csvChunk is a run of whole data lines that one goroutine parses.
type csvChunk struct {
	data  []byte // the lines, without the newline after the last one
	row0  int    // index of the chunk's first row
	rows  int
	line0 int // 1-based line number in the file of the chunk's first row
}

// scanCSV takes off the header line, drops trailing blank lines and cuts the
// remaining lines at newlines into chunks of about equal size, at most
// opts.Threads of them. A line ends at "\n" and loses one trailing "\r".
func scanCSV(data []byte, opts CSVOptions) csvScan {
	sc := csvScan{delim: opts.Delimiter}
	line0 := 1
	if opts.Header {
		sc.header, data = nextLine(data)
		if data == nil {
			return sc
		}
		line0 = 2
	}
	for {
		k := bytes.LastIndexByte(data, '\n')
		if len(bytes.TrimSpace(data[k+1:])) > 0 {
			break
		}
		if k < 0 {
			return sc
		}
		data = data[:k]
	}
	first, _ := nextLine(data)
	sc.cols = bytes.Count(first, []byte{opts.Delimiter}) + 1
	threads := opts.Threads
	if threads <= 0 {
		threads = matrix.DefaultParallelism()
	}
	size := (len(data) + threads - 1) / threads
	for start := 0; ; {
		end := len(data)
		if cut := start + size; cut < len(data) {
			if k := bytes.IndexByte(data[cut:], '\n'); k >= 0 {
				end = cut + k
			}
		}
		ch := csvChunk{data: data[start:end], row0: sc.rows, line0: line0 + sc.rows}
		ch.rows = bytes.Count(ch.data, []byte{'\n'}) + 1
		sc.chunks = append(sc.chunks, ch)
		sc.rows += ch.rows
		if end == len(data) {
			return sc
		}
		start = end + 1
	}
}

// parseChunks runs parse on every chunk through matrix.ParallelFor, one
// worker per chunk, and returns the error of the first chunk that failed: the
// one with the lowest line number, whichever worker failed first.
func parseChunks(chunks []csvChunk, parse func(i int, ch csvChunk) error) error {
	return matrix.ParallelFor(len(chunks), len(chunks), func(_, i int) error {
		return parse(i, chunks[i])
	})
}

// nextLine splits the first line off rest, without its newline and one
// trailing carriage return. tail is nil after the last line.
func nextLine(rest []byte) (line, tail []byte) {
	k := bytes.IndexByte(rest, '\n')
	if k < 0 {
		line, rest = rest, nil
	} else {
		line, rest = rest[:k], rest[k+1:]
	}
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, rest
}

// nextField returns the field of line that starts at index i, without
// surrounding white space, and the start of the next field: len(line)+1 after
// the last one.
func nextField(line []byte, i int, delim byte) ([]byte, int) {
	end := len(line)
	if k := bytes.IndexByte(line[i:], delim); k >= 0 {
		end = i + k
	}
	field := line[i:end]
	if n := len(field); n == 0 || field[0] <= ' ' || field[0] >= utf8.RuneSelf ||
		field[n-1] <= ' ' || field[n-1] >= utf8.RuneSelf {
		field = bytes.TrimSpace(field)
	}
	return field, end + 1
}

// pow10 holds the powers of ten that are exact float64 values.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// parseFloat is strconv.ParseFloat(string(b), 64). A plain decimal — an
// optional sign, then at most 19 digits with at most one point among them,
// whose digits read as an integer m <= 2^53, with k <= 22 of them after the
// point — is m / 10^k with both operands exact, so one correctly rounded
// division gives ParseFloat's correctly rounded result (Clinger's fast path).
// Anything else goes to strconv.
func parseFloat(b []byte) (float64, error) {
	i, neg := 0, false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		i, neg = 1, b[0] == '-'
	}
	var m uint64
	start := i
	for ; i < len(b) && b[i]-'0' < 10; i++ {
		m = m*10 + uint64(b[i]-'0')
	}
	digits, frac := i-start, 0
	if i < len(b) && b[i] == '.' {
		i++
		for start = i; i < len(b) && b[i]-'0' < 10; i++ {
			m = m*10 + uint64(b[i]-'0')
		}
		frac = i - start
	}
	if digits += frac; i != len(b) || digits == 0 || digits > 19 || m > 1<<53 || frac >= len(pow10) {
		return strconv.ParseFloat(string(b), 64)
	}
	v := float64(m) / pow10[frac]
	if neg {
		v = -v
	}
	return v, nil
}

// ReadFrameCSV reads a CSV file into a frame; see ParseFrameCSV.
func ReadFrameCSV(path string, schema types.Schema, opts CSVOptions) (*frame.FrameBlock, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("io: read %s: %w", path, err)
	}
	return ParseFrameCSV(data, schema, opts)
}

// ParseFrameCSV parses CSV bytes into a frame, chunk-parallel like
// ParseMatrixCSV, building its typed columns directly. When schema is nil the
// column types are inferred in the same pass: BOOLEAN when every cell is
// true/false/TRUE/FALSE, else INT64 when every cell is an int64, else FP64
// when every cell is a float, else STRING. Missing cells ("" and "NA") do not
// count, so a column without a value is BOOLEAN; in a non-String column they
// are NaN.
func ParseFrameCSV(data []byte, schema types.Schema, opts CSVOptions) (*frame.FrameBlock, error) {
	sc := scanCSV(data, opts)
	if sc.rows == 0 {
		return frame.NewFrame(types.Schema{}, 0), nil
	}
	if schema != nil && len(schema) != sc.cols {
		return nil, fmt.Errorf("io: schema has %d columns, data has %d", len(schema), sc.cols)
	}
	fc := frameColumns{scan: &sc, schema: schema, num: make([][]float64, sc.cols), str: make([][]string, sc.cols)}
	for c := range fc.num {
		if schema == nil || schema[c] != types.String {
			fc.num[c] = make([]float64, sc.rows)
		}
	}
	flags := make([][]uint8, len(sc.chunks))
	if err := parseChunks(sc.chunks, func(i int, ch csvChunk) error {
		if schema == nil {
			flags[i] = bytes.Repeat([]byte{maybeAll}, sc.cols)
		}
		return fc.parseNumbers(ch, flags[i])
	}); err != nil {
		return nil, err
	}
	if schema == nil {
		schema = fc.inferSchema(flags)
	}
	hasStrings := false
	for c, vt := range schema {
		if vt == types.String {
			fc.num[c], fc.str[c] = nil, make([]string, sc.rows)
			hasStrings = true
		}
	}
	if hasStrings {
		_ = parseChunks(sc.chunks, func(_ int, ch csvChunk) error { // the first pass checked every row
			fc.parseStrings(ch)
			return nil
		})
	}
	f, err := frame.FromColumns(schema, sc.rows, fc.num, fc.str)
	if err != nil {
		return nil, err
	}
	if opts.Header {
		if err := f.SetColumnNames(sc.headerNames()); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// headerNames returns one name per column: the header's fields without
// surrounding white space, and C<i> for a column the header does not name.
func (sc *csvScan) headerNames() []string {
	names := make([]string, sc.cols)
	c := 0
	for j := 0; j <= len(sc.header) && c < sc.cols; c++ {
		var field []byte
		field, j = nextField(sc.header, j, sc.delim)
		names[c] = string(field)
	}
	for ; c < sc.cols; c++ {
		names[c] = fmt.Sprintf("C%d", c+1)
	}
	return names
}

// Per-column inference flags: the types a column can still have. Each chunk
// clears them cell by cell; the chunks' flags are ANDed.
const (
	maybeBool uint8 = 1 << iota
	maybeInt
	maybeFloat
	maybeAll = maybeBool | maybeInt | maybeFloat
)

// frameColumns holds the typed columns of a frame while its chunks are
// parsed: num[c] for a column that is or may be numeric, str[c] for a String
// one. schema is nil while it is inferred.
type frameColumns struct {
	scan   *csvScan
	schema types.Schema
	num    [][]float64
	str    [][]string
}

// parseNumbers is the first pass over a chunk: it checks every row's field
// count and stores the value of every cell of a non-String column. With an
// inferred schema it narrows flags cell by cell and stores each cell's value
// under the types still possible.
func (fc *frameColumns) parseNumbers(ch csvChunk, flags []uint8) error {
	cols, delim := fc.scan.cols, fc.scan.delim
	rest := ch.data
	for r := 0; r < ch.rows; r++ {
		var line []byte
		line, rest = nextLine(rest)
		row := ch.row0 + r
		var cellErr error
		c := 0
		for j := 0; j <= len(line); c++ {
			var field []byte
			field, j = nextField(line, j, delim)
			if c >= cols || fc.num[c] == nil {
				continue
			}
			switch {
			case fc.schema == nil:
				fc.num[c][row] = inferCell(field, &flags[c])
			case cellErr == nil:
				fc.num[c][row], cellErr = frame.ParseCell(string(field), fc.schema[c])
			}
		}
		if c != cols {
			return fmt.Errorf("io: line %d has %d columns, expected %d", ch.line0+r, c, cols)
		}
		if cellErr != nil {
			return fmt.Errorf("io: line %d: %w", ch.line0+r, cellErr)
		}
	}
	return nil
}

// inferCell narrows a column's flags by one cell and returns the value the
// cell has under the types still possible: 1 or 0 for a boolean word, the
// number otherwise, NaN for a missing cell. A cell that is not an int64 by
// its bytes (an optional sign, then digits) or by its range clears maybeInt;
// each cell is parsed as a float at most once.
func inferCell(b []byte, flags *uint8) float64 {
	if *flags == 0 {
		return 0 // a String column: the second pass reads its cells
	}
	if len(b) == 0 || string(b) == "NA" {
		return math.NaN()
	}
	switch string(b) {
	case "true", "TRUE":
		*flags &^= maybeInt | maybeFloat
		return 1
	case "false", "FALSE":
		*flags &^= maybeInt | maybeFloat
		return 0
	}
	*flags &^= maybeBool
	if *flags&maybeFloat == 0 {
		return 0 // an int64 is a float, so maybeInt is clear as well
	}
	v, err := parseFloat(b)
	if err != nil {
		*flags = 0
		return 0
	}
	if *flags&maybeInt != 0 && !isInt64(b) {
		*flags &^= maybeInt
	}
	return v
}

// isInt64 reports whether b is what strconv.ParseInt(b, 10, 64) accepts.
func isInt64(b []byte) bool {
	digits := b
	if len(digits) > 0 && (digits[0] == '+' || digits[0] == '-') {
		digits = digits[1:]
	}
	if len(digits) == 0 {
		return false
	}
	for _, d := range digits {
		if d < '0' || d > '9' {
			return false
		}
	}
	if len(digits) < 19 {
		return true // below 10^18: always in range
	}
	_, err := strconv.ParseInt(string(b), 10, 64)
	return err == nil
}

// inferSchema ANDs the chunks' flags in chunk order and picks each column's
// type: BOOLEAN, then INT64, then FP64, then STRING. Integer values parsed as
// floats are truncated as frame.ParseCell does.
func (fc *frameColumns) inferSchema(flags [][]uint8) types.Schema {
	schema := make(types.Schema, fc.scan.cols)
	for c := range schema {
		f := maybeAll
		for _, chunk := range flags {
			f &= chunk[c]
		}
		switch {
		case f&maybeBool != 0:
			schema[c] = types.Boolean
		case f&maybeInt != 0:
			schema[c] = types.INT64
			for r, v := range fc.num[c] {
				if !math.IsNaN(v) {
					fc.num[c][r] = float64(int64(v))
				}
			}
		case f&maybeFloat != 0:
			schema[c] = types.FP64
		default:
			schema[c] = types.String
		}
	}
	return schema
}

// parseStrings is the second pass over a chunk: it reads the String columns'
// cells, copying each column's bytes of the chunk into one string that its
// cells share.
func (fc *frameColumns) parseStrings(ch csvChunk) {
	last := 0
	for c, col := range fc.str {
		if col != nil {
			last = c
		}
	}
	buf := make([][]byte, last+1)
	ends := make([][]int, last+1)
	rest := ch.data
	for r := 0; r < ch.rows; r++ {
		var line []byte
		line, rest = nextLine(rest)
		for c, j := 0, 0; c <= last; c++ {
			var field []byte
			field, j = nextField(line, j, fc.scan.delim)
			if fc.str[c] != nil {
				buf[c] = append(buf[c], field...)
				ends[c] = append(ends[c], len(buf[c]))
			}
		}
	}
	for c := range buf {
		if fc.str[c] == nil {
			continue
		}
		s, start := string(buf[c]), 0
		col := fc.str[c][ch.row0 : ch.row0+ch.rows]
		for r, end := range ends[c] {
			col[r], start = s[start:end], end
		}
	}
}

// WriteFrameCSV writes a frame to a CSV file, including a header row with the
// column names when opts.Header is set.
func WriteFrameCSV(path string, f *frame.FrameBlock, opts CSVOptions) error {
	file, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("io: create %s: %w", path, err)
	}
	defer file.Close()
	w := bufio.NewWriterSize(file, 1<<20)
	delim := string(opts.Delimiter)
	if opts.Header {
		if _, err := w.WriteString(strings.Join(f.ColumnNames(), delim) + "\n"); err != nil {
			return err
		}
	}
	for r := 0; r < f.NumRows(); r++ {
		for c := 0; c < f.NumCols(); c++ {
			if c > 0 {
				if err := w.WriteByte(opts.Delimiter); err != nil {
					return err
				}
			}
			s, err := f.GetString(r, c)
			if err != nil {
				return err
			}
			if _, err := w.WriteString(s); err != nil {
				return err
			}
		}
		if err := w.WriteByte('\n'); err != nil {
			return err
		}
	}
	return w.Flush()
}
