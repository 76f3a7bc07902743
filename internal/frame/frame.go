// Package frame implements FrameBlock, a two-dimensional table with a
// per-column schema (lesson L4 of the SystemDS paper), and the feature
// transformation encoders (recode, dummy-coding, binning, imputation,
// scaling) used to turn heterogeneous raw data into numeric matrices for ML
// training. It corresponds to SystemDS' frame support and the
// transformencode / transformapply builtins.
package frame

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/types"
)

// FrameBlock is a column-oriented 2D table with a schema: each column has a
// value type and an optional name. Every column is one typed slice: a String
// column holds its raw strings, any other column its float64 values, with NaN
// marking a missing cell.
type FrameBlock struct {
	schema   types.Schema
	colNames []string
	numRows  int
	num      [][]float64 // per column: the values of a non-String column, nil for a String one
	str      [][]string  // per column: the cells of a String column, nil otherwise
}

// NewFrame creates an empty frame with the given schema and number of rows.
func NewFrame(schema types.Schema, rows int) *FrameBlock {
	num := make([][]float64, len(schema))
	str := make([][]string, len(schema))
	for i, vt := range schema {
		if vt == types.String {
			str[i] = make([]string, rows)
		} else {
			num[i] = make([]float64, rows)
		}
	}
	f, _ := FromColumns(schema, rows, num, str) // cannot fail: the columns follow the schema
	return f
}

// FromColumns builds a frame over typed columns without copying them: for
// column c, str[c] holds the cells of a String column and num[c] the values of
// any other (NaN marks a missing cell); the other slice is nil. Every column
// has rows entries. The frame owns the slices afterwards.
func FromColumns(schema types.Schema, rows int, num [][]float64, str [][]string) (*FrameBlock, error) {
	if len(num) != len(schema) || len(str) != len(schema) {
		return nil, fmt.Errorf("frame: %d/%d columns for a schema of %d", len(num), len(str), len(schema))
	}
	f := &FrameBlock{
		schema:   append(types.Schema(nil), schema...),
		colNames: make([]string, len(schema)),
		numRows:  rows,
		num:      num,
		str:      str,
	}
	for i, vt := range schema {
		f.colNames[i] = fmt.Sprintf("C%d", i+1)
		n, other := len(num[i]), str[i] != nil
		if vt == types.String {
			n, other = len(str[i]), num[i] != nil
		}
		if n != rows || other {
			return nil, fmt.Errorf("frame: %s column %d needs %d values of its type only", vt, i+1, rows)
		}
	}
	return f, nil
}

// NumRows returns the number of rows.
func (f *FrameBlock) NumRows() int { return f.numRows }

// NumCols returns the number of columns.
func (f *FrameBlock) NumCols() int { return len(f.schema) }

// Schema returns a copy of the frame's schema.
func (f *FrameBlock) Schema() types.Schema { return append(types.Schema(nil), f.schema...) }

// ColumnNames returns a copy of the column names.
func (f *FrameBlock) ColumnNames() []string { return append([]string(nil), f.colNames...) }

// SetColumnNames assigns column names; the length must match the schema.
func (f *FrameBlock) SetColumnNames(names []string) error {
	if len(names) != len(f.schema) {
		return fmt.Errorf("frame: %d names for %d columns", len(names), len(f.schema))
	}
	f.colNames = append([]string(nil), names...)
	return nil
}

// ColumnIndex returns the index of the named column, or -1.
func (f *FrameBlock) ColumnIndex(name string) int {
	for i, n := range f.colNames {
		if n == name {
			return i
		}
	}
	return -1
}

func (f *FrameBlock) check(r, c int) error {
	if r < 0 || r >= f.numRows || c < 0 || c >= len(f.schema) {
		return fmt.Errorf("frame: index (%d,%d) out of bounds %dx%d", r, c, f.numRows, len(f.schema))
	}
	return nil
}

// NumericColumn returns the values of non-String column c, NaN marking a
// missing cell, or nil for a String column. The slice is the frame's storage.
func (f *FrameBlock) NumericColumn(c int) []float64 { return f.num[c] }

// StringColumn returns the cells of String column c, or nil for any other
// column. The slice is the frame's storage.
func (f *FrameBlock) StringColumn(c int) []string { return f.str[c] }

// GetString returns the cell at (r, c) rendered as a string. A missing cell of
// an integer or boolean column renders as "" (only the FP types have a NaN
// literal), so that writing and recoding a frame never invent a value.
func (f *FrameBlock) GetString(r, c int) (string, error) {
	if err := f.check(r, c); err != nil {
		return "", err
	}
	if f.schema[c] == types.String {
		return f.str[c][r], nil
	}
	v := f.num[c][r]
	switch f.schema[c] {
	case types.INT64, types.INT32:
		if math.IsNaN(v) {
			return "", nil
		}
		return strconv.FormatInt(int64(v), 10), nil
	case types.Boolean:
		if math.IsNaN(v) {
			return "", nil
		}
		if v != 0 {
			return "true", nil
		}
		return "false", nil
	default:
		return strconv.FormatFloat(v, 'g', -1, 64), nil
	}
}

// GetNumeric returns the numeric value of the cell at (r, c). String cells
// are parsed; unparseable strings yield an error.
func (f *FrameBlock) GetNumeric(r, c int) (float64, error) {
	if err := f.check(r, c); err != nil {
		return 0, err
	}
	if f.schema[c] == types.String {
		return parseNumeric(f.str[c][r], r, c)
	}
	return f.num[c][r], nil
}

// parseNumeric reads String cell (r, c) as a number; "" is 0.
func parseNumeric(s string, r, c int) (float64, error) {
	if s == "" {
		return 0, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("frame: cell (%d,%d) %q is not numeric", r, c, s)
	}
	return v, nil
}

// SetString assigns a string to the cell at (r, c); numeric columns parse it.
func (f *FrameBlock) SetString(r, c int, s string) error {
	if err := f.check(r, c); err != nil {
		return err
	}
	if f.schema[c] == types.String {
		f.str[c][r] = s
		return nil
	}
	v, err := ParseCell(s, f.schema[c])
	if err != nil {
		return err
	}
	f.num[c][r] = v
	return nil
}

// ParseCell converts the text of a cell to the value a non-String column of
// type vt stores. "", "NA" and "NaN" are a missing value, NaN, so that
// downstream imputation (imputeByMean, transformencode impute) can recognize
// and repair it; integer types truncate toward zero.
func ParseCell(s string, vt types.ValueType) (float64, error) {
	if s == "" || s == "NA" || s == "NaN" {
		return math.NaN(), nil
	}
	if vt == types.Boolean {
		switch s {
		case "true", "TRUE", "True", "1":
			return 1, nil
		case "false", "FALSE", "False", "0":
			return 0, nil
		}
		// the errors quote a clone so that s does not escape: a caller can
		// pass string(b) of a byte slice without a heap copy per cell
		return 0, fmt.Errorf("frame: cannot parse %q as boolean", strings.Clone(s))
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("frame: cannot parse %q as %s: %w", strings.Clone(s), vt, err)
	}
	if vt == types.INT64 || vt == types.INT32 {
		v = float64(int64(v))
	}
	return v, nil
}

// SetNumeric assigns a numeric value to the cell at (r, c).
func (f *FrameBlock) SetNumeric(r, c int, v float64) error {
	if err := f.check(r, c); err != nil {
		return err
	}
	if f.schema[c] == types.String {
		f.str[c][r] = strconv.FormatFloat(v, 'g', -1, 64)
		return nil
	}
	if f.schema[c] == types.INT64 || f.schema[c] == types.INT32 {
		v = float64(int64(v))
	}
	if f.schema[c] == types.Boolean && v != 0 {
		v = 1
	}
	f.num[c][r] = v
	return nil
}

// Copy returns a deep copy of the frame.
func (f *FrameBlock) Copy() *FrameBlock {
	cp := NewFrame(f.schema, f.numRows)
	copy(cp.colNames, f.colNames)
	for c := range f.schema {
		copy(cp.num[c], f.num[c])
		copy(cp.str[c], f.str[c])
	}
	return cp
}

// ToMatrix converts the frame to a numeric matrix. All columns must be
// numeric or hold parseable numeric strings.
func (f *FrameBlock) ToMatrix() (*matrix.MatrixBlock, error) {
	cols := len(f.schema)
	out := make([]float64, f.numRows*cols)
	var nnz int64
	for c := range f.schema {
		for r := 0; r < f.numRows; r++ {
			var v float64
			if f.schema[c] == types.String {
				var err error
				if v, err = parseNumeric(f.str[c][r], r, c); err != nil {
					return nil, err
				}
			} else {
				v = f.num[c][r]
			}
			out[r*cols+c] = v
			if v != 0 {
				nnz++
			}
		}
	}
	return matrix.NewDenseCounted(f.numRows, cols, out, nnz), nil
}

// FromMatrix builds an all-FP64 frame from a matrix.
func FromMatrix(m *matrix.MatrixBlock) *FrameBlock {
	f := NewFrame(types.UniformSchema(types.FP64, m.Cols()), m.Rows())
	for c, col := range f.num {
		for r := range col {
			col[r] = m.Get(r, c)
		}
	}
	return f
}

// String renders frame metadata.
func (f *FrameBlock) String() string {
	return fmt.Sprintf("FrameBlock[%dx%d, schema=%s]", f.numRows, len(f.schema), f.schema)
}
