package frame

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/types"
)

// TransformSpec describes a feature transformation pipeline over frame
// columns, mirroring the JSON spec accepted by SystemDS' transformencode.
// Columns are addressed by name; columns not mentioned are passed through
// as-is (and must be numeric).
type TransformSpec struct {
	Recode    []string          // categorical -> integer codes
	DummyCode []string          // categorical -> one-hot columns (implies recode)
	Bin       map[string]int    // numeric -> equi-width bin ids with the given number of bins
	Impute    map[string]string // column -> "mean", "median" or "mode"
	Scale     []string          // numeric -> z-score standardization
}

// Encoder is the trained state of a transformation pipeline: it can be
// applied to new frames with the same schema (transformapply) and is itself
// representable as metadata, keeping the system stateless (Section 3.2).
type Encoder struct {
	spec        TransformSpec
	colNames    []string
	recodeMap   map[string]map[string]int // column -> value -> 1-based code
	binMins     map[string]float64
	binWidths   map[string]float64
	binCount    map[string]int
	imputeVal   map[string]float64
	scaleMu     map[string]float64
	scaleSd     map[string]float64
	numDistinct map[string]int
}

// Encode fits the transformation spec on the given frame and returns the
// encoded matrix together with the trained encoder (DML:
// [X, M] = transformencode(target=F, spec=S)).
func Encode(f *FrameBlock, spec TransformSpec) (*matrix.MatrixBlock, *Encoder, error) {
	enc := &Encoder{
		spec:        spec,
		colNames:    f.ColumnNames(),
		recodeMap:   map[string]map[string]int{},
		binMins:     map[string]float64{},
		binWidths:   map[string]float64{},
		binCount:    map[string]int{},
		imputeVal:   map[string]float64{},
		scaleMu:     map[string]float64{},
		scaleSd:     map[string]float64{},
		numDistinct: map[string]int{},
	}
	if err := enc.fit(f); err != nil {
		return nil, nil, err
	}
	m, err := enc.Apply(f)
	if err != nil {
		return nil, nil, err
	}
	return m, enc, nil
}

func (e *Encoder) fit(f *FrameBlock) error {
	// recode maps (dummycode implies recode)
	recodeCols := map[string]bool{}
	for _, c := range e.spec.Recode {
		recodeCols[c] = true
	}
	for _, c := range e.spec.DummyCode {
		recodeCols[c] = true
	}
	for name := range recodeCols {
		ci := f.ColumnIndex(name)
		if ci < 0 {
			return fmt.Errorf("frame: recode column %q not found", name)
		}
		distinct := map[string]bool{}
		for r := 0; r < f.NumRows(); r++ {
			if s := recodeKey(f, r, ci); s != "" {
				distinct[s] = true
			}
		}
		values := make([]string, 0, len(distinct))
		for v := range distinct {
			values = append(values, v)
		}
		sort.Strings(values)
		codes := map[string]int{}
		for i, v := range values {
			codes[v] = i + 1
		}
		e.recodeMap[name] = codes
		e.numDistinct[name] = len(values)
	}
	// imputation values
	for name, method := range e.spec.Impute {
		ci := f.ColumnIndex(name)
		if ci < 0 {
			return fmt.Errorf("frame: impute column %q not found", name)
		}
		// a String cell that is not a number is skipped like a missing one
		col, _ := numbers(f, ci)
		vals := make([]float64, 0, len(col))
		for _, v := range col {
			if !math.IsNaN(v) {
				vals = append(vals, v)
			}
		}
		if len(vals) == 0 {
			e.imputeVal[name] = 0
			continue
		}
		switch method {
		case "mean":
			var s float64
			for _, v := range vals {
				s += v
			}
			e.imputeVal[name] = s / float64(len(vals))
		case "median":
			sort.Float64s(vals)
			e.imputeVal[name] = vals[len(vals)/2]
		case "mode":
			counts := map[float64]int{}
			best, bestN := vals[0], 0
			for _, v := range vals {
				counts[v]++
				if counts[v] > bestN {
					best, bestN = v, counts[v]
				}
			}
			e.imputeVal[name] = best
		default:
			return fmt.Errorf("frame: unknown impute method %q", method)
		}
	}
	// binning parameters (equi-width)
	for name, nbins := range e.spec.Bin {
		ci := f.ColumnIndex(name)
		if ci < 0 {
			return fmt.Errorf("frame: bin column %q not found", name)
		}
		if nbins < 1 {
			return fmt.Errorf("frame: bin column %q needs at least 1 bin", name)
		}
		col, err := numericColumn(f, ci, name)
		if err != nil {
			return err
		}
		missing := e.imputeVal[name]
		minV, maxV := math.Inf(1), math.Inf(-1)
		for _, v := range col {
			if math.IsNaN(v) {
				v = missing
			}
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
		e.binMins[name] = minV
		e.binCount[name] = nbins
		width := (maxV - minV) / float64(nbins)
		if width == 0 {
			width = 1
		}
		e.binWidths[name] = width
	}
	// scaling parameters
	for _, name := range e.spec.Scale {
		ci := f.ColumnIndex(name)
		if ci < 0 {
			return fmt.Errorf("frame: scale column %q not found", name)
		}
		col, err := numericColumn(f, ci, name)
		if err != nil {
			return err
		}
		missing := e.imputeVal[name]
		var sum, sumsq float64
		n := float64(f.NumRows())
		for _, v := range col {
			if math.IsNaN(v) {
				v = missing
			}
			sum += v
			sumsq += v * v
		}
		mu := sum / n
		va := sumsq/n - mu*mu
		if va < 0 {
			va = 0
		}
		sd := math.Sqrt(va)
		if sd == 0 {
			sd = 1
		}
		e.scaleMu[name] = mu
		e.scaleSd[name] = sd
	}
	return nil
}

// numbers returns column ci as float64 values with NaN marking a missing
// cell: a numeric column's own storage, or a String column parsed cell by cell
// as an FP64 column would store it. bad is the first String cell that is not
// a number, -1 if there is none; its value is NaN.
func numbers(f *FrameBlock, ci int) (vals []float64, bad int) {
	if f.schema[ci] != types.String {
		return f.num[ci], -1
	}
	vals, bad = make([]float64, f.numRows), -1
	for r, s := range f.str[ci] {
		v, err := ParseCell(s, types.FP64)
		if err != nil {
			v = math.NaN()
			if bad < 0 {
				bad = r
			}
		}
		vals[r] = v
	}
	return vals, bad
}

// numericColumn is numbers for a column the encoder reads as numbers: a String
// cell that is not a number is an error.
func numericColumn(f *FrameBlock, ci int, name string) ([]float64, error) {
	vals, bad := numbers(f, ci)
	if bad >= 0 {
		return nil, fmt.Errorf("frame: column %q: cell (%d,%d) %q is not numeric", name, bad, ci, f.str[ci][bad])
	}
	return vals, nil
}

// recodeKey is the recode key of cell (r, ci): a String cell as is, any other
// cell rendered by GetString (recode keys are strings under the meta-frame
// contract), "" for a missing one.
func recodeKey(f *FrameBlock, r, ci int) string {
	if f.schema[ci] == types.String {
		return f.str[ci][r]
	}
	s, _ := f.GetString(r, ci)
	return s
}

// OutputColumns returns the number of matrix columns the encoder produces.
func (e *Encoder) OutputColumns() int {
	total := 0
	dummy := map[string]bool{}
	for _, c := range e.spec.DummyCode {
		dummy[c] = true
	}
	for _, name := range e.colNames {
		if dummy[name] {
			total += e.numDistinct[name]
		} else {
			total++
		}
	}
	return total
}

// Apply encodes a frame with the trained encoder (DML transformapply). It
// plans every output column once and writes the dense row-major result
// column by column, counting non-zeros on the way.
func (e *Encoder) Apply(f *FrameBlock) (*matrix.MatrixBlock, error) {
	if f.NumCols() != len(e.colNames) {
		return nil, fmt.Errorf("frame: encoder trained on %d columns, frame has %d", len(e.colNames), f.NumCols())
	}
	dummy := map[string]bool{}
	for _, c := range e.spec.DummyCode {
		dummy[c] = true
	}
	recode := map[string]bool{}
	for _, c := range e.spec.Recode {
		recode[c] = true
	}
	scale := map[string]bool{}
	for _, c := range e.spec.Scale {
		scale[c] = true
	}
	rows, width := f.NumRows(), e.OutputColumns()
	out := make([]float64, rows*width)
	var nnz int64
	colOut := 0
	for ci, name := range e.colNames {
		switch {
		case dummy[name] || recode[name]:
			codes, nd, isDummy := e.recodeMap[name], e.numDistinct[name], dummy[name]
			for r := 0; r < rows; r++ {
				code := codes[recodeKey(f, r, ci)] // unseen or missing: 0
				switch {
				case !isDummy:
					out[r*width+colOut] = float64(code)
				case code >= 1 && code <= nd:
					out[r*width+colOut+code-1] = 1 // unseen: an all-zero one-hot row
				default:
					continue
				}
				if code != 0 {
					nnz++
				}
			}
			if isDummy {
				colOut += nd
			} else {
				colOut++
			}
		default:
			col, err := numericColumn(f, ci, name)
			if err != nil {
				return nil, err
			}
			missing := e.imputeVal[name]
			nb, bin := e.binCount[name]
			binMin, binWidth := e.binMins[name], e.binWidths[name]
			scaled := scale[name]
			mu, sd := e.scaleMu[name], e.scaleSd[name]
			for r, v := range col {
				if math.IsNaN(v) {
					v = missing
				}
				if bin {
					b := int((v-binMin)/binWidth) + 1
					if b < 1 {
						b = 1
					}
					if b > nb {
						b = nb
					}
					v = float64(b)
				}
				if scaled {
					v = (v - mu) / sd
				}
				out[r*width+colOut] = v
				if v != 0 {
					nnz++
				}
			}
			colOut++
		}
	}
	return matrix.NewDenseCounted(rows, width, out, nnz), nil
}

// MetaFrame renders the encoder's recode maps as a frame of
// "value·code" strings per column, mirroring SystemDS' transform
// metadata frame so pre-trained transformations can be shipped as data
// (Section 3.2: "consuming pre-trained models and rules as tensors").
func (e *Encoder) MetaFrame() *FrameBlock {
	maxRows := 0
	for _, m := range e.recodeMap {
		if len(m) > maxRows {
			maxRows = len(m)
		}
	}
	schema := types.UniformSchema(types.String, len(e.colNames))
	meta := NewFrame(schema, maxRows)
	_ = meta.SetColumnNames(e.colNames)
	for ci, name := range e.colNames {
		codes, ok := e.recodeMap[name]
		if !ok {
			continue
		}
		values := make([]string, 0, len(codes))
		for v := range codes {
			values = append(values, v)
		}
		sort.Strings(values)
		for i, v := range values {
			_ = meta.SetString(i, ci, v+"·"+strconv.Itoa(codes[v]))
		}
	}
	return meta
}

// DecodeLabels converts 1-based recode codes in a column vector back to their
// original string values for the given recoded column.
func (e *Encoder) DecodeLabels(col string, codes *matrix.MatrixBlock) ([]string, error) {
	m, ok := e.recodeMap[col]
	if !ok {
		return nil, fmt.Errorf("frame: column %q was not recoded", col)
	}
	inverse := make(map[int]string, len(m))
	for v, c := range m {
		inverse[c] = v
	}
	out := make([]string, codes.Rows())
	for r := 0; r < codes.Rows(); r++ {
		out[r] = inverse[int(codes.Get(r, 0))]
	}
	return out, nil
}
