package frame

import (
	"math"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/types"
)

func sampleFrame(t *testing.T) *FrameBlock {
	t.Helper()
	schema := types.Schema{types.String, types.FP64, types.INT64, types.Boolean}
	f := NewFrame(schema, 4)
	if err := f.SetColumnNames([]string{"city", "temp", "count", "flag"}); err != nil {
		t.Fatal(err)
	}
	rows := [][]string{
		{"graz", "12.5", "3", "true"},
		{"vienna", "15.0", "7", "false"},
		{"graz", "11.0", "2", "true"},
		{"linz", "9.5", "5", "false"},
	}
	for r, row := range rows {
		for c, v := range row {
			if err := f.SetString(r, c, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	return f
}

func TestFrameBasics(t *testing.T) {
	f := sampleFrame(t)
	if f.NumRows() != 4 || f.NumCols() != 4 {
		t.Fatalf("dims %dx%d", f.NumRows(), f.NumCols())
	}
	if got, _ := f.GetString(0, 0); got != "graz" {
		t.Errorf("GetString = %q", got)
	}
	if got, _ := f.GetNumeric(1, 1); got != 15.0 {
		t.Errorf("GetNumeric = %v", got)
	}
	if got, _ := f.GetNumeric(0, 3); got != 1 {
		t.Errorf("bool numeric = %v", got)
	}
	if got, _ := f.GetString(1, 3); got != "false" {
		t.Errorf("bool string = %q", got)
	}
	if got, _ := f.GetString(0, 2); got != "3" {
		t.Errorf("int string = %q", got)
	}
	if f.ColumnIndex("count") != 2 || f.ColumnIndex("missing") != -1 {
		t.Error("ColumnIndex wrong")
	}
	if _, err := f.GetString(9, 0); err == nil {
		t.Error("expected out of bounds error")
	}
	if _, err := f.GetNumeric(0, 0); err == nil {
		t.Error("expected parse error for string city")
	}
	if err := f.SetString(0, 1, "notanumber"); err == nil {
		t.Error("expected parse error")
	}
	if err := f.SetString(0, 3, "maybe"); err == nil {
		t.Error("expected boolean parse error")
	}
	if err := f.SetColumnNames([]string{"a"}); err == nil {
		t.Error("expected name length error")
	}
}

func TestFrameSetNumericCoercion(t *testing.T) {
	f := sampleFrame(t)
	if err := f.SetNumeric(0, 2, 9.7); err != nil {
		t.Fatal(err)
	}
	if v, _ := f.GetNumeric(0, 2); v != 9 {
		t.Errorf("int coercion = %v", v)
	}
	if err := f.SetNumeric(0, 3, 2); err != nil {
		t.Fatal(err)
	}
	if v, _ := f.GetNumeric(0, 3); v != 1 {
		t.Errorf("bool coercion = %v", v)
	}
	if err := f.SetNumeric(0, 0, 5); err != nil {
		t.Fatal(err)
	}
	if s, _ := f.GetString(0, 0); s != "5" {
		t.Errorf("string col numeric set = %q", s)
	}
}

func TestFrameCopy(t *testing.T) {
	f := sampleFrame(t)
	cp := f.Copy()
	_ = cp.SetString(0, 0, "salzburg")
	_ = cp.SetNumeric(0, 1, 99)
	if s, _ := f.GetString(0, 0); s != "graz" {
		t.Error("copy not independent")
	}
	if v, _ := f.GetNumeric(0, 1); v != 12.5 {
		t.Error("copy of a numeric column not independent")
	}
}

// A missing cell is NaN in every non-String column. Only the FP types render
// it as a literal; an integer or boolean column renders "" and never a value.
func TestMissingCellsRenderEmpty(t *testing.T) {
	f := NewFrame(types.Schema{types.INT64, types.INT32, types.Boolean, types.FP64}, 1)
	for c := 0; c < 4; c++ {
		if err := f.SetString(0, c, ""); err != nil {
			t.Fatal(err)
		}
	}
	for c, want := range []string{"", "", "", "NaN"} {
		if got, _ := f.GetString(0, c); got != want {
			t.Errorf("column %d: missing cell renders %q, want %q", c, got, want)
		}
	}
}

func TestRecodeIntColumnSkipsMissing(t *testing.T) {
	f := NewFrame(types.Schema{types.INT64}, 4)
	_ = f.SetColumnNames([]string{"n"})
	for r, s := range []string{"7", "", "3", "7"} {
		if err := f.SetString(r, 0, s); err != nil {
			t.Fatal(err)
		}
	}
	x, _, err := Encode(f, TransformSpec{Recode: []string{"n"}})
	if err != nil {
		t.Fatal(err)
	}
	for r, want := range []float64{2, 0, 1, 2} {
		if got := x.Get(r, 0); got != want {
			t.Errorf("row %d: code %v, want %v", r, got, want)
		}
	}
	if x.NNZ() != 3 {
		t.Errorf("nnz = %d, want 3", x.NNZ())
	}
	_, enc, err := Encode(f, TransformSpec{DummyCode: []string{"n"}})
	if err != nil {
		t.Fatal(err)
	}
	if enc.OutputColumns() != 2 || enc.MetaFrame().NumRows() != 2 {
		t.Errorf("dummycode learned %d categories, want 2", enc.OutputColumns())
	}
}

func TestFrameMatrixConversion(t *testing.T) {
	schema := types.Schema{types.FP64, types.INT64}
	f := NewFrame(schema, 2)
	_ = f.SetNumeric(0, 0, 1.5)
	_ = f.SetNumeric(0, 1, 2)
	_ = f.SetNumeric(1, 0, 3.5)
	_ = f.SetNumeric(1, 1, 4)
	m, err := f.ToMatrix()
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.FromRows([][]float64{{1.5, 2}, {3.5, 4}})
	if !m.Equals(want, 0) {
		t.Errorf("ToMatrix = %v", m)
	}
	back := FromMatrix(m)
	m2, err := back.ToMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Equals(want, 0) {
		t.Error("FromMatrix/ToMatrix roundtrip failed")
	}
	// frame with non-numeric strings cannot convert
	bad := sampleFrame(t)
	if _, err := bad.ToMatrix(); err == nil {
		t.Error("expected conversion error")
	}
}

func TestEncodeRecode(t *testing.T) {
	f := sampleFrame(t)
	x, enc, err := Encode(f, TransformSpec{Recode: []string{"city"}})
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows() != 4 || x.Cols() != 4 {
		t.Fatalf("encoded dims %dx%d", x.Rows(), x.Cols())
	}
	// codes assigned in sorted order: graz=1, linz=2, vienna=3
	if x.Get(0, 0) != 1 || x.Get(1, 0) != 3 || x.Get(3, 0) != 2 {
		t.Errorf("recode codes: %v %v %v", x.Get(0, 0), x.Get(1, 0), x.Get(3, 0))
	}
	// numeric passthrough
	if x.Get(1, 1) != 15.0 || x.Get(2, 2) != 2 {
		t.Error("passthrough columns wrong")
	}
	labels, err := enc.DecodeLabels("city", matrix.FromRows([][]float64{{1}, {3}}))
	if err != nil {
		t.Fatal(err)
	}
	if labels[0] != "graz" || labels[1] != "vienna" {
		t.Errorf("decoded labels = %v", labels)
	}
	if _, err := enc.DecodeLabels("temp", x); err == nil {
		t.Error("expected error decoding non-recoded column")
	}
}

func TestEncodeDummyCode(t *testing.T) {
	f := sampleFrame(t)
	x, enc, err := Encode(f, TransformSpec{DummyCode: []string{"city"}})
	if err != nil {
		t.Fatal(err)
	}
	if enc.OutputColumns() != 6 { // 3 dummy + 3 passthrough
		t.Fatalf("output columns = %d", enc.OutputColumns())
	}
	if x.Cols() != 6 {
		t.Fatalf("encoded cols = %d", x.Cols())
	}
	// row 0 is graz -> one-hot position 0
	if x.Get(0, 0) != 1 || x.Get(0, 1) != 0 || x.Get(0, 2) != 0 {
		t.Errorf("dummy row 0 = %v %v %v", x.Get(0, 0), x.Get(0, 1), x.Get(0, 2))
	}
	// row 1 is vienna -> one-hot position 2
	if x.Get(1, 2) != 1 {
		t.Error("dummy row 1 wrong")
	}
	// each dummy row sums to 1
	for r := 0; r < 4; r++ {
		s := x.Get(r, 0) + x.Get(r, 1) + x.Get(r, 2)
		if s != 1 {
			t.Errorf("row %d one-hot sum = %v", r, s)
		}
	}
}

func TestEncodeBinAndScale(t *testing.T) {
	schema := types.Schema{types.FP64, types.FP64}
	f := NewFrame(schema, 5)
	_ = f.SetColumnNames([]string{"a", "b"})
	vals := []float64{0, 2.5, 5, 7.5, 10}
	for r, v := range vals {
		_ = f.SetNumeric(r, 0, v)
		_ = f.SetNumeric(r, 1, v)
	}
	x, _, err := Encode(f, TransformSpec{Bin: map[string]int{"a": 2}, Scale: []string{"b"}})
	if err != nil {
		t.Fatal(err)
	}
	// equi-width bins over [0,10] with 2 bins: 0..5 -> 1, >5 -> 2 (max clamps to 2)
	wantBins := []float64{1, 1, 2, 2, 2}
	for r, w := range wantBins {
		if x.Get(r, 0) != w {
			t.Errorf("bin row %d = %v, want %v", r, x.Get(r, 0), w)
		}
	}
	// scaled column has mean ~0 and population sd ~1
	var mean float64
	for r := 0; r < 5; r++ {
		mean += x.Get(r, 1)
	}
	mean /= 5
	if math.Abs(mean) > 1e-12 {
		t.Errorf("scaled mean = %v", mean)
	}
	var va float64
	for r := 0; r < 5; r++ {
		va += x.Get(r, 1) * x.Get(r, 1)
	}
	va /= 5
	if math.Abs(va-1) > 1e-9 {
		t.Errorf("scaled variance = %v", va)
	}
}

func TestEncodeImpute(t *testing.T) {
	schema := types.Schema{types.String}
	f := NewFrame(schema, 4)
	_ = f.SetColumnNames([]string{"v"})
	_ = f.SetString(0, 0, "2")
	_ = f.SetString(1, 0, "")
	_ = f.SetString(2, 0, "4")
	_ = f.SetString(3, 0, "NA")
	x, _, err := Encode(f, TransformSpec{Impute: map[string]string{"v": "mean"}})
	if err != nil {
		t.Fatal(err)
	}
	if x.Get(1, 0) != 3 || x.Get(3, 0) != 3 {
		t.Errorf("imputed values = %v %v, want 3", x.Get(1, 0), x.Get(3, 0))
	}
	// median and mode
	_, _, err = Encode(f, TransformSpec{Impute: map[string]string{"v": "median"}})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Encode(f, TransformSpec{Impute: map[string]string{"v": "mode"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Encode(f, TransformSpec{Impute: map[string]string{"v": "magic"}}); err == nil {
		t.Error("expected unknown method error")
	}
}

func TestEncoderApplyToNewData(t *testing.T) {
	train := sampleFrame(t)
	_, enc, err := Encode(train, TransformSpec{DummyCode: []string{"city"}, Scale: []string{"temp"}})
	if err != nil {
		t.Fatal(err)
	}
	// new data with an unseen category
	test := NewFrame(train.Schema(), 2)
	_ = test.SetColumnNames(train.ColumnNames())
	_ = test.SetString(0, 0, "graz")
	_ = test.SetString(0, 1, "12.5")
	_ = test.SetString(0, 2, "1")
	_ = test.SetString(0, 3, "true")
	_ = test.SetString(1, 0, "paris") // unseen
	_ = test.SetString(1, 1, "20")
	_ = test.SetString(1, 2, "2")
	_ = test.SetString(1, 3, "false")
	x, err := enc.Apply(test)
	if err != nil {
		t.Fatal(err)
	}
	if x.Cols() != enc.OutputColumns() {
		t.Fatalf("apply cols = %d", x.Cols())
	}
	// unseen category produces an all-zero one-hot block
	if x.Get(1, 0) != 0 || x.Get(1, 1) != 0 || x.Get(1, 2) != 0 {
		t.Error("unseen category should encode to zeros")
	}
	// mismatched schema rejected
	bad := NewFrame(types.Schema{types.FP64}, 1)
	if _, err := enc.Apply(bad); err == nil {
		t.Error("expected column count mismatch error")
	}
}

func TestEncodeErrors(t *testing.T) {
	f := sampleFrame(t)
	if _, _, err := Encode(f, TransformSpec{Recode: []string{"nope"}}); err == nil {
		t.Error("expected missing recode column error")
	}
	if _, _, err := Encode(f, TransformSpec{Bin: map[string]int{"nope": 3}}); err == nil {
		t.Error("expected missing bin column error")
	}
	if _, _, err := Encode(f, TransformSpec{Bin: map[string]int{"temp": 0}}); err == nil {
		t.Error("expected invalid bin count error")
	}
	if _, _, err := Encode(f, TransformSpec{Scale: []string{"nope"}}); err == nil {
		t.Error("expected missing scale column error")
	}
	if _, _, err := Encode(f, TransformSpec{Impute: map[string]string{"nope": "mean"}}); err == nil {
		t.Error("expected missing impute column error")
	}
}

func TestMetaFrame(t *testing.T) {
	f := sampleFrame(t)
	_, enc, err := Encode(f, TransformSpec{Recode: []string{"city"}})
	if err != nil {
		t.Fatal(err)
	}
	meta := enc.MetaFrame()
	if meta.NumRows() != 3 {
		t.Fatalf("meta rows = %d", meta.NumRows())
	}
	s, _ := meta.GetString(0, 0)
	if s != "graz·1" {
		t.Errorf("meta cell = %q", s)
	}
}
