package systemds_test

import (
	"path/filepath"
	"strings"
	"testing"

	systemds "github.com/systemds/systemds-go"
)

// TestMatrixFromStringIsRowMajor: matrix("1 2 3 4", rows=2, cols=2) holds
// the listed values row by row, and a string of one number fills like the
// number.
func TestMatrixFromStringIsRowMajor(t *testing.T) {
	res, err := systemds.NewContext().Execute(`
M = matrix("1 2 3 4", rows=2, cols=2)
s = sum(M)
F = matrix("2.5", rows=2, cols=3)
`, nil, "M", "s", "F")
	if err != nil {
		t.Fatal(err)
	}
	m, err := res.Matrix("M")
	if err != nil {
		t.Fatal(err)
	}
	for k, want := range []float64{1, 2, 3, 4} {
		if got := m.Get(k/2, k%2); got != want {
			t.Errorf("M[%d, %d] = %v, want %v", k/2+1, k%2+1, got, want)
		}
	}
	if s, err := res.Float("s"); err != nil || s != 10 {
		t.Errorf("sum = %v, %v; want 10", s, err)
	}
	f, err := res.Matrix("F")
	if err != nil {
		t.Fatal(err)
	}
	if f.Rows() != 2 || f.Cols() != 3 || f.Get(1, 2) != 2.5 || f.NNZ() != 6 {
		t.Errorf("matrix(\"2.5\", 2, 3) = %dx%d, [2, 3] = %v, nnz %d", f.Rows(), f.Cols(), f.Get(1, 2), f.NNZ())
	}
}

// TestNumericStringsKeepWorking: as.double, as.integer and a cellwise operand
// read a numeric string as its number.
func TestNumericStringsKeepWorking(t *testing.T) {
	res, err := systemds.NewContext().Execute(`
d = as.double("2.5")
i = as.integer("7")
Y = X * "2"
`, map[string]any{"X": systemds.NewMatrix(1, 2, []float64{1, -3})}, "d", "i", "Y")
	if err != nil {
		t.Fatal(err)
	}
	if d, err := res.Float("d"); err != nil || d != 2.5 {
		t.Errorf("as.double(\"2.5\") = %v, %v", d, err)
	}
	if i, err := res.Float("i"); err != nil || i != 7 {
		t.Errorf("as.integer(\"7\") = %v, %v", i, err)
	}
	y, err := res.Matrix("Y")
	if err != nil {
		t.Fatal(err)
	}
	if y.Get(0, 0) != 2 || y.Get(0, 1) != -6 {
		t.Errorf("X * \"2\" = [%v %v], want [2 -6]", y.Get(0, 0), y.Get(0, 1))
	}
}

// TestStringNeverReadsAsZero: a string that is not a number, where a number
// is read, is an error naming the string.
func TestStringNeverReadsAsZero(t *testing.T) {
	x := systemds.NewMatrix(2, 2, []float64{1, 2, 3, 4})
	file := filepath.Join(t.TempDir(), "s.csv")
	for _, tc := range []struct {
		name, script, want string
	}{
		{"write", `write("abc", "` + file + `")`, `"abc"`},
		{"for over a string", "x = 0\nfor (i in \"abc\") { x = x + i }", `"abc"`},
		{"too few values", `M = matrix("1 2 3", rows=2, cols=2)`, "3 values for 4 cells"},
		{"too many values", `M = matrix("1 2 3 4 5", rows=2, cols=2)`, "5 values for 4 cells"},
		{"non-numeric value", `M = matrix("1 2 x 4", rows=2, cols=2)`, `"x"`},
		{"non-numeric fill", `M = matrix("abc", rows=2, cols=2)`, `"abc"`},
		{"as.double", `d = as.double("abc")`, `"abc"`},
		{"as.integer", `d = as.integer("abc")`, `"abc"`},
		{"matrix op string", `M = X * "abc"`, `"abc"`},
		{"string op matrix", `M = "abc" - X`, `"abc"`},
		{"unary of a string", `M = abs("abc")`, `"abc"`},
		{"aggregate of a string", `s = sum("abc")`, `"abc"`},
	} {
		var outs []string
		if name, _, ok := strings.Cut(tc.script, " = "); ok {
			outs = append(outs, name)
		}
		_, err := systemds.NewContext().Execute(tc.script, map[string]any{"X": x}, outs...)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %s", tc.name, err, tc.want)
		}
	}
}
