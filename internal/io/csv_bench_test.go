package io

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
)

// BenchmarkCSVParse times the chunk-parallel matrix CSV reader on the dense
// 2000 x 40 input of the Figure 5 workload at tiny scale (MB/s over the file).
func BenchmarkCSVParse(b *testing.B) {
	path := filepath.Join(b.TempDir(), "X.csv")
	x, _ := matrix.SyntheticRegression(2000, 40, 1.0, 9)
	if err := WriteMatrixCSV(path, x, DefaultCSVOptions()); err != nil {
		b.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadMatrixCSV(path, DefaultCSVOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
