package io

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/systemds/systemds-go/internal/frame"
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

// lifecycleCSV is the raw sensor table of the lifecycle pipeline: a site
// category, temperature with 5% missing readings, four more sensors and the
// energy target, under a header.
func lifecycleCSV(rows int) []byte {
	rng := rand.New(rand.NewSource(5))
	sites := []string{"graz", "vienna", "linz"}
	var buf bytes.Buffer
	buf.WriteString("site,temperature,vibration,rpm,noise1,noise2,energy\n")
	for i := 0; i < rows; i++ {
		temp := 15 + 10*rng.Float64()
		vib, rpm := rng.Float64(), 900+200*rng.Float64()
		tempField := fmt.Sprintf("%.3f", temp)
		if rng.Float64() < 0.05 {
			tempField = ""
		}
		fmt.Fprintf(&buf, "%s,%s,%.3f,%.1f,%.4f,%.4f,%.4f\n", sites[rng.Intn(len(sites))], tempField,
			vib, rpm, rng.Float64(), rng.NormFloat64(), 0.5*temp+3*vib+0.01*rpm)
	}
	return buf.Bytes()
}

var lifecycleSpec = frame.TransformSpec{
	DummyCode: []string{"site"},
	Impute:    map[string]string{"temperature": "mean"},
	Scale:     []string{"temperature", "vibration", "rpm", "noise1", "noise2"},
}

// BenchmarkParseFrameCSV times schema-inferring frame reading of the 30 000-row
// lifecycle table (MB/s over the bytes).
func BenchmarkParseFrameCSV(b *testing.B) {
	data := lifecycleCSV(30000)
	opts := DefaultCSVOptions()
	opts.Header = true
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseFrameCSV(data, nil, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransformEncode times transformencode of the 30 000-row lifecycle
// frame with the pipeline's spec (dummycode, impute, scale), in rows/s.
func BenchmarkTransformEncode(b *testing.B) {
	opts := DefaultCSVOptions()
	opts.Header = true
	f, err := ParseFrameCSV(lifecycleCSV(30000), nil, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := frame.Encode(f, lifecycleSpec); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(f.NumRows())*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
}
