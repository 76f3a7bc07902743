package main

import (
	"path/filepath"
	"testing"

	systemds "github.com/systemds/systemds-go"
	sdsio "github.com/systemds/systemds-go/internal/io"
	"github.com/systemds/systemds-go/internal/matrix"
)

// TestParseInputValueMatrixFiles binds a matrix written in each supported
// file format and requires the same bits back.
func TestParseInputValueMatrixFiles(t *testing.T) {
	want := matrix.RandUniform(30, 7, -1, 1, 1.0, 5)
	dir := t.TempDir()
	for _, tc := range []struct {
		file  string
		write func(path string) error
	}{
		{"X.bin", func(p string) error { return sdsio.WriteMatrixBinary(p, want, 16) }},
		{"X.csv", func(p string) error { return systemds.WriteMatrixCSV(p, want) }},
	} {
		path := filepath.Join(dir, tc.file)
		if err := tc.write(path); err != nil {
			t.Fatalf("write %s: %v", tc.file, err)
		}
		v, err := parseInputValue(path)
		if err != nil {
			t.Fatalf("parseInputValue(%s): %v", tc.file, err)
		}
		got, ok := v.(*matrix.MatrixBlock)
		if !ok {
			t.Fatalf("parseInputValue(%s) = %T, want a matrix", tc.file, v)
		}
		if !got.Equals(want, 0) {
			t.Errorf("%s: matrix differs after the round trip", tc.file)
		}
	}
}

// TestParseInputValueScalars pins the scalar bindings and the error of a
// missing matrix file.
func TestParseInputValueScalars(t *testing.T) {
	for in, want := range map[string]any{
		"2.5":   2.5,
		"-3":    -3.0,
		"TRUE":  true,
		"FALSE": false,
		"true":  "true",
		"name":  "name",
	} {
		got, err := parseInputValue(in)
		if err != nil || got != want {
			t.Errorf("parseInputValue(%q) = %v (%T), %v; want %v (%T)", in, got, got, err, want, want)
		}
	}
	if _, err := parseInputValue(filepath.Join(t.TempDir(), "missing.bin")); err == nil {
		t.Error("a missing .bin input must be an error")
	}
}
