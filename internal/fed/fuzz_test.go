package fed

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
)

// encodeRequest gob-encodes one request as handleConn's decoder reads it off
// the connection.
func encodeRequest(tb testing.TB, req *Request) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(req); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzWorkerHandle: whatever bytes arrive as one request frame, the worker
// either cannot decode them or answers them — never a panic, which inside
// handleConn would end the worker process, and nothing allocated from a
// length the frame did not pay for. The worker holds a small X and y, so
// exec requests reach their kernels; readcsv is pointed at a missing file
// (the CSV reader has fuzz targets of its own).
func FuzzWorkerHandle(f *testing.F) {
	v := ToWire(matrix.FromRows([][]float64{{1}, {2}, {3}}))
	for _, req := range []*Request{
		{Command: "ping"},
		{Command: "put", Name: "A", Matrix: ToWire(matrix.FromRows([][]float64{{1, 2}, {3, 4}}))},
		{Command: "put", Name: "A", Matrix: &WireMatrix{Rows: 10, Cols: 10, Values: []float64{1, 2, 3}}},
		{Command: "get", Name: "X"},
		{Command: "remove", Name: "y"},
		{Command: "readcsv", Name: "Z", Path: "missing.csv"},
		{Command: "exec", Op: "tsmm", Operands: []string{"X"}, Output: "G"},
		{Command: "exec", Op: "xty", Operands: []string{"X", "y"}},
		{Command: "exec", Op: "matvec", Operands: []string{"X"}, Matrix: v, Trace: true},
		{Command: "exec", Op: "scalarmult", Operands: []string{"X"}, Scalar: 2},
		{Command: "exec", Op: "rowcount", Operands: []string{"y"}},
	} {
		f.Add(encodeRequest(f, req))
	}
	missing := filepath.Join(f.TempDir(), "missing.csv")
	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&req); err != nil {
			return
		}
		req.Path = missing
		w := NewWorker(nil)
		w.PutLocal("X", matrix.RandUniform(6, 3, -1, 1, 1.0, 7))
		w.PutLocal("y", matrix.RandUniform(6, 1, -1, 1, 1.0, 8))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		resp := w.Handle(&req)
		runtime.ReadMemStats(&after)
		if resp == nil {
			t.Fatal("nil response")
		}
		if !resp.OK && resp.Error == "" {
			t.Fatalf("%s %s failed without an error", req.Command, req.Op)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 8*uint64(len(data))+1<<20 {
			t.Fatalf("a %d-byte request allocated %d bytes", len(data), grew)
		}
	})
}
