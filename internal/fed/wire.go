// Package fed implements federated ML support (Section 3.3 of the paper):
// federated workers that hold local data partitions and execute pushed-down
// instructions, a master-side federated matrix (a metadata object referencing
// remote in-memory tensors by index range), and federated operations that
// aggregate partial results while leaving raw data at the owning site.
package fed

import (
	"errors"
	"fmt"
	"math"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/obs"
)

// WireMatrix is the gob-serializable wire representation of a matrix block.
// Sparse blocks are shipped as dense values for simplicity; the federated
// protocol only ever ships small aggregates and broadcast vectors.
type WireMatrix struct {
	Rows, Cols int
	Values     []float64
}

// ToWire converts a matrix block to its wire representation.
func ToWire(m *matrix.MatrixBlock) *WireMatrix {
	if m == nil {
		return nil
	}
	d := m.Copy().ToDense()
	return &WireMatrix{Rows: d.Rows(), Cols: d.Cols(), Values: d.DenseValues()}
}

// FromWire converts a wire matrix back to a matrix block. The wire is
// untrusted: a missing matrix, a negative dimension, or a value count other
// than Rows×Cols (overflow included) is an error, never a panic.
func FromWire(w *WireMatrix) (*matrix.MatrixBlock, error) {
	if w == nil {
		return nil, errors.New("fed: missing matrix payload")
	}
	if w.Rows < 0 || w.Cols < 0 || (w.Cols != 0 && w.Rows > math.MaxInt/w.Cols) || w.Rows*w.Cols != len(w.Values) {
		return nil, fmt.Errorf("fed: wire matrix %dx%d carries %d values", w.Rows, w.Cols, len(w.Values))
	}
	m := matrix.NewDenseFromSlice(w.Rows, w.Cols, append([]float64(nil), w.Values...))
	m.ExamineAndApplySparsity()
	return m, nil
}

// Request is a message sent from the master control program to a federated
// worker.
type Request struct {
	// Command is one of "ping", "put", "readcsv", "exec", "get", "remove",
	// "shutdown".
	Command string
	// Name is the worker-local variable the command refers to.
	Name string
	// Path is the file to read for "readcsv".
	Path string
	// Op is the pushed-down operation for "exec": "tsmm", "xty", "matvec",
	// "colSums", "colSq", "sum", "sumsq", "rowcount", "scalarmult".
	Op string
	// Operands are worker-local input variable names for "exec".
	Operands []string
	// Output is the worker-local variable the "exec" result is stored under.
	Output string
	// Matrix carries broadcast data for "put" and vector operands of "exec".
	Matrix *WireMatrix
	// Scalar carries scalar operands.
	Scalar float64
	// Trace asks the worker to record spans for this request and ship them
	// back in Response.Spans. Set by the client when master-side tracing is
	// enabled. (gob ignores unknown fields, so old workers interoperate.)
	Trace bool
}

// Response is a worker's reply.
type Response struct {
	OK     bool
	Error  string
	Matrix *WireMatrix
	Scalar float64
	Rows   int64
	Cols   int64
	// Spans carries the worker-side spans recorded for this request when
	// Request.Trace was set; the client grafts them under its RPC span so
	// federated work shows up re-parented in the master trace.
	Spans []obs.Record
}
