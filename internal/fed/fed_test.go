package fed

import (
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
)

// startTwoSites starts two federated workers each holding half the rows of X
// and y, and returns the federated matrices (plus a cleanup function).
func startTwoSites(t *testing.T, x, y *matrix.MatrixBlock) (*FederatedMatrix, *FederatedMatrix, func()) {
	t.Helper()
	half := x.Rows() / 2
	x1, _ := matrix.Slice(x, 0, half, 0, x.Cols())
	x2, _ := matrix.Slice(x, half, x.Rows(), 0, x.Cols())
	y1, _ := matrix.Slice(y, 0, half, 0, 1)
	y2, _ := matrix.Slice(y, half, y.Rows(), 0, 1)

	w1 := NewWorker(nil)
	w1.PutLocal("X", x1)
	w1.PutLocal("y", y1)
	addr1, err := w1.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	w2 := NewWorker(nil)
	w2.PutLocal("X", x2)
	w2.PutLocal("y", y2)
	addr2, err := w2.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fx, err := NewFederatedMatrix(int64(x.Rows()), int64(x.Cols()), []Range{
		{RowStart: 0, RowEnd: int64(half), ColStart: 0, ColEnd: int64(x.Cols()), Address: addr1, VarName: "X"},
		{RowStart: int64(half), RowEnd: int64(x.Rows()), ColStart: 0, ColEnd: int64(x.Cols()), Address: addr2, VarName: "X"},
	})
	if err != nil {
		t.Fatal(err)
	}
	fy, err := NewFederatedMatrix(int64(y.Rows()), 1, []Range{
		{RowStart: 0, RowEnd: int64(half), ColStart: 0, ColEnd: 1, Address: addr1, VarName: "y"},
		{RowStart: int64(half), RowEnd: int64(y.Rows()), ColStart: 0, ColEnd: 1, Address: addr2, VarName: "y"},
	})
	if err != nil {
		t.Fatal(err)
	}
	cleanup := func() {
		fx.Close()
		fy.Close()
		w1.Shutdown()
		w2.Shutdown()
	}
	return fx, fy, cleanup
}

// fromWire is FromWire for a payload the test expects to be well-formed.
func fromWire(t *testing.T, w *WireMatrix) *matrix.MatrixBlock {
	t.Helper()
	m, err := FromWire(w)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestWireRoundTrip(t *testing.T) {
	m := matrix.RandUniform(7, 5, -1, 1, 0.4, 1)
	back := fromWire(t, ToWire(m))
	if !back.Equals(m, 0) {
		t.Error("wire round trip changed values")
	}
	if ToWire(nil) != nil {
		t.Error("ToWire(nil) is not nil")
	}
	if _, err := FromWire(nil); err == nil {
		t.Error("FromWire(nil) gave no error")
	}
}

// TestMalformedWireMatrixIsRefused: a wire matrix whose values do not fill
// Rows×Cols — short, negative, or a product that overflows to the count — is
// answered OK: false by the worker, where it used to panic the process.
func TestMalformedWireMatrixIsRefused(t *testing.T) {
	w := NewWorker(nil)
	w.PutLocal("X", matrix.RandUniform(4, 3, -1, 1, 1.0, 5))
	for _, bad := range []*WireMatrix{
		{Rows: 10, Cols: 10, Values: []float64{1, 2, 3}},
		{Rows: -1, Cols: -3, Values: []float64{1, 2, 3}},
		{Rows: 1 << 32, Cols: 1 << 32},
		{Rows: 3, Cols: 0, Values: []float64{1}},
	} {
		for _, req := range []*Request{
			{Command: "put", Name: "A", Matrix: bad},
			{Command: "exec", Op: "matvec", Operands: []string{"X"}, Matrix: bad},
		} {
			if resp := w.Handle(req); resp.OK || resp.Error == "" {
				t.Errorf("%s of a %dx%d wire matrix with %d values: OK %v, error %q", req.Command, bad.Rows, bad.Cols, len(bad.Values), resp.OK, resp.Error)
			}
		}
	}
}

func TestWorkerHandleBasics(t *testing.T) {
	w := NewWorker(nil)
	if resp := w.Handle(&Request{Command: "ping"}); !resp.OK {
		t.Error("ping failed")
	}
	m := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	if resp := w.Handle(&Request{Command: "put", Name: "A", Matrix: ToWire(m)}); !resp.OK {
		t.Error("put failed")
	}
	resp := w.Handle(&Request{Command: "get", Name: "A"})
	if !resp.OK || !fromWire(t, resp.Matrix).Equals(m, 0) {
		t.Error("get returned wrong matrix")
	}
	if resp := w.Handle(&Request{Command: "get", Name: "missing"}); resp.OK {
		t.Error("expected missing variable error")
	}
	if resp := w.Handle(&Request{Command: "put", Name: "B"}); resp.OK {
		t.Error("expected missing payload error")
	}
	if resp := w.Handle(&Request{Command: "remove", Name: "A"}); !resp.OK {
		t.Error("remove failed")
	}
	if resp := w.Handle(&Request{Command: "get", Name: "A"}); resp.OK {
		t.Error("removed variable still resolvable")
	}
	if resp := w.Handle(&Request{Command: "explode"}); resp.OK {
		t.Error("expected unknown command error")
	}
	if resp := w.Handle(&Request{Command: "exec", Op: "tsmm"}); resp.OK {
		t.Error("expected missing operand error")
	}
	if resp := w.Handle(&Request{Command: "exec", Op: "warp", Operands: []string{"A"}}); resp.OK {
		t.Error("expected unknown op error")
	}
}

func TestWorkerExecOps(t *testing.T) {
	w := NewWorker(nil)
	x := matrix.RandUniform(20, 4, -1, 1, 1.0, 2)
	y := matrix.RandUniform(20, 1, -1, 1, 1.0, 3)
	w.PutLocal("X", x)
	w.PutLocal("y", y)
	resp := w.Handle(&Request{Command: "exec", Op: "tsmm", Operands: []string{"X"}})
	if !resp.OK || !fromWire(t, resp.Matrix).Equals(matrix.TSMM(x, 0), 1e-9) {
		t.Error("tsmm wrong")
	}
	resp = w.Handle(&Request{Command: "exec", Op: "xty", Operands: []string{"X", "y"}})
	want, _ := matrix.Multiply(matrix.Transpose(x), y, 0)
	if !resp.OK || !fromWire(t, resp.Matrix).Equals(want, 1e-9) {
		t.Error("xty wrong")
	}
	v := matrix.RandUniform(4, 1, -1, 1, 1.0, 4)
	resp = w.Handle(&Request{Command: "exec", Op: "matvec", Operands: []string{"X"}, Matrix: ToWire(v)})
	wantMV, _ := matrix.Multiply(x, v, 0)
	if !resp.OK || !fromWire(t, resp.Matrix).Equals(wantMV, 1e-9) {
		t.Error("matvec wrong")
	}
	resp = w.Handle(&Request{Command: "exec", Op: "colSums", Operands: []string{"X"}})
	if !resp.OK || !fromWire(t, resp.Matrix).Equals(matrix.ColSums(x, 1), 1e-9) {
		t.Error("colSums wrong")
	}
	resp = w.Handle(&Request{Command: "exec", Op: "sum", Operands: []string{"X"}})
	if !resp.OK || resp.Scalar != matrix.Sum(x, 1) {
		t.Error("sum wrong")
	}
	resp = w.Handle(&Request{Command: "exec", Op: "rowcount", Operands: []string{"X"}})
	if !resp.OK || resp.Scalar != 20 {
		t.Error("rowcount wrong")
	}
	// exec with output variable stores the result
	resp = w.Handle(&Request{Command: "exec", Op: "tsmm", Operands: []string{"X"}, Output: "G"})
	if !resp.OK {
		t.Fatal("tsmm with output failed")
	}
	if resp := w.Handle(&Request{Command: "get", Name: "G"}); !resp.OK {
		t.Error("stored output not retrievable")
	}
}

func TestFederatedOverNetwork(t *testing.T) {
	x, yv := matrix.SyntheticRegression(100, 6, 1.0, 5)
	fx, fy, cleanup := startTwoSites(t, x, yv)
	defer cleanup()

	if !fx.RowPartitioned() {
		t.Error("expected row-partitioned federation")
	}
	gram, err := fx.TSMM()
	if err != nil {
		t.Fatal(err)
	}
	if !gram.Equals(matrix.TSMM(x, 0), 1e-9) {
		t.Error("federated TSMM disagrees with local")
	}
	xty, err := fx.XtY(fy)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := matrix.Multiply(matrix.Transpose(x), yv, 0)
	if !xty.Equals(want, 1e-9) {
		t.Error("federated XtY disagrees with local")
	}
	xtyLocal, err := fx.XtLocalY(yv)
	if err != nil {
		t.Fatal(err)
	}
	if !xtyLocal.Equals(want, 1e-9) {
		t.Error("federated XtLocalY disagrees with local")
	}
	v := matrix.RandUniform(6, 1, -1, 1, 1.0, 6)
	mv, err := fx.MatVec(v)
	if err != nil {
		t.Fatal(err)
	}
	wantMV, _ := matrix.Multiply(x, v, 0)
	if !mv.Equals(wantMV, 1e-9) {
		t.Error("federated MatVec disagrees with local")
	}
	cs, err := fx.ColSums()
	if err != nil {
		t.Fatal(err)
	}
	if !cs.Equals(matrix.ColSums(x, 1), 1e-9) {
		t.Error("federated ColSums disagrees with local")
	}
	s, err := fx.Sum()
	if err != nil {
		t.Fatal(err)
	}
	if d := s - matrix.Sum(x, 1); d > 1e-9 || d < -1e-9 {
		t.Error("federated Sum disagrees with local")
	}
	dc := fx.DataCharacteristics()
	if dc.Rows != 100 || dc.Cols != 6 {
		t.Errorf("characteristics = %v", dc)
	}
}

func TestFederatedValidation(t *testing.T) {
	// invalid range rejected
	if _, err := NewFederatedMatrix(10, 2, []Range{{RowStart: 5, RowEnd: 3, ColStart: 0, ColEnd: 2, Address: "127.0.0.1:1", VarName: "X"}}); err == nil {
		t.Error("expected invalid range error")
	}
	// unreachable worker
	if _, err := NewFederatedMatrix(10, 2, []Range{{RowStart: 0, RowEnd: 10, ColStart: 0, ColEnd: 2, Address: "127.0.0.1:1", VarName: "X"}}); err == nil {
		t.Error("expected connection error")
	}
}

func TestClientPingAndClose(t *testing.T) {
	w := NewWorker(nil)
	addr, err := w.Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer w.Shutdown()
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if c.Addr() != addr {
		t.Error("Addr mismatch")
	}
	if err := c.Ping(); err != nil {
		t.Errorf("ping failed: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("close failed: %v", err)
	}
	if err := c.Ping(); err == nil {
		t.Error("ping on closed client should fail")
	}
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("expected dial error")
	}
}
