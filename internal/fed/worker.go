package fed

import (
	"encoding/gob"
	"fmt"
	"log"
	"net"
	"sync"

	"github.com/systemds/systemds-go/internal/io"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/obs"
)

// Worker is a federated worker process: it owns local data (loaded from local
// files or received via put) and executes pushed-down instructions on it,
// returning only aggregates and model updates, never the raw data.
type Worker struct {
	mu       sync.Mutex
	vars     map[string]*matrix.MatrixBlock
	listener net.Listener
	quit     chan struct{}
	wg       sync.WaitGroup
	logger   *log.Logger
}

// NewWorker creates a federated worker with an empty variable store.
func NewWorker(logger *log.Logger) *Worker {
	if logger == nil {
		logger = log.New(logDiscard{}, "", 0)
	}
	return &Worker{vars: map[string]*matrix.MatrixBlock{}, quit: make(chan struct{}), logger: logger}
}

type logDiscard struct{}

func (logDiscard) Write(p []byte) (int, error) { return len(p), nil }

// PutLocal stores a matrix directly in the worker (used for in-process tests
// and examples that simulate pre-existing site data).
func (w *Worker) PutLocal(name string, m *matrix.MatrixBlock) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.vars[name] = m
}

// Serve starts listening on the given address (e.g. "127.0.0.1:0") and
// returns the bound address. Connections are handled concurrently until
// Shutdown is called.
func (w *Worker) Serve(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("fed: listen %s: %w", addr, err)
	}
	w.listener = ln
	w.wg.Add(1)
	go w.acceptLoop()
	return ln.Addr().String(), nil
}

func (w *Worker) acceptLoop() {
	defer w.wg.Done()
	for {
		conn, err := w.listener.Accept()
		if err != nil {
			select {
			case <-w.quit:
				return
			default:
				w.logger.Printf("fed worker accept error: %v", err)
				return
			}
		}
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			w.handleConn(conn)
		}()
	}
}

// Shutdown stops the listener and waits for in-flight connections.
func (w *Worker) Shutdown() {
	close(w.quit)
	if w.listener != nil {
		_ = w.listener.Close()
	}
	w.wg.Wait()
}

func (w *Worker) handleConn(conn net.Conn) {
	defer conn.Close()
	dec := gob.NewDecoder(conn)
	enc := gob.NewEncoder(conn)
	for {
		var req Request
		if err := dec.Decode(&req); err != nil {
			return
		}
		resp := w.Handle(&req)
		if err := enc.Encode(resp); err != nil {
			return
		}
		if req.Command == "shutdown" {
			return
		}
	}
}

// Handle executes one federated request and produces the response. It is
// exported so tests and in-process federations can bypass the network.
// When the master asked for tracing (Request.Trace) the request runs under a
// request-scoped tracer — not the process-global one, so in-process workers
// sharing the master's process never double-record — and the recorded spans
// are attached to the response for the client to graft.
func (w *Worker) Handle(req *Request) *Response {
	if !req.Trace {
		return w.handle(req)
	}
	tr := obs.New()
	tr.SetEnabled(true)
	sp := tr.Begin(obs.CatFed, workerSpanName(req))
	resp := w.handle(req)
	sp.End()
	resp.Spans = tr.Snapshot()
	return resp
}

func workerSpanName(req *Request) string {
	if req.Op != "" {
		return "worker:" + req.Command + ":" + req.Op
	}
	return "worker:" + req.Command
}

func (w *Worker) handle(req *Request) *Response {
	switch req.Command {
	case "ping":
		return &Response{OK: true}
	case "put":
		m, err := FromWire(req.Matrix)
		if err != nil {
			return failf("put %s: %v", req.Name, err)
		}
		w.PutLocal(req.Name, m)
		return &Response{OK: true}
	case "readcsv":
		m, err := io.ReadMatrixCSV(req.Path, io.DefaultCSVOptions())
		if err != nil {
			return failf("readcsv %s: %v", req.Path, err)
		}
		w.PutLocal(req.Name, m)
		return &Response{OK: true, Rows: int64(m.Rows()), Cols: int64(m.Cols())}
	case "get":
		m, err := w.get(req.Name)
		if err != nil {
			return failf("%v", err)
		}
		return &Response{OK: true, Matrix: ToWire(m), Rows: int64(m.Rows()), Cols: int64(m.Cols())}
	case "remove":
		w.mu.Lock()
		delete(w.vars, req.Name)
		w.mu.Unlock()
		return &Response{OK: true}
	case "exec":
		return w.exec(req)
	case "shutdown":
		return &Response{OK: true}
	default:
		return failf("unknown command %q", req.Command)
	}
}

func failf(format string, args ...any) *Response {
	return &Response{OK: false, Error: fmt.Sprintf(format, args...)}
}

func (w *Worker) get(name string) (*matrix.MatrixBlock, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	m, ok := w.vars[name]
	if !ok {
		return nil, fmt.Errorf("fed: worker variable %q not found", name)
	}
	return m, nil
}

// exec runs a pushed-down operation on worker-local data. Only aggregates or
// requested model pieces leave the worker.
func (w *Worker) exec(req *Request) *Response {
	if len(req.Operands) == 0 {
		return failf("exec %s: no operands", req.Op)
	}
	x, err := w.get(req.Operands[0])
	if err != nil {
		return failf("%v", err)
	}
	switch req.Op {
	case "tsmm":
		res := matrix.TSMM(x, 0)
		return w.finish(req, res)
	case "xty":
		if len(req.Operands) < 2 {
			return failf("xty needs two operands")
		}
		y, err := w.get(req.Operands[1])
		if err != nil {
			return failf("%v", err)
		}
		res, err := matrix.Multiply(matrix.Transpose(x), y, 0)
		if err != nil {
			return failf("xty: %v", err)
		}
		return w.finish(req, res)
	case "matvec":
		v, err := FromWire(req.Matrix)
		if err != nil {
			return failf("matvec needs a broadcast vector: %v", err)
		}
		res, err := matrix.Multiply(x, v, 0)
		if err != nil {
			return failf("matvec: %v", err)
		}
		return w.finish(req, res)
	case "colSums":
		return w.finish(req, matrix.ColSums(x, 0))
	case "colSq":
		sq := matrix.ScalarOp(x, 2, matrix.OpPow, false, 0)
		return w.finish(req, matrix.ColSums(sq, 0))
	case "sum":
		return &Response{OK: true, Scalar: matrix.Sum(x, 0)}
	case "sumsq":
		return &Response{OK: true, Scalar: matrix.SumSq(x, 0)}
	case "rowcount":
		return &Response{OK: true, Scalar: float64(x.Rows()), Rows: int64(x.Rows()), Cols: int64(x.Cols())}
	case "scalarmult":
		res := matrix.ScalarOp(x, req.Scalar, matrix.OpMul, false, 0)
		return w.finish(req, res)
	default:
		return failf("unknown federated op %q", req.Op)
	}
}

// finish optionally stores the result under req.Output and returns it.
func (w *Worker) finish(req *Request, res *matrix.MatrixBlock) *Response {
	if req.Output != "" {
		w.PutLocal(req.Output, res)
	}
	return &Response{OK: true, Matrix: ToWire(res), Rows: int64(res.Rows()), Cols: int64(res.Cols())}
}
