package fed

import (
	"fmt"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/types"
)

// Range describes the index range of the federated matrix covered by one
// worker: rows [RowStart, RowEnd) and columns [ColStart, ColEnd) map to the
// worker-local variable VarName at Address.
type Range struct {
	RowStart, RowEnd int64
	ColStart, ColEnd int64
	Address          string
	VarName          string
}

// FederatedMatrix is the master-side metadata object of Section 2.4: it holds
// references to (potentially remote) sub-matrices covering disjoint index
// ranges; uncovered areas are zero. Federated instructions process it by
// pushing computation to the owning sites.
type FederatedMatrix struct {
	Rows, Cols int64
	Ranges     []Range
	clients    map[string]*Client
}

// NewFederatedMatrix builds a federated matrix from ranges and opens
// connections to the referenced workers.
func NewFederatedMatrix(rows, cols int64, ranges []Range) (*FederatedMatrix, error) {
	fm := &FederatedMatrix{Rows: rows, Cols: cols, Ranges: ranges, clients: map[string]*Client{}}
	for _, r := range ranges {
		if r.RowStart < 0 || r.RowEnd > rows || r.ColStart < 0 || r.ColEnd > cols || r.RowStart >= r.RowEnd || r.ColStart >= r.ColEnd {
			return nil, fmt.Errorf("fed: invalid range %+v for %dx%d federated matrix", r, rows, cols)
		}
		if _, ok := fm.clients[r.Address]; !ok {
			c, err := Dial(r.Address)
			if err != nil {
				fm.Close()
				return nil, err
			}
			fm.clients[r.Address] = c
		}
	}
	return fm, nil
}

// RowPartitioned reports whether the federation is a pure row partitioning
// covering all columns (the common case for federated learning over
// horizontally split data).
func (fm *FederatedMatrix) RowPartitioned() bool {
	for _, r := range fm.Ranges {
		if r.ColStart != 0 || r.ColEnd != fm.Cols {
			return false
		}
	}
	return len(fm.Ranges) > 0
}

// DataCharacteristics returns the size metadata of the federated matrix.
func (fm *FederatedMatrix) DataCharacteristics() types.DataCharacteristics {
	return types.DataCharacteristics{Rows: fm.Rows, Cols: fm.Cols, Blocksize: types.DefaultBlocksize, NNZ: -1}
}

// Close closes all worker connections.
func (fm *FederatedMatrix) Close() {
	for _, c := range fm.clients {
		_ = c.Close()
	}
	fm.clients = map[string]*Client{}
}

func (fm *FederatedMatrix) client(addr string) (*Client, error) {
	c, ok := fm.clients[addr]
	if !ok {
		var err error
		c, err = Dial(addr)
		if err != nil {
			return nil, err
		}
		fm.clients[addr] = c
	}
	return c, nil
}

// TSMM computes t(X) %*% X for a row-partitioned federated matrix by pushing
// the tsmm to every site and summing the partial Gram matrices at the master
// (only d x d aggregates cross site boundaries).
func (fm *FederatedMatrix) TSMM() (*matrix.MatrixBlock, error) {
	if !fm.RowPartitioned() {
		return nil, fmt.Errorf("fed: tsmm requires a row-partitioned federated matrix")
	}
	var acc *matrix.MatrixBlock
	for _, r := range fm.Ranges {
		c, err := fm.client(r.Address)
		if err != nil {
			return nil, err
		}
		resp, err := c.Call(&Request{Command: "exec", Op: "tsmm", Operands: []string{r.VarName}})
		if err != nil {
			return nil, err
		}
		part, err := FromWire(resp.Matrix)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = part
		} else {
			acc, err = matrix.CellwiseOp(acc, part, matrix.OpAdd, 1)
			if err != nil {
				return nil, err
			}
		}
	}
	if acc == nil {
		return nil, fmt.Errorf("fed: federated matrix has no ranges")
	}
	return acc, nil
}

// XtY computes t(X) %*% y where y is another federated matrix partitioned by
// the same row ranges (e.g. federated labels co-located with the features).
func (fm *FederatedMatrix) XtY(y *FederatedMatrix) (*matrix.MatrixBlock, error) {
	if !fm.RowPartitioned() || !y.RowPartitioned() {
		return nil, fmt.Errorf("fed: xty requires row-partitioned federated matrices")
	}
	if len(fm.Ranges) != len(y.Ranges) {
		return nil, fmt.Errorf("fed: xty requires aligned federations (%d vs %d ranges)", len(fm.Ranges), len(y.Ranges))
	}
	var acc *matrix.MatrixBlock
	for i, r := range fm.Ranges {
		ry := y.Ranges[i]
		if r.Address != ry.Address || r.RowStart != ry.RowStart || r.RowEnd != ry.RowEnd {
			return nil, fmt.Errorf("fed: xty range %d not co-located/aligned", i)
		}
		c, err := fm.client(r.Address)
		if err != nil {
			return nil, err
		}
		resp, err := c.Call(&Request{Command: "exec", Op: "xty", Operands: []string{r.VarName, ry.VarName}})
		if err != nil {
			return nil, err
		}
		part, err := FromWire(resp.Matrix)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = part
		} else {
			acc, err = matrix.CellwiseOp(acc, part, matrix.OpAdd, 1)
			if err != nil {
				return nil, err
			}
		}
	}
	return acc, nil
}

// XtLocalY computes t(X) %*% y for a row-partitioned federated X and a local
// master-side y: the matching row slice of y is shipped to every site, each
// site computes t(X_i) %*% y_i (via its transposed matvec), and the master
// sums the d x 1 partial results.
func (fm *FederatedMatrix) XtLocalY(y *matrix.MatrixBlock) (*matrix.MatrixBlock, error) {
	if !fm.RowPartitioned() {
		return nil, fmt.Errorf("fed: xty requires a row-partitioned federated matrix")
	}
	if int64(y.Rows()) != fm.Rows {
		return nil, fmt.Errorf("fed: xty rhs has %d rows, federated matrix has %d", y.Rows(), fm.Rows)
	}
	var acc *matrix.MatrixBlock
	for i, r := range fm.Ranges {
		c, err := fm.client(r.Address)
		if err != nil {
			return nil, err
		}
		ySlice, err := matrix.Slice(y, int(r.RowStart), int(r.RowEnd), 0, y.Cols())
		if err != nil {
			return nil, err
		}
		tmpName := fmt.Sprintf("__fed_y_slice_%d", i)
		if _, err := c.Call(&Request{Command: "put", Name: tmpName, Matrix: ToWire(ySlice)}); err != nil {
			return nil, err
		}
		resp, err := c.Call(&Request{Command: "exec", Op: "xty", Operands: []string{r.VarName, tmpName}})
		if err != nil {
			return nil, err
		}
		_, _ = c.Call(&Request{Command: "remove", Name: tmpName})
		part, err := FromWire(resp.Matrix)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = part
		} else {
			acc, err = matrix.CellwiseOp(acc, part, matrix.OpAdd, 1)
			if err != nil {
				return nil, err
			}
		}
	}
	if acc == nil {
		return nil, fmt.Errorf("fed: federated matrix has no ranges")
	}
	return acc, nil
}

// MatVec computes X %*% v for a row-partitioned federated matrix by
// broadcasting v, executing the multiply per site and stitching the result
// rows back together in range order.
func (fm *FederatedMatrix) MatVec(v *matrix.MatrixBlock) (*matrix.MatrixBlock, error) {
	if !fm.RowPartitioned() {
		return nil, fmt.Errorf("fed: matvec requires a row-partitioned federated matrix")
	}
	out := matrix.NewDense(int(fm.Rows), v.Cols())
	for _, r := range fm.Ranges {
		c, err := fm.client(r.Address)
		if err != nil {
			return nil, err
		}
		resp, err := c.Call(&Request{Command: "exec", Op: "matvec", Operands: []string{r.VarName}, Matrix: ToWire(v)})
		if err != nil {
			return nil, err
		}
		part, err := FromWire(resp.Matrix)
		if err != nil {
			return nil, err
		}
		out, err = matrix.LeftIndex(out, part, int(r.RowStart), int(r.RowEnd), 0, v.Cols())
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ColSums computes the per-column sums across all sites.
func (fm *FederatedMatrix) ColSums() (*matrix.MatrixBlock, error) {
	var acc *matrix.MatrixBlock
	for _, r := range fm.Ranges {
		c, err := fm.client(r.Address)
		if err != nil {
			return nil, err
		}
		resp, err := c.Call(&Request{Command: "exec", Op: "colSums", Operands: []string{r.VarName}})
		if err != nil {
			return nil, err
		}
		part, err := FromWire(resp.Matrix)
		if err != nil {
			return nil, err
		}
		if acc == nil {
			acc = part
		} else {
			acc, err = matrix.CellwiseOp(acc, part, matrix.OpAdd, 1)
			if err != nil {
				return nil, err
			}
		}
	}
	if acc == nil {
		return nil, fmt.Errorf("fed: federated matrix has no ranges")
	}
	return acc, nil
}

// Sum computes the global sum across all sites.
func (fm *FederatedMatrix) Sum() (float64, error) {
	total := 0.0
	for _, r := range fm.Ranges {
		c, err := fm.client(r.Address)
		if err != nil {
			return 0, err
		}
		resp, err := c.Call(&Request{Command: "exec", Op: "sum", Operands: []string{r.VarName}})
		if err != nil {
			return 0, err
		}
		total += resp.Scalar
	}
	return total, nil
}
