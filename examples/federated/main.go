// Federated: train a linear regression model over data that never leaves its
// owning sites (Section 3.3 of the paper). Two federated workers are started
// in-process, each holding a horizontal partition of the features and labels;
// the coordinating script computes the normal equations with federated
// instructions (push-down tsmm and t(X)%*%y), so only d x d aggregates cross
// site boundaries, and solves for the model locally.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	systemds "github.com/systemds/systemds-go"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run starts two workers on loopback, trains over their partitions, checks
// the model against centralized training and writes the outcome to w.
func run(w io.Writer) error {
	const (
		rowsPerSite = 4000
		cols        = 25
	)
	// Site-local data (in production each site runs `fedworker -data ...`).
	x1, y1 := systemds.SyntheticRegression(rowsPerSite, cols, 1.0, 101)
	x2, y2 := systemds.SyntheticRegression(rowsPerSite, cols, 1.0, 202)

	site1, err := systemds.StartFederatedWorker("127.0.0.1:0", map[string]*systemds.Matrix{"X": x1, "y": y1})
	if err != nil {
		return err
	}
	defer site1.Shutdown()
	site2, err := systemds.StartFederatedWorker("127.0.0.1:0", map[string]*systemds.Matrix{"X": x2, "y": y2})
	if err != nil {
		return err
	}
	defer site2.Shutdown()

	totalRows := int64(2 * rowsPerSite)
	Xfed, err := systemds.Federated(totalRows, cols, []systemds.FederatedRange{
		{RowStart: 0, RowEnd: rowsPerSite, ColStart: 0, ColEnd: cols, Address: site1.Addr, VarName: "X"},
		{RowStart: rowsPerSite, RowEnd: totalRows, ColStart: 0, ColEnd: cols, Address: site2.Addr, VarName: "X"},
	})
	if err != nil {
		return err
	}
	defer Xfed.Close()
	yFed, err := systemds.Federated(totalRows, 1, []systemds.FederatedRange{
		{RowStart: 0, RowEnd: rowsPerSite, ColStart: 0, ColEnd: 1, Address: site1.Addr, VarName: "y"},
		{RowStart: rowsPerSite, RowEnd: totalRows, ColStart: 0, ColEnd: 1, Address: site2.Addr, VarName: "y"},
	})
	if err != nil {
		return err
	}
	defer yFed.Close()

	// The same lmDS normal-equations script runs unchanged on federated
	// inputs: tsmm and t(X)%*%y become federated instructions.
	ctx := systemds.NewContext(systemds.WithParallelism(4))
	script := `
A = t(X) %*% X + diag(matrix(0.001, ncol(X), 1))
b = t(X) %*% y
B = solve(A, b)
rowsSeen = nrow(X)
`
	res, err := ctx.Execute(script, map[string]any{"X": Xfed, "y": yFed}, "B", "rowsSeen")
	if err != nil {
		return fmt.Errorf("federated training failed: %w", err)
	}
	B, _ := res.Matrix("B")
	rowsSeen, _ := res.Float("rowsSeen")
	fmt.Fprintf(w, "trained federated model with %d coefficients over %.0f rows\n", B.Rows(), rowsSeen)

	// Verify against centralized training (only possible here because the
	// example owns both partitions).
	ctx2 := systemds.NewContext()
	res2, err := ctx2.Execute(`
A = t(X) %*% X + diag(matrix(0.001, ncol(X), 1))
b = t(X) %*% y
B = solve(A, b)
`, map[string]any{"X": stack(x1, x2), "y": stack(y1, y2)}, "B")
	if err != nil {
		return err
	}
	Bc, _ := res2.Matrix("B")
	maxDiff := 0.0
	for i := 0; i < B.Rows(); i++ {
		d := B.Get(i, 0) - Bc.Get(i, 0)
		if d < 0 {
			d = -d
		}
		if d > maxDiff {
			maxDiff = d
		}
	}
	fmt.Fprintf(w, "federated and centralized coefficients agree to 1e-9: %v\n", maxDiff < 1e-9)
	return nil
}

func stack(a, b *systemds.Matrix) *systemds.Matrix {
	rows := make([][]float64, 0, a.Rows()+b.Rows())
	for i := 0; i < a.Rows(); i++ {
		row := make([]float64, a.Cols())
		for j := range row {
			row[j] = a.Get(i, j)
		}
		rows = append(rows, row)
	}
	for i := 0; i < b.Rows(); i++ {
		row := make([]float64, b.Cols())
		for j := range row {
			row[j] = b.Get(i, j)
		}
		rows = append(rows, row)
	}
	return systemds.MatrixFromRows(rows)
}
