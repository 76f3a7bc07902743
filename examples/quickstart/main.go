// Quickstart: train a linear regression model with a declarative DML script,
// score it, and inspect training statistics — the minimal end-to-end use of
// the SystemDS-Go public API.
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
		log.Fatalf("script failed: %v", err)
	}
}

// script expresses the analysis declaratively in DML. The lm builtin
// dispatches between a closed-form solver and conjugate gradient; lmPredict
// and the error metrics are DML-bodied builtins as well. print writes to
// standard output.
const script = `
B = lm(X, y, reg=0.001)
yhat = lmPredict(X, B)
trainMSE = mse(yhat, y)
trainR2 = r2(yhat, y)
print("training finished: R2 = " + round(trainR2 * 10000) / 10000)
`

// run trains and scores the model and writes what it learned to w.
func run(w io.Writer) error {
	// 1. Create a session. Options control parallelism, reuse, backends.
	ctx := systemds.NewContext(systemds.WithParallelism(4))

	// 2. Prepare (or load) data. Here: synthetic regression data.
	X, y := systemds.SyntheticRegression(5000, 20, 1.0, 42)

	// 3. Run the script over the inputs, naming the outputs to collect.
	res, err := ctx.Execute(script, map[string]any{"X": X, "y": y}, "B", "trainMSE", "trainR2")
	if err != nil {
		return err
	}

	// 4. Consume the results as Go values.
	B, _ := res.Matrix("B")
	mse, _ := res.Float("trainMSE")
	r2, _ := res.Float("trainR2")
	fmt.Fprintf(w, "model: %d coefficients\n", B.Rows())
	fmt.Fprintf(w, "training MSE: %.6f\n", mse)
	fmt.Fprintf(w, "training R2:  %.4f\n", r2)
	return nil
}
