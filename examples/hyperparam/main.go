// Hyperparam: the paper's evaluation workload (Section 4.1) — train k
// regression models with different regularization values over the same data —
// with lineage-based reuse at both of its levels (Section 3.1 / Figure 5(c)).
// Within one gridSearchLM call, t(X)%*%X and t(X)%*%y do not depend on the
// regularization value, so the reuse cache computes them for the first model
// only. A second identical call is pure and answered as a whole: its two
// outputs are two hits, and its body does not run.
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

const script = `
[B, losses] = gridSearchLM(X, y, lambdas)
bestLoss = min(losses)
`

// run trains the models with reuse off, then twice with reuse on in one
// session, and reports the models, the cache traffic of each call and whether
// the outputs are bitwise equal.
func run(w io.Writer) error {
	const rows, cols, k = 500, 10, 5
	x, y := systemds.SyntheticRegression(rows, cols, 1.0, 7)
	lambdas := make([]float64, k)
	for i := range lambdas {
		lambdas[i] = float64(i+1) / 1000
	}
	in := map[string]any{"X": x, "y": y, "lambdas": systemds.NewMatrix(k, 1, lambdas)}
	fmt.Fprintf(w, "hyper-parameter optimization: %d models on a %dx%d dense matrix\n", k, rows, cols)

	off, err := systemds.NewContext().Execute(script, in, "B", "bestLoss")
	if err != nil {
		return err
	}
	ref, _ := off.Matrix("B")
	best, _ := off.Float("bestLoss")
	fmt.Fprintf(w, "reuse off:   %d models, best training loss %.4f\n", ref.Cols(), best)

	ctx := systemds.NewContext(systemds.WithReuse(true))
	for _, label := range []string{"first call", "second call"} {
		before := ctx.CacheStats()
		res, err := ctx.Execute(script, in, "B", "bestLoss")
		if err != nil {
			return err
		}
		after := ctx.CacheStats()
		b, _ := res.Matrix("B")
		fmt.Fprintf(w, "%s: %d hits, %d misses, B identical to reuse off: %v\n", label,
			after.Hits-before.Hits, after.Misses-before.Misses, b.Equals(ref, 0))
	}
	return nil
}
