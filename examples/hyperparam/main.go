// Hyperparam: the paper's evaluation workload (Section 4.1) — train k
// regression models with different regularization values over the same data —
// run once without and once with lineage-based reuse of intermediates
// (Section 3.1 / Figure 5(c)). The dominant computation t(X)%*%X and
// t(X)%*%y does not depend on the regularization value, so the reuse cache
// eliminates it for all but the first model.
package main

import (
	"fmt"
	"log"
	"time"

	systemds "github.com/systemds/systemds-go"
)

func main() {
	const (
		rows = 20000
		cols = 100
		k    = 30
	)
	X, y := systemds.SyntheticRegression(rows, cols, 1.0, 7)
	script := fmt.Sprintf(`
lambdas = seq(1, %d, 1) / 1000
[B, losses] = gridSearchLM(X, y, lambdas)
bestLoss = min(losses)
`, k)

	run := func(label string, opts ...systemds.Option) time.Duration {
		ctx := systemds.NewContext(opts...)
		start := time.Now()
		res, err := ctx.Execute(script, map[string]any{"X": X, "y": y}, "B", "bestLoss")
		if err != nil {
			log.Fatalf("%s failed: %v", label, err)
		}
		elapsed := time.Since(start)
		B, _ := res.Matrix("B")
		best, _ := res.Float("bestLoss")
		stats := ctx.CacheStats()
		fmt.Printf("%-16s %d models (%dx%d each), best training loss %.4f, %v\n",
			label, B.Cols(), B.Rows(), 1, best, elapsed.Round(time.Millisecond))
		if stats.Hits > 0 {
			fmt.Printf("%-16s reuse cache: %d hits, %d puts\n", "", stats.Hits, stats.Puts)
		}
		return elapsed
	}

	fmt.Printf("hyper-parameter optimization: %d models on a %dx%d dense matrix\n\n", k, rows, cols)
	base := run("SysDS", systemds.WithParallelism(8))
	withReuse := run("SysDS + reuse", systemds.WithParallelism(8), systemds.WithReuse(true))
	fmt.Printf("\nspeedup from reuse of intermediates: %.2fx\n", base.Seconds()/withReuse.Seconds())
}
