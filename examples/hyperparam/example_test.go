package main

import "os"

// Example runs the grid search with reuse off and twice with reuse on. In the
// first call with reuse on, each lambda after the first reuses the Gram
// matrix and t(X)%*%y. The second call is pure and identical: the two hits
// of its outputs B and losses, and a third for min(losses), whose input is
// traced as the same function-level item on the hit as on the miss.
func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// hyper-parameter optimization: 5 models on a 500x10 dense matrix
	// reuse off:   5 models, best training loss 0.0491
	// first call: 8 hits, 53 misses, B identical to reuse off: true
	// second call: 3 hits, 0 misses, B identical to reuse off: true
}
