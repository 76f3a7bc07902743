package main

import "os"

// Example runs the whole pipeline — ingest, encode, winsorize, cross
// validation, steplm, holdout evaluation — on 2000 generated rows.
func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// cross-validation mean squared error: 0.1146
	// features selected by steplm:         3
	// holdout R2:                          0.9563
	// holdout RMSE:                        0.3723
	// intermediates reused across lifecycle tasks: true
}
