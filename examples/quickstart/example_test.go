package main

import "os"

// Example trains the model on 5000 synthetic rows and prints what the script
// and the Go side see of it.
func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// training finished: R2 = 0.9998
	// model: 20 coefficients
	// training MSE: 0.000098
	// training R2:  0.9998
}
