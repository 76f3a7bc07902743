package main

import "os"

// Example runs two federated workers in-process on loopback ports, trains
// over their partitions and compares the model with centralized training.
func Example() {
	if err := run(os.Stdout); err != nil {
		panic(err)
	}
	// Output:
	// trained federated model with 25 coefficients over 8000 rows
	// federated and centralized coefficients agree to 1e-9: true
}
