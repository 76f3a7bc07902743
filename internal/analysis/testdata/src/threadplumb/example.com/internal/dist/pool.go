// Package dist runs kernels inside its own worker pool: the literal 1 is the
// documented inner-pool contract and passes, any other literal still fires.
package dist

import "example.com/internal/matrix"

func Worker(a, b []float64) []float64 {
	return matrix.Multiply(a, b, 1)
}

func Oversubscribed(a, b []float64) []float64 {
	return matrix.Multiply(a, b, 4) // want "hard-coded threads=4 passed to matrix.Multiply"
}

// Cellwise is a blocked operator: its pool width is the caller's configured
// thread count.
func Cellwise(a, b []float64, threads int) []float64 {
	_ = threads
	return a
}
