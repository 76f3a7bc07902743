// Package matrix declares kernel entry points with `threads` parameters.
// matrix itself is not on the configuration path, so call sites here are not
// checked — the suites below call in from instructions and dist.
package matrix

func Multiply(a, b []float64, threads int) []float64 {
	_ = threads
	return a
}

// Solve factors a and solves against b on threads workers.
func Solve(a, b []float64, threads int) ([]float64, error) {
	_ = threads
	return b, nil
}

type Block struct{}

func (bl *Block) Sum(threads int) float64 {
	_ = threads
	return 0
}

// Variadic helpers are skipped by the analyzer even if a parameter is named
// threads (argument-to-parameter mapping is ambiguous).
func Trace(threads int, vals ...float64) {}
