// Package instructions is on the configuration path: kernel calls must plumb
// the context's resolved thread count, never a literal.
package instructions

import (
	"example.com/internal/dist"
	"example.com/internal/matrix"
)

type config struct{ threads int }

func (c config) Threads() int { return c.threads }

func Run(a, b []float64, cfg config) []float64 {
	matrix.Multiply(a, b, 4) // want "hard-coded threads=4 passed to matrix.Multiply"
	matrix.Multiply(a, b, 1) // want "hard-coded threads=1 passed to matrix.Multiply"
	return matrix.Multiply(a, b, cfg.Threads())
}

// A solve's factorisation is a threaded kernel too.
func RunSolve(a, b []float64, cfg config) ([]float64, error) {
	matrix.Solve(a, b, 2) // want "hard-coded threads=2 passed to matrix.Solve"
	return matrix.Solve(a, b, cfg.Threads())
}

func RunBlock(bl *matrix.Block, cfg config) float64 {
	_ = bl.Sum(8) // want "hard-coded threads=8 passed to bl.Sum"
	return bl.Sum(cfg.Threads())
}

// A blocked operator's pool width is a thread count like any other: 0 (one
// worker per CPU) ignores the configured parallelism.
func RunBlocked(a, b []float64, cfg config) []float64 {
	dist.Cellwise(a, b, 0) // want "hard-coded threads=0 passed to dist.Cellwise"
	return dist.Cellwise(a, b, cfg.Threads())
}

// no fire: variadic callees are exempt.
func RunTrace() {
	matrix.Trace(2, 1.0, 2.0)
}
