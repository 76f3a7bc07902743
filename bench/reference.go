package main

// Reference checks. Everything here is plain Go loops over row-major slices:
// no engine kernel is called, so a kernel bug cannot hide behind its own
// output. The replays run once in set-up; the per-op checks compare against
// them (or evaluate a residual) outside the timed region.

import (
	"fmt"
	"math"
)

// relTol is the tolerance for comparing an engine output with a replay that
// sums in a different order (tiled, threaded or compressed kernels).
const relTol = 1e-8

// dense is a row-major matrix for the reference code.
type dense struct {
	rows, cols int
	v          []float64
}

func (m dense) row(i int) []float64 { return m.v[i*m.cols : (i+1)*m.cols] }

// matVec returns X·w.
func matVec(x dense, w []float64) []float64 {
	out := make([]float64, x.rows)
	for i := 0; i < x.rows; i++ {
		s := 0.0
		for j, xv := range x.row(i) {
			s += xv * w[j]
		}
		out[i] = s
	}
	return out
}

// tMatVec returns Xᵀ·r.
func tMatVec(x dense, r []float64) []float64 {
	out := make([]float64, x.cols)
	for i := 0; i < x.rows; i++ {
		ri := r[i]
		for j, xv := range x.row(i) {
			out[j] += xv * ri
		}
	}
	return out
}

func maxAbs(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m || math.IsNaN(a) {
			m = a
		}
	}
	return m
}

// checkNormalEq verifies ‖(XᵀX+λI)B − Xᵀy‖∞ ≤ tol·‖Xᵀy‖∞ without forming
// XᵀX: the residual is Xᵀ(XB − y) + λB.
func checkNormalEq(x dense, y, b []float64, lambda float64) error {
	if len(b) != x.cols {
		return fmt.Errorf("B has %d coefficients, want %d", len(b), x.cols)
	}
	r := matVec(x, b)
	for i := range r {
		r[i] -= y[i]
	}
	g := tMatVec(x, r)
	for j := range g {
		g[j] += lambda * b[j]
	}
	scale := maxAbs(tMatVec(x, y))
	// the engine solves a system whose condition number is at most
	// ‖XᵀX‖/λ, so the attainable residual is far below 1e-6 relative
	if res := maxAbs(g); !(res <= 1e-6*scale) {
		return fmt.Errorf("normal-equation residual %.3g exceeds 1e-6 of ‖Xᵀy‖∞ = %.3g", res, scale)
	}
	return nil
}

// squaredLoss returns Σ(y − Xβ)².
func squaredLoss(x dense, y, b []float64) float64 {
	s := 0.0
	for i, p := range matVec(x, b) {
		d := y[i] - p
		s += d * d
	}
	return s
}

// replayGD replays the gradient-descent loop of the loop.* workloads:
// w ← w − lr·Xᵀ(Xw − y), epochs times, from w = 0.
func replayGD(x dense, y []float64, epochs int, lr float64) []float64 {
	w := make([]float64, x.cols)
	for e := 0; e < epochs; e++ {
		q := matVec(x, w)
		for i := range q {
			q[i] -= y[i]
		}
		g := tMatVec(x, q)
		for j := range w {
			w[j] -= lr * g[j]
		}
	}
	return w
}

// replayL2SVM replays the l2svm builtin (squared hinge loss, fixed iteration
// count, step decaying by 0.99 per iteration).
func replayL2SVM(x dense, y []float64, reg, step float64, iters int) []float64 {
	w := make([]float64, x.cols)
	n := float64(x.rows)
	for it := 0; it < iters; it++ {
		xw := matVec(x, w)
		hinge := make([]float64, x.rows)
		for i := range xw {
			if margin := 1 - y[i]*xw[i]; margin > 0 {
				hinge[i] = y[i] * margin
			}
		}
		g := tMatVec(x, hinge)
		for j := range w {
			w[j] -= step * (reg*w[j] - g[j]/n)
		}
		step *= 0.99
	}
	return w
}

// naiveScore replays the scoring script: yhat = ((X − mu) / sd)·B.
func naiveScore(x dense, mu, sd, b []float64) []float64 {
	out := make([]float64, x.rows)
	for i := 0; i < x.rows; i++ {
		s := 0.0
		for j, xv := range x.row(i) {
			s += (xv - mu[j]) / sd[j] * b[j]
		}
		out[i] = s
	}
	return out
}

// checkClose verifies got ≈ want element-wise, relative to ‖want‖∞.
func checkClose(what string, got, want []float64, tol float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s has %d values, want %d", what, len(got), len(want))
	}
	scale := maxAbs(want)
	if scale == 0 {
		scale = 1
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); !(d <= tol*scale) {
			return fmt.Errorf("%s[%d] = %.17g, reference %.17g (|diff| %.3g > %.3g)", what, i, got[i], want[i], d, tol*scale)
		}
	}
	return nil
}

// checkBand verifies lo ≤ v ≤ hi (and rejects NaN).
func checkBand(what string, v, lo, hi float64) error {
	if !(v >= lo && v <= hi) {
		return fmt.Errorf("%s = %g outside the planted band [%g, %g]", what, v, lo, hi)
	}
	return nil
}
