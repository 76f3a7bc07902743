// Package baselines implements the baseline executors of the paper's
// evaluation (Figure 5): eager executors of the hyper-parameter optimization
// workload shaped like TensorFlow (TF), TensorFlow with a single graph and
// common subexpression elimination (TF-G), and Julia. The executors reproduce
// the baselines' redundancy behaviour (who materializes the transpose, who
// eliminates common subexpressions within a single computation, and the fact
// that none of them reuses intermediates across the k model trainings) so the
// figure's relative comparison can be regenerated without the original
// systems (see DESIGN.md, Substitutions).
package baselines

import (
	"fmt"

	"github.com/systemds/systemds-go/internal/matrix"
)

// System identifies a baseline execution strategy.
type System int

// Baseline systems.
const (
	// Naive mimics eager TensorFlow (TF in Figure 5): tf.matmul(
	// tf.matrix_transpose(X), X) materializes the transpose for every model
	// and recomputes every operation per model.
	Naive System = iota
	// GraphCSE mimics TensorFlow with tensor outputs (TF-G): a single graph
	// computes all k models, so the transpose and the Gram matrix are
	// common subexpressions evaluated once, but no reuse happens across
	// separate invocations.
	GraphCSE
	// Eager mimics Julia: fused (non-materializing) transpose-multiply per
	// model, no reuse across models.
	Eager
)

// String returns the display name used in the figures.
func (s System) String() string {
	switch s {
	case Naive:
		return "TF"
	case GraphCSE:
		return "TF-G"
	case Eager:
		return "Julia"
	default:
		return "?"
	}
}

// Result is the output of one hyper-parameter workload execution.
type Result struct {
	Models *matrix.MatrixBlock // one column per lambda
	Losses []float64
}

// RunHyperParameterWorkload trains one lmDS model per lambda on (x, y) using
// the given baseline strategy and returns the model matrix.
func RunHyperParameterWorkload(sys System, x, y *matrix.MatrixBlock, lambdas []float64, threads int) (*Result, error) {
	switch sys {
	case Naive:
		return runNaive(x, y, lambdas, threads)
	case GraphCSE:
		return runGraphCSE(x, y, lambdas, threads)
	case Eager:
		return runEager(x, y, lambdas, threads)
	default:
		return nil, fmt.Errorf("baselines: unknown system %d", sys)
	}
}

// runNaive recomputes the materialized transpose and both matrix products for
// every model (eager TF behaviour). Like TF 1.x, whose sparse-dense matrix
// multiply lacks a fused transpose call, the transpose is materialized as a
// dense tensor even for sparse inputs (Section 4.2).
func runNaive(x, y *matrix.MatrixBlock, lambdas []float64, threads int) (*Result, error) {
	models := matrix.NewDense(x.Cols(), len(lambdas))
	losses := make([]float64, len(lambdas))
	for i, lam := range lambdas {
		xt := matrix.Transpose(x).ToDense() // materialized (dense) per model
		gram, err := matrix.Multiply(xt, x, threads)
		if err != nil {
			return nil, err
		}
		xty, err := matrix.Multiply(xt, y, threads)
		if err != nil {
			return nil, err
		}
		beta, err := solveRidge(gram, xty, lam, threads)
		if err != nil {
			return nil, err
		}
		if err := storeModel(models, beta, i); err != nil {
			return nil, err
		}
		losses[i], err = trainingLoss(x, y, beta, threads)
		if err != nil {
			return nil, err
		}
	}
	return &Result{Models: models, Losses: losses}, nil
}

// runGraphCSE evaluates the materialized transpose once (the common
// subexpression a single graph can share), but — matching the paper's
// observation that none of the baselines eliminates the redundant matrix
// multiplications — still recomputes the Gram matrix and X^T y per model.
func runGraphCSE(x, y *matrix.MatrixBlock, lambdas []float64, threads int) (*Result, error) {
	xt := matrix.Transpose(x).ToDense() // still materialized, but only once
	models := matrix.NewDense(x.Cols(), len(lambdas))
	losses := make([]float64, len(lambdas))
	for i, lam := range lambdas {
		gram, err := matrix.Multiply(xt, x, threads)
		if err != nil {
			return nil, err
		}
		xty, err := matrix.Multiply(xt, y, threads)
		if err != nil {
			return nil, err
		}
		beta, err := solveRidge(gram, xty, lam, threads)
		if err != nil {
			return nil, err
		}
		if err := storeModel(models, beta, i); err != nil {
			return nil, err
		}
		losses[i], err = trainingLoss(x, y, beta, threads)
		if err != nil {
			return nil, err
		}
	}
	return &Result{Models: models, Losses: losses}, nil
}

// runEager uses the fused transpose-self multiply per model (no transpose
// materialization, as in Julia's X'X) but recomputes it for every model.
func runEager(x, y *matrix.MatrixBlock, lambdas []float64, threads int) (*Result, error) {
	models := matrix.NewDense(x.Cols(), len(lambdas))
	losses := make([]float64, len(lambdas))
	for i, lam := range lambdas {
		gram := matrix.TSMM(x, threads)
		xty, err := matrix.Multiply(matrix.Transpose(x), y, threads)
		if err != nil {
			return nil, err
		}
		beta, err := solveRidge(gram, xty, lam, threads)
		if err != nil {
			return nil, err
		}
		if err := storeModel(models, beta, i); err != nil {
			return nil, err
		}
		losses[i], err = trainingLoss(x, y, beta, threads)
		if err != nil {
			return nil, err
		}
	}
	return &Result{Models: models, Losses: losses}, nil
}

// solveRidge solves (gram + lambda*I) beta = xty.
func solveRidge(gram, xty *matrix.MatrixBlock, lambda float64, threads int) (*matrix.MatrixBlock, error) {
	a := gram.Copy()
	for i := 0; i < a.Rows(); i++ {
		a.Set(i, i, a.Get(i, i)+lambda)
	}
	return matrix.Solve(a, xty, threads)
}

func storeModel(models, beta *matrix.MatrixBlock, col int) error {
	updated, err := matrix.LeftIndex(models, beta, 0, beta.Rows(), col, col+1)
	if err != nil {
		return err
	}
	*models = *updated
	return nil
}

func trainingLoss(x, y, beta *matrix.MatrixBlock, threads int) (float64, error) {
	pred, err := matrix.Multiply(x, beta, threads)
	if err != nil {
		return 0, err
	}
	diff, err := matrix.CellwiseOp(pred, y, matrix.OpSub, threads)
	if err != nil {
		return 0, err
	}
	return matrix.SumSq(diff, threads) / float64(x.Rows()), nil
}
