package systemds_test

import (
	"regexp"
	"strings"
	"testing"

	systemds "github.com/systemds/systemds-go"
)

// explainLine returns the EXPLAIN line of the first operator matching
// pattern, or fails.
func explainLine(t *testing.T, explain, pattern string) string {
	t.Helper()
	line := regexp.MustCompile(`(?m)^.*` + pattern + `.*$`).FindString(explain)
	if line == "" {
		t.Fatalf("no operator matches %q in:\n%s", pattern, explain)
	}
	return line
}

// TestOmittedIndexRangeSizesTheWholeDimension: X[, 1:7] spans all of X's
// rows, so Y %*% t(Y) is sized 2000 x 2000 (32 MB) and planned on the
// blocked backend, which runs it as a broadcast-left multiply; X[1:30, ] is
// 30 x 30.
func TestOmittedIndexRangeSizesTheWholeDimension(t *testing.T) {
	opts := []systemds.Option{systemds.WithDistributedBackend(true), systemds.WithOperatorMemBudget(200000)}
	inputs := map[string]any{"X": systemds.RandMatrix(2000, 30, 1.0, 3)}
	const script = `
Y = X[, 1:7]
Z = Y %*% t(Y)
W = X[1:30, ]
`
	explain, err := systemds.NewContext(opts...).ExplainPlan(script, inputs)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`RightIndex rightIndex \[1,\d+,\d+,\d+,\d+\] \[2000x7,`, `RightIndex rightIndex \[1,\d+,\d+,\d+,\d+\] \[30x30,`} {
		explainLine(t, explain, want)
	}
	if line := explainLine(t, explain, `MatMult ba\+\*`); !strings.Contains(line, "[2000x2000,") || !strings.Contains(line, "plan=DIST:bl") {
		t.Errorf("the product is not sized 2000x2000 and planned DIST:bl:\n%s", line)
	}
	ctx := systemds.NewContext(opts...)
	res, err := ctx.Execute(script, inputs, "Z")
	if err != nil {
		t.Fatal(err)
	}
	if z := res["Z"].(*systemds.Matrix); z.Rows() != 2000 || z.Cols() != 2000 {
		t.Fatalf("Z is %dx%d", z.Rows(), z.Cols())
	}
	found := false
	for _, pr := range ctx.LastRunStats().PlanStats {
		found = found || pr.Op+"|"+pr.Plan == "ba+*|bl"
	}
	if !found {
		t.Errorf("no ba+*|bl plan record in %+v", ctx.LastRunStats().PlanStats)
	}
}

// TestRevAndDiagPlanCP: the reorg rows without a blocked kernel plan CP over
// an input above the budget, and t, which has one, plans DIST.
func TestRevAndDiagPlanCP(t *testing.T) {
	ctx := systemds.NewContext(systemds.WithDistributedBackend(true), systemds.WithOperatorMemBudget(20000))
	explain, err := ctx.ExplainPlan(`
R = rev(X)
D = diag(X[, 1])
T = t(X)
`, map[string]any{"X": systemds.RandMatrix(2000, 30, 1.0, 3)})
	if err != nil {
		t.Fatal(err)
	}
	for pattern, plan := range map[string]string{`Reorg rev `: "plan=CP ", `Reorg diag `: "plan=CP ", `Reorg t `: "plan=DIST "} {
		if line := explainLine(t, explain, pattern); !strings.Contains(line, plan) {
			t.Errorf("want %s:\n%s", plan, line)
		}
	}
}
