package compiler

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/systemds/systemds-go/internal/lineage"
	"github.com/systemds/systemds-go/internal/runtime"
)

// writeLifecycleCSV writes the raw dataset of examples/lifecycle: a
// categorical site, three sensors (temperature 5% missing) and the energy
// target, from the example's seed.
func writeLifecycleCSV(path string, rows int) error {
	rng := rand.New(rand.NewSource(7))
	sites := []string{"graz", "vienna", "linz"}
	var sb strings.Builder
	sb.WriteString("site,temperature,vibration,rpm,energy\n")
	for i := 0; i < rows; i++ {
		site := sites[rng.Intn(len(sites))]
		temp := 15 + 10*rng.Float64()
		vib := rng.Float64()
		rpm := 900 + 200*rng.Float64()
		energy := 0.5*temp + 3*vib + 0.01*rpm + rng.NormFloat64()*0.1
		tempField := fmt.Sprintf("%.3f", temp)
		if rng.Float64() < 0.05 {
			tempField = ""
		}
		fmt.Fprintf(&sb, "%s,%s,%.3f,%.1f,%.4f\n", site, tempField, vib, rpm, energy)
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

// TestLifecyclePlansOncePerPlanVisibleSize: the examples/lifecycle pipeline
// (encode, winsorize, crossValLM, steplm, holdout) at one thread with reuse
// on re-plans a block only when a size the planner can see changed: 31 plans
// and 9 static answers in 102 calls. steplm and crossValLM slice feature
// columns whose non-zero counts differ although every one of them is dense;
// the recompile memo keyed by the exact nnz rebuilt the block for each, 55
// plans (and the same 9 static answers in 102 calls).
func TestLifecyclePlansOncePerPlanVisibleSize(t *testing.T) {
	dir := t.TempDir()
	csv := filepath.Join(dir, "sensors.csv")
	if err := writeLifecycleCSV(csv, 2000); err != nil {
		t.Fatal(err)
	}
	script := fmt.Sprintf(`
F = read(%q, data_type="frame", header=TRUE)
[X, M] = transformencode(target=F, spec="dummycode=site;impute=temperature:mean;scale=temperature,vibration,rpm")
nfeat = ncol(X) - 1
y = X[, ncol(X)]
X = X[, 1:nfeat]
X = winsorize(X, 0.02, 0.98)
[cvErr, meanErr] = crossValLM(X, y, 5, 0.0001)
[B, S] = steplm(X, y, 0.0001, 0.001)
nsel = sum(S)
[Xtr, ytr, Xte, yte] = splitTrainTest(X, y, 0.8)
Bfinal = lmDS(Xtr, ytr, 0.0001)
yhat = lmPredict(Xte, Bfinal)
testR2 = r2(yhat, yte)
`, csv)
	cfg := runtime.DefaultConfig()
	cfg.Parallelism = 1
	cfg.ReuseEnabled, cfg.LineageEnabled = true, true
	cfg.TempDir = dir
	prog, err := newCompiler(cfg).Compile(script, nil)
	if err != nil {
		t.Fatal(err)
	}
	var calls, plans, static int
	countRecompiles(prog.Blocks, &calls, &plans, &static)
	for _, fn := range prog.Functions {
		countRecompiles(fn.Body, &calls, &plans, &static)
	}
	ctx := runtime.NewContext(cfg)
	ctx.Prog = prog
	ctx.Cache = lineage.NewCache(cfg.CacheBudget)
	defer ctx.ReleasePool()
	if err := prog.Execute(ctx); err != nil {
		t.Fatal(err)
	}
	if nsel, err := ctx.GetScalar("nsel"); err != nil || nsel.Float64() != 3 {
		t.Errorf("steplm selected %v features (%v), want 3", nsel, err)
	}
	if calls != 102 || plans != 31 || static != 9 {
		t.Errorf("lifecycle: %d plans and %d static answers in %d calls, want 31 and 9 in 102", plans, static, calls)
	}
}
