// Lifecycle: an end-to-end data-science pipeline over raw heterogeneous data
// — the scenario the paper's introduction motivates. A CSV file with
// categorical, numeric and missing values is ingested as a frame, cleaned and
// feature-transformed (recode, dummy-coding, imputation, scaling), then a
// model is selected via cross validation and stepwise feature selection, and
// finally evaluated on held-out data. All steps run inside one declarative
// script, so the engine can optimize across lifecycle tasks.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	systemds "github.com/systemds/systemds-go"
)

func main() {
	dir, err := os.MkdirTemp("", "sysds-lifecycle")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	rawPath := filepath.Join(dir, "sensors.csv")
	if err := writeRawDataset(rawPath, 2000); err != nil {
		log.Fatal(err)
	}

	ctx := systemds.NewContext(systemds.WithParallelism(4), systemds.WithReuse(true))

	// Ingest the raw file as a frame (schema inference handles the mixed
	// column types), encode features, clean outliers, and train/evaluate.
	script := fmt.Sprintf(`
F = read(%q, data_type="frame", header=TRUE)
[X, M] = transformencode(target=F, spec="dummycode=site;impute=temperature:mean;scale=temperature,vibration,rpm")

# the last encoded column is the target (energy consumption)
nfeat = ncol(X) - 1
y = X[, ncol(X)]
X = X[, 1:nfeat]

# robust cleaning of the numeric features
X = winsorize(X, 0.02, 0.98)

# model selection: 5-fold cross validation over the full feature set
[cvErr, meanErr] = crossValLM(X, y, 5, 0.0001)

# feature selection via stepwise regression (Example 1 of the paper)
[B, S] = steplm(X, y, 0.0001, 0.001)
nsel = sum(S)

# final holdout evaluation
[Xtr, ytr, Xte, yte] = splitTrainTest(X, y, 0.8)
Bfinal = lmDS(Xtr, ytr, 0.0001)
yhat = lmPredict(Xte, Bfinal)
testR2 = r2(yhat, yte)
testRMSE = rmse(yhat, yte)
`, rawPath)
	res, err := ctx.Execute(script, nil, "meanErr", "nsel", "testR2", "testRMSE")
	if err != nil {
		log.Fatalf("pipeline failed: %v", err)
	}

	meanErr, _ := res.Float("meanErr")
	nsel, _ := res.Float("nsel")
	testR2, _ := res.Float("testR2")
	testRMSE, _ := res.Float("testRMSE")
	fmt.Printf("cross-validation mean squared error: %.4f\n", meanErr)
	fmt.Printf("features selected by steplm:         %.0f\n", nsel)
	fmt.Printf("holdout R2:                          %.4f\n", testR2)
	fmt.Printf("holdout RMSE:                        %.4f\n", testRMSE)
	stats := ctx.CacheStats()
	fmt.Printf("reuse across lifecycle tasks: %d cache hits\n", stats.Hits)
}

// writeRawDataset produces a messy raw CSV: a categorical site column,
// numeric sensor readings with missing values, and an energy target driven by
// the sensors.
func writeRawDataset(path string, rows int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rng := rand.New(rand.NewSource(7))
	sites := []string{"graz", "vienna", "linz"}
	fmt.Fprintln(f, "site,temperature,vibration,rpm,energy")
	for i := 0; i < rows; i++ {
		site := sites[rng.Intn(len(sites))]
		temp := 15 + 10*rng.Float64()
		vib := rng.Float64()
		rpm := 900 + 200*rng.Float64()
		energy := 0.5*temp + 3*vib + 0.01*rpm + rng.NormFloat64()*0.1
		tempField := fmt.Sprintf("%.3f", temp)
		if rng.Float64() < 0.05 {
			tempField = "" // missing sensor reading
		}
		fmt.Fprintf(f, "%s,%s,%.3f,%.1f,%.4f\n", site, tempField, vib, rpm, energy)
	}
	return nil
}
