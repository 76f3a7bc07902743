package core

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	sdsio "github.com/systemds/systemds-go/internal/io"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
)

// persistEngine builds an engine with cross-run lineage persistence rooted at
// dir (each NewEngine simulates one process of the lifecycle).
func persistEngine(dir string) *Engine {
	cfg := runtime.DefaultConfig()
	cfg.Parallelism = 4
	cfg.PersistentLineageDir = dir
	cfg.CompressionEnabled = true
	return NewEngine(cfg)
}

// gridSearchScript is the compressed lm grid-search acceptance scenario: the
// loop re-reads X, so the compiler plants a compression site, and every
// lambda recomputes t(X)%*%X / t(X)%*%y — the tsmm/matmult work the lineage
// store amortizes across runs.
const gridSearchScript = `
[B, losses] = gridSearchLM(X, y, lambdas)
`

func gridSearchInputs() map[string]any {
	x, y := matrix.SyntheticRegression(2000, 20, 1.0, 17)
	lambdas := matrix.FromRows([][]float64{{0.001}, {0.01}, {0.1}, {1}, {10}})
	return map[string]any{"X": x, "y": y, "lambdas": lambdas}
}

// TestPersistentLineageWarmRunReuse is the tentpole acceptance test: a warm
// re-run of the grid-search scenario in a *fresh engine* (fresh in-memory
// cache, same persistent directory — a second process in the data-science
// lifecycle) serves tsmm/matmult intermediates from the persistent store and
// produces bitwise-identical outputs.
func TestPersistentLineageWarmRunReuse(t *testing.T) {
	dir := t.TempDir()
	inputs := gridSearchInputs()

	cold := persistEngine(dir)
	coldRes, coldStats, err := cold.Execute(gridSearchScript, inputs, []string{"B", "losses"})
	if err != nil {
		t.Fatal(err)
	}
	if coldStats.LineageStore.Puts == 0 {
		t.Fatalf("cold run persisted nothing: %+v", coldStats.LineageStore)
	}
	if coldStats.CacheStats.StoreHits != 0 {
		t.Errorf("cold run cannot hit the store: %+v", coldStats.CacheStats)
	}

	warm := persistEngine(dir)
	warmRes, warmStats, err := warm.Execute(gridSearchScript, inputs, []string{"B", "losses"})
	if err != nil {
		t.Fatal(err)
	}
	if warmStats.CacheStats.StoreHits == 0 {
		t.Fatalf("warm run reused nothing from the persistent store: cache=%+v store=%+v",
			warmStats.CacheStats, warmStats.LineageStore)
	}
	for _, name := range []string{"B", "losses"} {
		if !asMatrix(t, coldRes[name]).Equals(asMatrix(t, warmRes[name]), 0) {
			t.Errorf("warm %s not bitwise-equal to cold run", name)
		}
	}

	// reuse on vs off: the persisted path must be invisible in the results
	plain := newTestEngine()
	plainRes := execScript(t, plain, gridSearchScript, inputs, []string{"B", "losses"})
	for _, name := range []string{"B", "losses"} {
		if !asMatrix(t, plainRes[name]).Equals(asMatrix(t, warmRes[name]), 0) {
			t.Errorf("%s with reuse differs bitwise from no-reuse execution", name)
		}
	}
}

// TestWarmRunCountsNoPuts: a put is an intermediate the run computed, so a
// warm grid search served wholly from the store (its two outputs, probed
// before the pure call's body runs) reports no put, while the cold run puts
// every intermediate it misses.
func TestWarmRunCountsNoPuts(t *testing.T) {
	dir := t.TempDir()
	inputs := gridSearchInputs()
	_, cold, err := persistEngine(dir).Execute(gridSearchScript, inputs, []string{"B", "losses"})
	if err != nil {
		t.Fatal(err)
	}
	if cs := cold.CacheStats; cs.Misses != 52 || cs.Puts != 52 || cs.StorePuts != 52 {
		t.Errorf("cold run: %+v, want 52 misses, puts and store puts", cs)
	}
	_, warm, err := persistEngine(dir).Execute(gridSearchScript, inputs, []string{"B", "losses"})
	if err != nil {
		t.Fatal(err)
	}
	if cs := warm.CacheStats; cs.Hits != 2 || cs.StoreHits != 2 || cs.Misses != 0 || cs.Puts != 0 || cs.StorePuts != 0 {
		t.Errorf("warm run: %+v, want 2 hits from the store, no miss and no put", cs)
	}
}

// TestPersistentLineageInvalidationOnInputChange: rebinding an input name to
// different data changes the content-fingerprinted lineage leaves, so a warm
// run must not serve the previous run's intermediates.
func TestPersistentLineageInvalidationOnInputChange(t *testing.T) {
	dir := t.TempDir()
	script := `S = t(X) %*% X
s = sum(S)`
	x1 := matrix.RandUniform(300, 12, -1, 1, 1.0, 21)

	cold := persistEngine(dir)
	if _, stats, err := cold.Execute(script, map[string]any{"X": x1}, []string{"s"}); err != nil {
		t.Fatal(err)
	} else if stats.LineageStore.Puts == 0 {
		t.Fatal("cold run persisted nothing")
	}

	// same name, different content: one cell changed
	x2 := x1.Copy()
	x2.Set(7, 3, x2.Get(7, 3)+1)
	warm := persistEngine(dir)
	res, stats, err := warm.Execute(script, map[string]any{"X": x2}, []string{"s"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheStats.StoreHits != 0 {
		t.Errorf("changed input must not hit the store: %+v", stats.CacheStats)
	}
	ref := execScript(t, newTestEngine(), script, map[string]any{"X": x2}, []string{"s"})
	if res["s"].(float64) != ref["s"].(float64) {
		t.Errorf("invalidated run returned a stale result: %v vs %v", res["s"], ref["s"])
	}

	// unchanged content under the same name still hits
	warm2 := persistEngine(dir)
	if _, stats, err := warm2.Execute(script, map[string]any{"X": x1}, []string{"s"}); err != nil {
		t.Fatal(err)
	} else if stats.CacheStats.StoreHits == 0 {
		t.Errorf("identical input must hit the store: %+v", stats.CacheStats)
	}
}

// TestPersistentLineageCorruptSpillRecovery: damaged spill files are dropped
// and recomputed, never surfaced as errors or wrong results.
func TestPersistentLineageCorruptSpillRecovery(t *testing.T) {
	dir := t.TempDir()
	script := `S = t(X) %*% X
s = sum(S)`
	x := matrix.RandUniform(300, 12, -1, 1, 1.0, 23)
	inputs := map[string]any{"X": x}

	cold := persistEngine(dir)
	coldRes, _, err := cold.Execute(script, inputs, []string{"s"})
	if err != nil {
		t.Fatal(err)
	}
	// truncate every spill file behind the store's back
	files, err := filepath.Glob(filepath.Join(dir, "lin_*.bin"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no spill files written (err=%v)", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(f, data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}

	warm := persistEngine(dir)
	warmRes, stats, err := warm.Execute(script, inputs, []string{"s"})
	if err != nil {
		t.Fatalf("corrupt store must not fail execution: %v", err)
	}
	if warmRes["s"].(float64) != coldRes["s"].(float64) {
		t.Errorf("recomputed result differs: %v vs %v", warmRes["s"], coldRes["s"])
	}
	if stats.CacheStats.StoreHits != 0 {
		t.Errorf("corrupt entries must miss: %+v", stats.CacheStats)
	}
	if stats.LineageStore.CorruptDropped == 0 {
		t.Errorf("corruption not detected/cleaned: %+v", stats.LineageStore)
	}
}

// TestPersistentLineageFlippedCellMisses: one flipped bit inside a cell of
// every stored matrix is a payload the SDSB decoder accepts — any float bits
// are a valid cell — so only the checksum, verified on the stream before the
// value is returned, can catch it. The warm run must miss those entries, drop
// and count each file, and return the cold run's bits.
func TestPersistentLineageFlippedCellMisses(t *testing.T) {
	dir := t.TempDir()
	script := `S = t(X) %*% X
s = sum(S)`
	inputs := map[string]any{"X": matrix.RandUniform(300, 12, -1, 1, 1.0, 29)}
	outs := []string{"S", "s"}

	coldRes, _, err := persistEngine(dir).Execute(script, inputs, outs)
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "lin_*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	const (
		storeHeader = 44          // bufferpool's fixed header before the key
		firstCell   = 1 + 40 + 24 // payload kind, SDSB header, first block header
	)
	flipped := 0
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		payload := data[storeHeader+int(binary.LittleEndian.Uint32(data[24:])):]
		if payload[0] != 'M' || len(payload) < firstCell+8 {
			continue
		}
		payload[firstCell] ^= 0x01 // lowest mantissa bit of cell (0, 0)
		if _, err := sdsio.ReadMatrixBinaryFrom(bytes.NewReader(payload[1:]), "flipped"); err != nil {
			t.Fatalf("precondition: the decoder must accept a flipped cell: %v", err)
		}
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
		flipped++
	}
	if flipped == 0 {
		t.Fatalf("no matrix entry among %d store files", len(files))
	}

	warmRes, stats, err := persistEngine(dir).Execute(script, inputs, outs)
	if err != nil {
		t.Fatalf("a corrupt store must not fail execution: %v", err)
	}
	if got := stats.LineageStore.CorruptDropped; got != int64(flipped) {
		t.Errorf("corrupt-dropped = %d, want %d (one per flipped file)", got, flipped)
	}
	if !asMatrix(t, warmRes["S"]).Equals(asMatrix(t, coldRes["S"]), 0) {
		t.Error("warm S not bitwise-equal to the cold run")
	}
	if math.Float64bits(warmRes["s"].(float64)) != math.Float64bits(coldRes["s"].(float64)) {
		t.Errorf("warm s = %v, cold s = %v", warmRes["s"], coldRes["s"])
	}
}

// TestPersistentLineagePlanUnchangedStoreOnly: the planner is a function of
// the DAG and the configuration alone, so a persistent directory changes
// neither the compiled plan nor the executed one, and it holds nothing but
// lineage-store entries. The shape is a distributed matmult of two operands
// over the broadcast budget, planned as a grid join.
func TestPersistentLineagePlanUnchangedStoreOnly(t *testing.T) {
	mk := func(dir string) *Engine {
		cfg := runtime.DefaultConfig()
		cfg.PersistentLineageDir = dir
		cfg.DistEnabled = true
		cfg.OperatorMemBudget = 16 << 10
		cfg.DistBlocksize = 128
		return NewEngine(cfg)
	}
	// the small CP Gram matrix gives the store an entry to persist
	script := `C = A %*% B
S = t(X) %*% X`
	inputs := map[string]any{
		"A": matrix.RandUniform(256, 768, -1, 1, 1.0, 31),
		"B": matrix.RandUniform(768, 128, -1, 1, 1.0, 32),
		"X": matrix.RandUniform(20, 10, -1, 1, 1.0, 33),
	}
	run := func(e *Engine) (string, []runtime.PlanRecord) {
		t.Helper()
		explain, err := e.ExplainPlan(script, inputs)
		if err != nil {
			t.Fatal(err)
		}
		_, stats, err := e.Execute(script, inputs, []string{"C"})
		if err != nil {
			t.Fatal(err)
		}
		return explain, stats.PlanStats
	}

	wantExplain, wantPlans := run(mk(""))
	if !strings.Contains(wantExplain, "plan=DIST:gj") {
		t.Fatalf("precondition: byte ranking must pick gj:\n%s", wantExplain)
	}
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		explain, plans := run(mk(dir))
		if explain != wantExplain {
			t.Errorf("run %d: plan with persistence differs:\n%s\nwant:\n%s", i, explain, wantExplain)
		}
		if !reflect.DeepEqual(plans, wantPlans) {
			t.Errorf("run %d: executed plans with persistence = %+v, want %+v", i, plans, wantPlans)
		}
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("persistent runs stored nothing")
	}
	for _, de := range entries {
		if ok, _ := filepath.Match("lin_*.bin", de.Name()); !ok {
			t.Errorf("persistent directory holds %q besides the lineage store", de.Name())
		}
	}
}

// TestPersistentLineageImpliesReuse: the option alone must activate lineage
// tracing and reuse without further configuration.
func TestPersistentLineageImpliesReuse(t *testing.T) {
	cfg := runtime.DefaultConfig()
	cfg.LineageEnabled = false
	cfg.ReuseEnabled = false
	cfg.PersistentLineageDir = t.TempDir()
	e := NewEngine(cfg)
	if !cfg.LineageEnabled || !cfg.ReuseEnabled {
		t.Fatal("persistent lineage must imply tracing and reuse")
	}
	x := matrix.RandUniform(200, 10, -1, 1, 1.0, 41)
	_, stats, err := e.Execute(`S = t(X) %*% X
s = sum(S)`, map[string]any{"X": x}, []string{"s"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.LineageStore.Puts == 0 {
		t.Errorf("nothing persisted: %+v", stats.LineageStore)
	}
}
