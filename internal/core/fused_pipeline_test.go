package core

import (
	"math"
	goruntime "runtime"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
)

// fusedEngine builds an engine with fusion toggled.
func fusedEngine(fusion bool) *Engine {
	cfg := runtime.DefaultConfig()
	cfg.FusionDisabled = !fusion
	return NewEngine(cfg)
}

func relErr(a, b float64) float64 {
	d := math.Abs(a - b)
	return d / math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// TestFusedPipelineAcceptance is the acceptance test of the fusion subsystem:
// a DML script containing two row chains and cellwise-aggregate pipelines
// must execute the fused instructions (visible through the core.Stats fused
// counters) and produce the bits of the unfused run, whose products run as
// xty.
func TestFusedPipelineAcceptance(t *testing.T) {
	x := matrix.RandUniform(300, 40, -1, 1, 1.0, 11)
	y := matrix.RandUniform(300, 40, -1, 1, 1.0, 12)
	v := matrix.RandUniform(40, 1, -1, 1, 1.0, 13)
	v2 := matrix.RandUniform(40, 1, -1, 1, 1.0, 15)
	w := matrix.RandUniform(300, 1, 0, 1, 1.0, 14)
	// g and h share t(X) after CSE — legal to fuse across (the fused kernel
	// reads X directly) — while the compute-bearing X %*% v intermediates are
	// distinct per chain
	script := `s = sum(X * Y)
q = sum((X - Y)^2)
g = t(X) %*% (X %*% v)
h = t(X) %*% (w * (X %*% v2))
r = rowSums(X * X)`
	inputs := map[string]any{"X": x, "Y": y, "v": v, "v2": v2, "w": w}
	outputs := []string{"s", "q", "g", "h", "r"}

	fused, fstats, err := fusedEngine(true).Execute(script, inputs, outputs)
	if err != nil {
		t.Fatalf("fused run failed: %v", err)
	}
	unfused, ustats, err := fusedEngine(false).Execute(script, inputs, outputs)
	if err != nil {
		t.Fatalf("unfused run failed: %v", err)
	}

	// the fused instructions actually fired
	if fstats.FusedStats.MMChainOps != 2 {
		t.Errorf("mmchain ops = %d, want 2 (the row chains q and w*q)", fstats.FusedStats.MMChainOps)
	}
	if fstats.FusedStats.FusedAggOps != 3 {
		t.Errorf("fused agg ops = %d, want 3 (s, q, r)", fstats.FusedStats.FusedAggOps)
	}
	// the unfused run used none
	if ustats.FusedStats.MMChainOps != 0 || ustats.FusedStats.FusedAggOps != 0 {
		t.Errorf("unfused run executed fused instructions: %+v", ustats.FusedStats)
	}

	// the same bits either way
	for _, name := range []string{"s", "q"} {
		fv := fused[name].(float64)
		uv := unfused[name].(float64)
		if math.Float64bits(fv) != math.Float64bits(uv) {
			t.Errorf("%s: fused %v vs unfused %v", name, fv, uv)
		}
	}
	for _, name := range []string{"g", "h", "r"} {
		requireMatricesBitwise(t, name, fused[name].(*matrix.MatrixBlock), unfused[name].(*matrix.MatrixBlock))
	}
}

// TestFusedPipelineSparseInput drives the sparse-driver kernel through the
// full engine: a sparse X with an annihilating pipeline.
func TestFusedPipelineSparseInput(t *testing.T) {
	x := matrix.RandUniform(400, 50, -1, 1, 0.08, 21)
	x.ToSparse()
	y := matrix.RandUniform(400, 50, -1, 1, 1.0, 22)
	script := `s = sum(X * Y)`
	fused, fstats, err := fusedEngine(true).Execute(script, map[string]any{"X": x, "Y": y}, []string{"s"})
	if err != nil {
		t.Fatal(err)
	}
	unfused, _, err := fusedEngine(false).Execute(script, map[string]any{"X": x, "Y": y}, []string{"s"})
	if err != nil {
		t.Fatal(err)
	}
	if fstats.FusedStats.FusedAggOps != 1 {
		t.Errorf("fused agg ops = %d, want 1", fstats.FusedStats.FusedAggOps)
	}
	if relErr(fused["s"].(float64), unfused["s"].(float64)) > 1e-9 {
		t.Errorf("sparse fused s = %v, unfused %v", fused["s"], unfused["s"])
	}
}

// TestFusionMultiConsumerEndToEnd: when the cellwise intermediate is also a
// script output, fusion must not fire and the intermediate must be intact.
func TestFusionMultiConsumerEndToEnd(t *testing.T) {
	x := matrix.RandUniform(60, 20, -1, 1, 1.0, 31)
	y := matrix.RandUniform(60, 20, -1, 1, 1.0, 32)
	script := `P = X * Y
s = sum(P)`
	res, stats, err := fusedEngine(true).Execute(script, map[string]any{"X": x, "Y": y}, []string{"P", "s"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FusedStats.FusedAggOps != 0 {
		t.Errorf("fused agg ops = %d, want 0 (P is multi-consumer)", stats.FusedStats.FusedAggOps)
	}
	p := res["P"].(*matrix.MatrixBlock)
	var want float64
	for r := 0; r < p.Rows(); r++ {
		for c := 0; c < p.Cols(); c++ {
			want += p.Get(r, c)
		}
	}
	if relErr(res["s"].(float64), want) > 1e-9 {
		t.Errorf("s = %v, sum(P) = %v", res["s"], want)
	}
}

// TestFusionInsideLoop exercises fusion through control flow and dynamic
// recompilation: the lmDS-style iteration accumulates fused mmchain hits per
// iteration.
func TestFusionInsideLoop(t *testing.T) {
	x := matrix.RandUniform(200, 30, -1, 1, 1.0, 41)
	v := matrix.RandUniform(30, 1, -1, 1, 1.0, 42)
	script := `acc = 0
for (i in 1:3) {
  g = t(X) %*% (X %*% v)
  acc = acc + sum(g)
}`
	_, stats, err := fusedEngine(true).Execute(script, map[string]any{"X": x, "v": v}, []string{"acc"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FusedStats.MMChainOps != 3 {
		t.Errorf("mmchain ops = %d, want 3 (one per iteration)", stats.FusedStats.MMChainOps)
	}
}

// TestFusedCellChainIsOneInstruction: Xs = (X - mu) / sd executes as one
// instruction under the root operator's opcode with fusion on and as two with
// it off, bit for bit the same; an interior with a second consumer (a named
// variable) does not fuse; and a prepared script — compiled before any input
// type is known — fuses from its first call.
func TestFusedCellChainIsOneInstruction(t *testing.T) {
	inputs := map[string]any{
		"X":  matrix.RandUniform(64, 100, -3, 3, 1.0, 31),
		"mu": matrix.RandUniform(1, 100, -1, 1, 1.0, 32),
		"sd": matrix.RandUniform(1, 100, 0.5, 2, 1.0, 33),
	}
	const chain = "Xs = (X - mu) / sd"
	fused, fstats, err := tracedFusionEngine(true, nil).Execute(chain, inputs, []string{"Xs"})
	if err != nil {
		t.Fatal(err)
	}
	unfused, ustats, err := tracedFusionEngine(false, nil).Execute(chain, inputs, []string{"Xs"})
	if err != nil {
		t.Fatal(err)
	}
	if c := instrCounts(fstats); c["/"] != 1 || c["-"] != 0 || fstats.FusedStats.FusedCellOps != 1 {
		t.Errorf("fusion on: %d '/' and %d '-' instructions, %d fused, want 1, 0 and 1", c["/"], c["-"], fstats.FusedStats.FusedCellOps)
	}
	if c := instrCounts(ustats); c["/"] != 1 || c["-"] != 1 || ustats.FusedStats.FusedCellOps != 0 {
		t.Errorf("fusion off: %d '/' and %d '-' instructions, %d fused, want 1, 1 and 0", c["/"], c["-"], ustats.FusedStats.FusedCellOps)
	}
	if !fused["Xs"].(*matrix.MatrixBlock).Equals(unfused["Xs"].(*matrix.MatrixBlock), 0) {
		t.Error("the fused chain must equal the two-operator plan bit for bit")
	}

	_, stats, err := tracedFusionEngine(true, nil).Execute("D = X - mu\nXs = D / sd", inputs, []string{"Xs", "D"})
	if err != nil {
		t.Fatal(err)
	}
	if c := instrCounts(stats); c["-"] != 1 || stats.FusedStats.FusedCellOps != 0 {
		t.Errorf("a two-consumer interior fused: %d '-' instructions, %d fused", c["-"], stats.FusedStats.FusedCellOps)
	}

	eng := tracedFusionEngine(true, nil)
	prepared, err := eng.Prepare(chain, []string{"Xs"})
	if err != nil {
		t.Fatal(err)
	}
	for call := 0; call < 2; call++ {
		res, err := prepared.Execute(inputs)
		if err != nil {
			t.Fatal(err)
		}
		if n := eng.LastRunStats().FusedStats.FusedCellOps; n != 1 {
			t.Errorf("prepared call %d ran %d fused chains, want 1", call, n)
		}
		if !res["Xs"].(*matrix.MatrixBlock).Equals(unfused["Xs"].(*matrix.MatrixBlock), 0) {
			t.Errorf("prepared call %d differs from the two-operator plan", call)
		}
	}
}

// TestFusedCellChainOverSparseDriverStaysSparse: an annihilating chain over a
// large sparse matrix visits stored cells only — its allocation is a function
// of the non-zero count, not of the 72 MB a dense 3000 x 3000 block takes —
// and the result is the sparse block the two-operator plan produces.
func TestFusedCellChainOverSparseDriverStaysSparse(t *testing.T) {
	s := matrix.RandUniform(3000, 3000, -1, 1, 0.001, 37)
	s.ToSparse()
	inputs := map[string]any{"S": s}
	const chain = "R = abs(S * 2)"
	unfused, _, err := fusedEngine(false).Execute(chain, inputs, []string{"R"})
	if err != nil {
		t.Fatal(err)
	}
	eng := fusedEngine(true)
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	fused, stats, err := eng.Execute(chain, inputs, []string{"R"})
	goruntime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FusedStats.FusedCellOps != 1 {
		t.Fatalf("fused chains = %d, want 1", stats.FusedStats.FusedCellOps)
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > 8 {
		t.Errorf("the fused chain allocated %.1f MB over a matrix with %d non-zeros", mb, s.NNZ())
	}
	r := fused["R"].(*matrix.MatrixBlock)
	if !r.IsSparse() || r.NNZ() != s.NNZ() || !r.Equals(unfused["R"].(*matrix.MatrixBlock), 0) {
		t.Errorf("fused result: sparse %v nnz %d, want the unfused plan's sparse block with nnz %d", r.IsSparse(), r.NNZ(), s.NNZ())
	}
}

// TestFusedCellChainOverCompressedDriver: a chain whose only matrix leaf is
// compressed runs over the dictionaries — one compressed operator, nothing
// decompressed, a compressed result — and agrees with the unfused plan.
func TestFusedCellChainOverCompressedDriver(t *testing.T) {
	inputs := map[string]any{"X": lowCardFeatures(4000, 12, 35)}
	const script = `Xc = compress(X)
Y = (Xc * 2 + 1) / 4
s = sum(Y)`
	run := func(fusion bool) (map[string]any, *Stats) {
		eng := tracedFusionEngine(fusion, func(c *runtime.Config) { c.CompressionEnabled = true })
		res, stats, err := eng.Execute(script, inputs, []string{"s"})
		if err != nil {
			t.Fatal(err)
		}
		return res, stats
	}
	fused, fstats := run(true)
	unfused, ustats := run(false)
	if cs := fstats.CompressStats; cs.Compressions != 1 || cs.Decompressions != 0 {
		t.Fatalf("fusion on: %d compressions, %d decompressions, want 1 and 0", cs.Compressions, cs.Decompressions)
	}
	if c := instrCounts(fstats); c["/"] != 1 || c["*"]+c["+"] != 0 || fstats.FusedStats.FusedCellOps != 1 {
		t.Errorf("fusion on: instructions %v, %d fused, want one '/' over the dictionaries", c, fstats.FusedStats.FusedCellOps)
	}
	// three dictionary updates and the aggregate unfused; one and the aggregate fused
	if got, want := fstats.CompressStats.CompressedOps, ustats.CompressStats.CompressedOps-2; got != want {
		t.Errorf("compressed ops = %d, want %d (two fewer than the unfused plan's %d)", got, want, want+2)
	}
	if f, u := fused["s"].(float64), unfused["s"].(float64); f != u {
		t.Errorf("sum over the fused compressed chain = %v, unfused %v", f, u)
	}
}

// TestScalarOpOverCompressedKeepsZeroSemantics: the dictionary-only update
// rewrites every distinct value, zero included (the encodings are closed under
// value maps), so X / 0 over a compressed X has a NaN for every zero of X —
// the same as over the dense X.
func TestScalarOpOverCompressedKeepsZeroSemantics(t *testing.T) {
	x := lowCardFeatures(4000, 12, 36)
	zeros := float64(int64(x.Rows()*x.Cols()) - x.NNZ())
	for _, script := range []string{
		"Q = X / 0\nn = sum(Q != Q)",
		"Xc = compress(X)\nQ = Xc / 0\nn = sum(Q != Q)",
	} {
		eng := tracedFusionEngine(true, func(c *runtime.Config) { c.CompressionEnabled = true })
		res, _, err := eng.Execute(script, map[string]any{"X": x}, []string{"n"})
		if err != nil {
			t.Fatal(err)
		}
		if n := res["n"].(float64); n != zeros || zeros == 0 {
			t.Errorf("%q: %v NaN cells, want %v", script, n, zeros)
		}
	}
}
