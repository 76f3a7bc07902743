package core

import (
	"io"
	"os"
	"strings"
	"testing"

	"github.com/systemds/systemds-go/internal/fed"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/obs"
	"github.com/systemds/systemds-go/internal/runtime"
)

// tracedFusionEngine builds a traced engine with fusion toggled, so a test
// can read which opcodes actually executed off Stats.OpMetrics.
func tracedFusionEngine(fusion bool, tune func(*runtime.Config)) *Engine {
	cfg := runtime.DefaultConfig()
	cfg.TraceEnabled = true
	cfg.FusionDisabled = !fusion
	if tune != nil {
		tune(cfg)
	}
	return NewEngine(cfg)
}

// instrCounts returns how often each opcode executed in a traced run.
func instrCounts(stats *Stats) map[string]int64 {
	counts := map[string]int64{}
	for _, m := range stats.OpMetrics {
		if m.Cat == obs.CatInstr {
			counts[m.Name] += m.Count
		}
	}
	return counts
}

func requireMatricesClose(t *testing.T, what string, got, want *matrix.MatrixBlock) {
	t.Helper()
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		t.Fatalf("%s: shape %dx%d vs %dx%d", what, got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for r := 0; r < want.Rows(); r++ {
		for c := 0; c < want.Cols(); c++ {
			if relErr(got.Get(r, c), want.Get(r, c)) > 1e-9 {
				t.Fatalf("%s: cell (%d,%d) fused %v vs unfused %v", what, r, c, got.Get(r, c), want.Get(r, c))
			}
		}
	}
}

// TestXtYScriptsMatchUnfused runs the scripts whose inner loop is
// t(X) %*% y — l2svm, logRegGD, lmDS and the scripts/lm_trace.dml loop — with
// fusion on and with WithFusion(false) as the oracle: results agree to 1e-9,
// the fused run executes no transpose at all, and the unfused run executes
// one per multiply.
func TestXtYScriptsMatchUnfused(t *testing.T) {
	x := matrix.RandUniform(500, 24, -1, 1, 1.0, 51)
	beta := matrix.RandUniform(24, 1, -1, 1, 1.0, 52)
	xb, err := matrix.Multiply(x, beta, 1)
	if err != nil {
		t.Fatal(err)
	}
	sign, prob := matrix.NewDense(500, 1), matrix.NewDense(500, 1)
	for r := 0; r < 500; r++ {
		if xb.Get(r, 0) >= 0 {
			sign.Set(r, 0, 1)
			prob.Set(r, 0, 1)
		} else {
			sign.Set(r, 0, -1)
		}
	}
	traceLoop, err := os.ReadFile("../../scripts/lm_trace.dml")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name, script string
		inputs       map[string]any
		output       string
		xtyOps       int64
	}{
		{"l2svm", "w = l2svm(X, y, 0.001, 0.1, 6)", map[string]any{"X": x, "y": sign}, "w", 6},
		{"logRegGD", "w = logRegGD(X, y, 0.001, 0.5, 6)", map[string]any{"X": x, "y": prob}, "w", 6},
		{"lmDS", "w = lmDS(X, y, 0.001)", map[string]any{"X": x, "y": xb}, "w", 1},
		{"lm_trace loop", string(traceLoop), nil, "w", 10},
	}
	for _, tc := range cases {
		fused, fstats, err := tracedFusionEngine(true, nil).Execute(tc.script, tc.inputs, []string{tc.output})
		if err != nil {
			t.Fatalf("%s: fused run failed: %v", tc.name, err)
		}
		fcounts := instrCounts(fstats)
		unfused, ustats, err := tracedFusionEngine(false, nil).Execute(tc.script, tc.inputs, []string{tc.output})
		if err != nil {
			t.Fatalf("%s: unfused run failed: %v", tc.name, err)
		}
		ucounts := instrCounts(ustats)
		requireMatricesClose(t, tc.name, fused[tc.output].(*matrix.MatrixBlock), unfused[tc.output].(*matrix.MatrixBlock))
		if fcounts["r'"] != 0 {
			t.Errorf("%s: fused run executed %d transposes, want 0", tc.name, fcounts["r'"])
		}
		if fcounts["mmchain"] != tc.xtyOps || fstats.FusedStats.MMChainOps != tc.xtyOps {
			t.Errorf("%s: fused run executed %d mmchain instructions (stats %d), want %d",
				tc.name, fcounts["mmchain"], fstats.FusedStats.MMChainOps, tc.xtyOps)
		}
		if ucounts["r'"] != tc.xtyOps || ucounts["mmchain"] != 0 {
			t.Errorf("%s: unfused oracle executed r'=%d mmchain=%d, want %d and 0",
				tc.name, ucounts["r'"], ucounts["mmchain"], tc.xtyOps)
		}
	}
}

// TestExplainShowsXtY: with known input sizes the fused plan prints the xty
// variant and no transpose; the unfused plan keeps the transpose.
func TestExplainShowsXtY(t *testing.T) {
	x := matrix.RandUniform(300, 20, -1, 1, 1.0, 53)
	y := matrix.RandUniform(300, 1, -1, 1, 1.0, 54)
	inputs := map[string]any{"X": x, "y": y}
	fused, err := fusedEngine(true).ExplainPlan("g = t(X) %*% y", inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fused, "MMChain xty") || strings.Contains(fused, "Reorg t") {
		t.Errorf("fused plan should show MMChain xty and no transpose:\n%s", fused)
	}
	unfused, err := fusedEngine(false).ExplainPlan("g = t(X) %*% y", inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(unfused, "Reorg t") || strings.Contains(unfused, "MMChain") {
		t.Errorf("unfused plan should keep the transpose:\n%s", unfused)
	}
}

// TestXtYOnCompressedLoop: with compression on, the loop's t(X) %*% r runs
// the vector-matrix kernel on the column groups straight from the fused
// instruction — no transpose view is created and nothing decompresses.
func TestXtYOnCompressedLoop(t *testing.T) {
	x := lowCardFeatures(2000, 200, 21)
	y := matrix.RandUniform(2000, 1, -1, 1, 1.0, 22)
	inputs := map[string]any{"X": x, "y": y}
	comp, cstats, err := tracedFusionEngine(true, func(c *runtime.Config) { c.CompressionEnabled = true }).
		Execute(lmLoopScript, inputs, []string{"w"})
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := tracedFusionEngine(false, nil).Execute(lmLoopScript, inputs, []string{"w"})
	if err != nil {
		t.Fatal(err)
	}
	requireMatricesClose(t, "compressed loop", comp["w"].(*matrix.MatrixBlock), plain["w"].(*matrix.MatrixBlock))
	cs := cstats.CompressStats
	if cs.Compressions < 1 || cs.Decompressions != 0 {
		t.Errorf("compressions = %d, decompressions = %d, want >= 1 and 0", cs.Compressions, cs.Decompressions)
	}
	// X %*% w and t(X) %*% r per epoch, both on the compressed representation
	if cs.CompressedOps != 20 {
		t.Errorf("compressed ops = %d, want 20 (MV and vM per epoch, no transpose view)", cs.CompressedOps)
	}
	counts := instrCounts(cstats)
	if counts["r'"] != 0 || counts["mmchain"] != 10 {
		t.Errorf("executed r'=%d mmchain=%d, want 0 and 10", counts["r'"], counts["mmchain"])
	}
	cvm := 0
	for _, pr := range cstats.PlanStats {
		if pr.Op == "mmchain" && strings.HasPrefix(pr.Plan, "cvm:") {
			cvm++
		}
	}
	if cvm != 10 {
		t.Errorf("cvm plan records under mmchain = %d, want 10", cvm)
	}
}

// TestXtYOnFederatedX: t(X) %*% y over a federated X pushes the product to
// the sites (local y shipped in slices, federated y multiplied in place);
// no worker is ever asked for its data.
func TestXtYOnFederatedX(t *testing.T) {
	x := matrix.RandUniform(200, 6, -1, 1, 1.0, 61)
	y := matrix.RandUniform(200, 1, -1, 1, 1.0, 62)
	half := 100
	ranges := func(cols int64, name string, addrs [2]string) []fed.Range {
		return []fed.Range{
			{RowStart: 0, RowEnd: int64(half), ColStart: 0, ColEnd: cols, Address: addrs[0], VarName: name},
			{RowStart: int64(half), RowEnd: 200, ColStart: 0, ColEnd: cols, Address: addrs[1], VarName: name},
		}
	}
	var addrs [2]string
	for s := 0; s < 2; s++ {
		xs, _ := matrix.Slice(x, s*half, (s+1)*half, 0, 6)
		ys, _ := matrix.Slice(y, s*half, (s+1)*half, 0, 1)
		w := fed.NewWorker(nil)
		w.PutLocal("X", xs)
		w.PutLocal("y", ys)
		addr, err := w.Serve("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer w.Shutdown()
		addrs[s] = addr
	}
	fx, err := fed.NewFederatedMatrix(200, 6, ranges(6, "X", addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer fx.Close()
	fy, err := fed.NewFederatedMatrix(200, 1, ranges(1, "y", addrs))
	if err != nil {
		t.Fatal(err)
	}
	defer fy.Close()
	want, err := matrix.Multiply(matrix.Transpose(x), y, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, yIn := range map[string]any{"local y": y, "federated y": fy} {
		eng := tracedFusionEngine(true, nil)
		res, stats, err := eng.Execute("g = t(X) %*% y", map[string]any{"X": fx, "y": yIn}, []string{"g"})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireMatricesClose(t, name, res["g"].(*matrix.MatrixBlock), want)
		counts := instrCounts(stats)
		if counts["r'"] != 0 || counts["mmchain"] != 1 {
			t.Errorf("%s: executed r'=%d mmchain=%d, want 0 and 1", name, counts["r'"], counts["mmchain"])
		}
		workerCalls := 0
		for _, r := range eng.TraceRecords() {
			if r.Cat != obs.CatFed || !strings.HasPrefix(r.Name, "worker:") {
				continue
			}
			workerCalls++
			if strings.HasPrefix(r.Name, "worker:get") {
				t.Errorf("%s: worker data was collected (%s)", name, r.Name)
			}
		}
		if workerCalls == 0 {
			t.Errorf("%s: no worker-side span recorded; the push-down did not run", name)
		}
	}
}

// TestXtYGatedOffUnderDist: when the planner sends the multiply to the blocked
// backend (operator budget below the operand size), fusion must not fire — the
// plan is exactly the unfused plan and the run uses the blocked operators.
func TestXtYGatedOffUnderDist(t *testing.T) {
	x := matrix.RandUniform(4000, 200, 0, 1, 1.0, 71)
	y := matrix.RandUniform(4000, 1, -1, 1, 1.0, 72)
	inputs := map[string]any{"X": x, "y": y}
	dist := func(c *runtime.Config) {
		c.DistEnabled = true
		c.OperatorMemBudget = 2 << 20
	}
	fusedPlan, err := tracedFusionEngine(true, dist).ExplainPlan("g = t(X) %*% y", inputs)
	if err != nil {
		t.Fatal(err)
	}
	unfusedPlan, err := tracedFusionEngine(false, dist).ExplainPlan("g = t(X) %*% y", inputs)
	if err != nil {
		t.Fatal(err)
	}
	if fusedPlan != unfusedPlan {
		t.Errorf("dist-bound plan changed under fusion:\n--- fused\n%s--- unfused\n%s", fusedPlan, unfusedPlan)
	}
	fres, fstats, err := tracedFusionEngine(true, dist).Execute(lmLoopScript, inputs, []string{"w"})
	if err != nil {
		t.Fatal(err)
	}
	ures, ustats, err := tracedFusionEngine(false, dist).Execute(lmLoopScript, inputs, []string{"w"})
	if err != nil {
		t.Fatal(err)
	}
	if fstats.FusedStats.MMChainOps != 0 {
		t.Errorf("mmchain ops = %d under dist, want 0", fstats.FusedStats.MMChainOps)
	}
	if fstats.DistStats != ustats.DistStats || fstats.DistStats.BlockedOps == 0 {
		t.Errorf("dist stats differ: fused %+v vs unfused %+v", fstats.DistStats, ustats.DistStats)
	}
	if !fres["w"].(*matrix.MatrixBlock).Equals(ures["w"].(*matrix.MatrixBlock), 0) {
		t.Error("identical plans must produce bitwise-identical results")
	}
}

// TestPartialReuseOverXtY: the two compensation plans of lineage partial
// reuse keep firing now that t(cbind(A, B)) %*% y is the fused xty item —
// t(A) %*% y and tsmm(A) are cached by the first statements, so the cbind
// forms compute only the rows and blocks of the added columns.
func TestPartialReuseOverXtY(t *testing.T) {
	a := matrix.RandUniform(150, 5, -1, 1, 1.0, 81)
	b := matrix.RandUniform(150, 2, -1, 1, 1.0, 82)
	y := matrix.RandUniform(150, 1, -1, 1, 1.0, 83)
	// print cuts the DAG, so the A-only products are cached before the cbind
	// forms are probed
	script := `g1 = t(A) %*% y
G1 = t(A) %*% A
print(sum(g1) + sum(G1))
C = cbind(A, B)
g2 = t(C) %*% y
G2 = t(C) %*% C`
	inputs := map[string]any{"A": a, "B": b, "y": y}
	cfg := runtime.DefaultConfig()
	cfg.ReuseEnabled = true
	eng := NewEngine(cfg)
	eng.SetOutput(io.Discard)
	reused, stats, err := eng.Execute(script, inputs, []string{"g2", "G2"})
	if err != nil {
		t.Fatal(err)
	}
	if stats.CacheStats.PartialHits != 2 {
		t.Errorf("partial hits = %d, want 2 (xty over cbind and tsmm over cbind)", stats.CacheStats.PartialHits)
	}
	plain := newTestEngine()
	plain.SetOutput(io.Discard)
	want, _, err := plain.Execute(script, inputs, []string{"g2", "G2"})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"g2", "G2"} {
		requireMatricesClose(t, name, reused[name].(*matrix.MatrixBlock), want[name].(*matrix.MatrixBlock))
	}
}
