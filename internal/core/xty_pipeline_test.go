package core

import (
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

// federatedXY serves a 200x6 X and a 200x1 y from two in-process workers, 100
// rows each, and returns the local matrices next to their federated handles.
func federatedXY(t *testing.T) (x, y *matrix.MatrixBlock, fx, fy *fed.FederatedMatrix) {
	t.Helper()
	x = matrix.RandUniform(200, 6, -1, 1, 1.0, 61)
	y = matrix.RandUniform(200, 1, -1, 1, 1.0, 62)
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
		t.Cleanup(w.Shutdown)
		addrs[s] = addr
	}
	var err error
	if fx, err = fed.NewFederatedMatrix(200, 6, ranges(6, "X", addrs)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fx.Close)
	if fy, err = fed.NewFederatedMatrix(200, 1, ranges(1, "y", addrs)); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fy.Close)
	return x, y, fx, fy
}

// requirePushedDown checks the traced run of eng talked to the workers and
// never asked one for its data.
func requirePushedDown(t *testing.T, name string, eng *Engine) {
	t.Helper()
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

// TestXtYOnFederatedX: t(X) %*% y over a federated X pushes the product to
// the sites (local y shipped in slices, federated y multiplied in place), and
// the fused chains t(X) %*% (X %*% v) and t(X) %*% (w * (X %*% v)) — the
// federated gradient step — run as two push-downs inside one mmchain
// instruction; no worker is ever asked for its data, and fusion on agrees with
// fusion off and with the local result.
func TestXtYOnFederatedX(t *testing.T) {
	x, y, fx, fy := federatedXY(t)
	v := matrix.RandUniform(6, 1, -1, 1, 1.0, 63)
	w := matrix.RandUniform(200, 1, 0, 1, 1.0, 64)
	cases := []struct {
		name, script string
		yIn          any
	}{
		{"local y", "g = t(X) %*% y", y},
		{"federated y", "g = t(X) %*% y", fy},
		{"chain", "g = t(X) %*% (X %*% v)", y},
		{"weighted chain", "g = t(X) %*% (w * (X %*% v))", y},
	}
	for _, tc := range cases {
		local, _, err := tracedFusionEngine(false, nil).Execute(tc.script,
			map[string]any{"X": x, "y": y, "v": v, "w": w}, []string{"g"})
		if err != nil {
			t.Fatalf("%s: local: %v", tc.name, err)
		}
		want := local["g"].(*matrix.MatrixBlock)
		inputs := map[string]any{"X": fx, "y": tc.yIn, "v": v, "w": w}
		unfused, _, err := tracedFusionEngine(false, nil).Execute(tc.script, inputs, []string{"g"})
		if err != nil {
			t.Fatalf("%s: fusion off: %v", tc.name, err)
		}
		requireMatricesClose(t, tc.name+" (fusion off)", unfused["g"].(*matrix.MatrixBlock), want)
		eng := tracedFusionEngine(true, nil)
		res, stats, err := eng.Execute(tc.script, inputs, []string{"g"})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		requireMatricesClose(t, tc.name, res["g"].(*matrix.MatrixBlock), want)
		counts := instrCounts(stats)
		if counts["r'"] != 0 || counts["mmchain"] != 1 || counts["ba+*"] != 0 {
			t.Errorf("%s: executed r'=%d mmchain=%d ba+*=%d, want 0, 1 and 0",
				tc.name, counts["r'"], counts["mmchain"], counts["ba+*"])
		}
		requirePushedDown(t, tc.name, eng)
	}
}

// TestNamedTransposeAcrossDAGs: the transpose of a matrix whose transpose stays
// a view — federated or compressed — bound to a variable is a matrix like any
// other: it answers nrow/ncol, t() of it folds back to the source, and the
// multiplies that consume it in a later DAG (an if body inside a loop) run the
// transpose-free kernels on the source. One view type serves both sources, so
// one table checks both.
func TestNamedTransposeAcrossDAGs(t *testing.T) {
	fxLocal, y, fx, _ := federatedXY(t)
	cx := lowCardFeatures(2000, 40, 65)
	cy := matrix.RandUniform(2000, 1, -1, 1, 1.0, 66)
	const script = `n = 0
m = 0
for (i in 1:3) {
  Xt = t(X)
  if (i > 0) {
    n = nrow(Xt)
    m = ncol(Xt)
    g = Xt %*% y
    G = Xt %*% X
    q = t(Xt) %*% v
  }
}`
	outputs := []string{"n", "m", "g", "G", "q"}
	for _, tc := range []struct {
		name     string
		x        *matrix.MatrixBlock
		xIn, y   any
		tune     func(*runtime.Config)
		pushdown bool
		// compressed operators per trip besides the fold-back t(Xt)
		compOps int64
	}{
		// federated: every r' is a metadata operation, every product a push-down
		{name: "federated", x: fxLocal, xIn: fx, y: y, pushdown: true},
		// compressed: per trip the view, cvm, ctsmm and cmv
		{name: "compressed", x: cx, xIn: cx, y: cy, compOps: 4,
			tune: func(c *runtime.Config) { c.CompressionEnabled = true }},
	} {
		v := matrix.RandUniform(tc.x.Cols(), 1, -1, 1, 1.0, 67)
		plain, _, err := tracedFusionEngine(false, nil).Execute(script,
			map[string]any{"X": tc.x, "y": tc.y, "v": v}, outputs)
		if err != nil {
			t.Fatalf("%s: local: %v", tc.name, err)
		}
		for _, fusion := range []bool{true, false} {
			eng := tracedFusionEngine(fusion, tc.tune)
			res, stats, err := eng.Execute(script, map[string]any{"X": tc.xIn, "y": tc.y, "v": v}, outputs)
			if err != nil {
				t.Fatalf("%s (fusion %v): %v", tc.name, fusion, err)
			}
			if res["n"] != float64(tc.x.Cols()) || res["m"] != float64(tc.x.Rows()) {
				t.Errorf("%s: nrow(Xt), ncol(Xt) = %v, %v, want %d, %d", tc.name, res["n"], res["m"], tc.x.Cols(), tc.x.Rows())
			}
			for _, name := range []string{"g", "G", "q"} {
				requireMatricesClose(t, tc.name+" "+name, res[name].(*matrix.MatrixBlock), plain[name].(*matrix.MatrixBlock))
			}
			// fused, t(Xt) %*% v is one transpose-free product over the view;
			// unfused, t(Xt) is an instruction of its own that folds back to X
			foldBacks := int64(3)
			if fusion {
				foldBacks = 0
			}
			if n := instrCounts(stats)["r'"]; n != 3+foldBacks {
				t.Errorf("%s (fusion %v): %d transposes executed, want %d", tc.name, fusion, n, 3+foldBacks)
			}
			wantOps := 3 * tc.compOps
			if tc.compOps > 0 {
				wantOps += foldBacks
			}
			if cs := stats.CompressStats; cs.CompressedOps != wantOps || cs.Decompressions != 0 {
				t.Errorf("%s (fusion %v): compressed ops = %d, decompressions = %d, want %d and 0",
					tc.name, fusion, cs.CompressedOps, cs.Decompressions, wantOps)
			}
			if tc.pushdown {
				requirePushedDown(t, tc.name, eng)
			}
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
