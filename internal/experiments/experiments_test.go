package experiments

import (
	"strings"
	"testing"

	"github.com/systemds/systemds-go/internal/baselines"
)

// microScale keeps the experiment harness tests fast.
func microScale() Scale {
	return Scale{
		Name: "micro", Rows: 300, Cols: 12,
		Ks:        []int{1, 3},
		RowsSweep: []int{200, 400},
		KFixed:    3,
	}
}

func TestScalePresets(t *testing.T) {
	for _, s := range []Scale{TinyScale(), SmallScale(), PaperScale()} {
		if s.Rows <= 0 || s.Cols <= 0 || len(s.Ks) == 0 || len(s.RowsSweep) == 0 || s.KFixed <= 0 {
			t.Errorf("scale %s malformed: %+v", s.Name, s)
		}
	}
	if PaperScale().Rows != 100000 || PaperScale().Cols != 1000 {
		t.Error("paper scale should match the paper's 100K x 1K input")
	}
}

func TestWorkloadFilesAndRunners(t *testing.T) {
	dir := t.TempDir()
	xPath, yPath, err := PrepareWorkloadFiles(dir, 200, 10, 1.0, 1)
	if err != nil {
		t.Fatal(err)
	}
	x, err := ReadWorkloadCSV(xPath)
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows() != 200 || x.Cols() != 10 {
		t.Errorf("workload X dims %dx%d", x.Rows(), x.Cols())
	}
	// SysDS end-to-end workload with and without reuse
	if _, _, err := RunSysDSWorkload(dir, xPath, yPath, 3, false); err != nil {
		t.Fatalf("sysds workload: %v", err)
	}
	elapsed, stats, err := RunSysDSWorkload(dir, xPath, yPath, 3, true)
	if err != nil {
		t.Fatalf("sysds reuse workload: %v", err)
	}
	if elapsed <= 0 {
		t.Error("elapsed time not measured")
	}
	if stats.CacheStats.Hits == 0 {
		t.Errorf("expected reuse hits, stats = %+v", stats.CacheStats)
	}
	// baseline workload
	if _, err := RunBaselineWorkload(dir, xPath, yPath, 2, baselines.Naive); err != nil {
		t.Fatalf("baseline workload: %v", err)
	}
}

func TestFigure5cShowsReuseBenefit(t *testing.T) {
	dir := t.TempDir()
	fig, err := Figure5c(microScale(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	rendered := fig.Render()
	if !strings.Contains(rendered, "SysDS+Reuse") || !strings.Contains(rendered, "Figure 5(c)") {
		t.Errorf("rendering missing labels:\n%s", rendered)
	}
	// at the largest k, reuse should not be slower than no-reuse by more than
	// a small factor (it is usually much faster). One run at this scale is a
	// single ~2 ms timing per point, which a scheduling hiccup can double, so
	// each series point is the best of five figures.
	last := len(fig.Series[0].Points) - 1
	noReuse := fig.Series[0].Points[last].Seconds
	withReuse := fig.Series[1].Points[last].Seconds
	for i := 1; i < 5; i++ {
		again, err := Figure5c(microScale(), dir)
		if err != nil {
			t.Fatal(err)
		}
		noReuse = min(noReuse, again.Series[0].Points[last].Seconds)
		withReuse = min(withReuse, again.Series[1].Points[last].Seconds)
	}
	if withReuse > noReuse*1.5 {
		t.Errorf("reuse run unexpectedly slow: %v vs %v", withReuse, noReuse)
	}
}

func TestAblationSteplmPartialReuse(t *testing.T) {
	fig, err := AblationSteplmPartialReuse(300, 12)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	foundStats := false
	for _, n := range fig.Notes {
		if strings.Contains(n, "partial=") {
			foundStats = true
			if !strings.Contains(n, "partial=0") {
				// partial hits present: good
				foundStats = true
			}
		}
	}
	if !foundStats {
		t.Errorf("expected reuse statistics note, got %v", fig.Notes)
	}
}

func TestAblationDistVsLocalAndFederated(t *testing.T) {
	fig, err := AblationDistVsLocal([]int{200, 400}, 16, 128)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 || len(fig.Series[0].Points) != 2 {
		t.Errorf("dist ablation malformed: %+v", fig)
	}
	chainFig, err := AblationBlockedChain([]int{200, 400}, 16, 64)
	if err != nil {
		t.Fatalf("AblationBlockedChain: %v", err)
	}
	if len(chainFig.Series) != 2 || len(chainFig.Series[0].Points) != 2 {
		t.Errorf("unexpected chained ablation shape: %+v", chainFig.Series)
	}

	fedFig, err := AblationFederatedTSMM(300, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(fedFig.Series) != 2 {
		t.Errorf("federated ablation malformed: %+v", fedFig)
	}
}

func TestAblationParamServ(t *testing.T) {
	fig, err := AblationParamServ(400, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d", len(fig.Series))
	}
	if len(fig.Notes) < 2 || !strings.Contains(fig.Notes[0], "loss=") {
		t.Errorf("notes = %v", fig.Notes)
	}
}

func TestAblationFusedPipelines(t *testing.T) {
	fig, err := AblationFusedPipelines(300, 40)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("series = %d, want unfused and fused", len(fig.Series))
	}
}

func TestAblationMatMultStrategies(t *testing.T) {
	fig, err := AblationMatMultStrategies(512, 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 {
		t.Fatalf("series = %d, want planner + 3 forced strategies", len(fig.Series))
	}
	// k=512 with a 128x512 left and 512x64 right operand sits past the
	// gj<->sh crossover, so the planner must have picked the shuffle split
	if fig.Series[0].Label != "planner (sh)" {
		t.Errorf("planner series label = %q, want planner (sh)", fig.Series[0].Label)
	}
}

func TestFigureRenderEmptyAndNotes(t *testing.T) {
	empty := &Figure{Name: "F", Title: "T"}
	if !strings.Contains(empty.Render(), "F — T") {
		t.Error("empty figure rendering wrong")
	}
	fig := &Figure{Name: "F", Title: "T", XLabel: "x",
		Series: []Series{{Label: "a", Points: []Point{{X: 1, Seconds: 2}}}, {Label: "b"}},
		Notes:  []string{"hello"}}
	out := fig.Render()
	if !strings.Contains(out, "note: hello") || !strings.Contains(out, "-") {
		t.Errorf("rendering = %s", out)
	}
}
