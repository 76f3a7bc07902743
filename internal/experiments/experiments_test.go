package experiments

import (
	"strings"
	"testing"

	"github.com/systemds/systemds-go/internal/baselines"
	sdsio "github.com/systemds/systemds-go/internal/io"
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
	x, err := sdsio.ReadMatrixCSV(xPath, sdsio.DefaultCSVOptions())
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

// TestFigureSeriesLabels pins what each panel plots: its name, its series in
// order and one point per x value of the scale.
func TestFigureSeriesLabels(t *testing.T) {
	scale := microScale()
	for _, tc := range []struct {
		run    func(Scale, string) (*Figure, error)
		name   string
		labels []string
		points int
	}{
		{Figure5a, "Figure 5(a)", []string{"TF", "TF-G", "Julia", "SysDS"}, len(scale.Ks)},
		{Figure5b, "Figure 5(b)", []string{"TF", "TF-G", "Julia", "SysDS"}, len(scale.Ks)},
		{Figure5c, "Figure 5(c)", []string{"SysDS", "SysDS+Reuse"}, len(scale.Ks)},
		{Figure5d, "Figure 5(d)", []string{"SysDS", "SysDS+Reuse"}, len(scale.RowsSweep)},
	} {
		fig, err := tc.run(scale, t.TempDir())
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if fig.Name != tc.name || len(fig.Notes) == 0 {
			t.Errorf("%s: name %q, notes %v", tc.name, fig.Name, fig.Notes)
		}
		var labels []string
		for _, s := range fig.Series {
			labels = append(labels, s.Label)
			if len(s.Points) != tc.points {
				t.Errorf("%s %s: %d points, want %d", tc.name, s.Label, len(s.Points), tc.points)
			}
		}
		if strings.Join(labels, ",") != strings.Join(tc.labels, ",") {
			t.Errorf("%s: series %v, want %v", tc.name, labels, tc.labels)
		}
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
