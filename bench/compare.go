package main

// -compare: the regression gate. For every workload × gated metric it prints
// both medians, the delta as a share of the base, the bound, and a verdict.
// A median that worsens beyond its bound is a regression (exit 1). Where
// either side's own spread is wider than the bound the verdict is
// "unresolved", never "unchanged": the runs cannot tell.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func loadReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// spread is a set's own noise on a gated metric as a share of its median:
// the inter-quartile range for the per-op metrics, the range of the
// repetitions for setup_s.
func spread(ms metricSet, name string) float64 {
	lo, hi := "", ""
	switch name {
	case "run_s":
		lo, hi = "run_q1_s", "run_q3_s"
	case "alloc_mb":
		lo, hi = "alloc_q1_mb", "alloc_q3_mb"
	case "setup_s":
		lo, hi = "setup_min_s", "setup_max_s"
	default:
		return 0
	}
	return ratio(ms[hi].Value-ms[lo].Value, ms[name].Value)
}

// verdict compares one lower-is-better gated metric.
func verdict(d metricDef, base, cur metricSet) string {
	b, c := base[d.Name].Value, cur[d.Name].Value
	switch {
	case d.Bound == 0 && c > b, d.Bound > 0 && c > b*(1+d.Bound):
		return "REGRESSION"
	case spread(base, d.Name) > d.Bound || spread(cur, d.Name) > d.Bound:
		return "unresolved"
	case d.Bound > 0 && c < b*(1-d.Bound):
		return "improved"
	}
	return "unchanged"
}

func compareFiles(out io.Writer, basePath, curPath string) error {
	base, err := loadReport(basePath)
	if err != nil {
		return err
	}
	cur, err := loadReport(curPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "base: %s (commit %s, seed %d)\nnew:  %s (commit %s, seed %d)\n\n",
		basePath, base.Env.Commit, base.Env.Seed, curPath, cur.Env.Commit, cur.Env.Seed)
	fmt.Fprintln(out, "| workload | metric | base | new | delta | bound | spread base / new | verdict |")
	fmt.Fprintln(out, "|---|---|---|---|---|---|---|---|")
	byName := map[string]*workloadReport{}
	for _, w := range cur.Workloads {
		byName[w.Name] = w
	}
	regressions := 0
	var notes []string
	for _, bw := range base.Workloads {
		cw, ok := byName[bw.Name]
		if !ok {
			notes = append(notes, fmt.Sprintf("%s: missing from %s", bw.Name, curPath))
			regressions++
			continue
		}
		for _, d := range metricDefs {
			if d.Kind != endToEnd {
				continue
			}
			b, c := bw.Metrics[d.Name], cw.Metrics[d.Name]
			v := verdict(d, bw.Metrics, cw.Metrics)
			if v == "REGRESSION" {
				regressions++
			}
			bound := "any increase"
			if d.Bound > 0 {
				bound = fmt.Sprintf("+%.0f%%", 100*d.Bound)
			}
			fmt.Fprintf(out, "| %s | %s | %.6g %s | %.6g %s | %+.1f%% of %.6g | %s | %.1f%% / %.1f%% | %s |\n",
				bw.Name, d.Name, b.Value, b.Unit, c.Value, c.Unit, 100*ratio(c.Value-b.Value, b.Value), b.Value,
				bound, 100*spread(bw.Metrics, d.Name), 100*spread(cw.Metrics, d.Name), v)
		}
		// counts and fingerprints must repeat exactly between runs of one
		// commit; between commits a difference is a fact to explain, not a
		// failure
		if bw.OutputFP != cw.OutputFP {
			notes = append(notes, fmt.Sprintf("%s: output_fp %s -> %s", bw.Name, bw.OutputFP, cw.OutputFP))
		}
		for _, d := range metricDefs {
			if d.Count && bw.Metrics[d.Name].Value != cw.Metrics[d.Name].Value {
				notes = append(notes, fmt.Sprintf("%s: %s %g -> %g", bw.Name, d.Name, bw.Metrics[d.Name].Value, cw.Metrics[d.Name].Value))
			}
		}
	}
	if len(notes) == 0 {
		fmt.Fprintln(out, "\ncounts and output fingerprints: identical")
	} else {
		fmt.Fprintln(out, "\ncounts and output fingerprints that differ:")
		for _, n := range notes {
			fmt.Fprintln(out, "-", n)
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d gated metrics worsened beyond their bound", regressions)
	}
	return nil
}
