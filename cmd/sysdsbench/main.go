// Command sysdsbench regenerates the paper's evaluation, Figure 5(a)-(d).
// Results are printed as aligned text tables (the series the paper plots);
// EXPERIMENTS.md records a representative run.
//
// Usage:
//
//	sysdsbench -figure 5a            # one figure at the default (small) scale
//	sysdsbench -figure all -scale tiny
//	sysdsbench -figure 5c -scale paper
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/systemds/systemds-go/internal/experiments"
)

// figure is one row of the -figure table.
type figure struct {
	name string
	run  func(experiments.Scale, string) (*experiments.Figure, error)
}

// figures is the -figure table, in the paper's order; "all" runs every row.
var figures = []figure{
	{"5a", experiments.Figure5a},
	{"5b", experiments.Figure5b},
	{"5c", experiments.Figure5c},
	{"5d", experiments.Figure5d},
}

// figureNames lists the valid -figure values.
func figureNames() string {
	var names []string
	for _, f := range figures {
		names = append(names, f.name)
	}
	return strings.Join(append(names, "all"), ", ")
}

// selectFigures returns the rows of the table that name selects, or nil when
// name is not a valid -figure value.
func selectFigures(name string) []figure {
	var sel []figure
	for _, f := range figures {
		if name == "all" || name == f.name {
			sel = append(sel, f)
		}
	}
	return sel
}

func main() {
	var (
		figureArg = flag.String("figure", "all", "which figure to run: "+figureNames())
		scaleArg  = flag.String("scale", "small", "data scale: tiny, small, paper")
	)
	flag.Parse()

	var scale experiments.Scale
	switch *scaleArg {
	case "tiny":
		scale = experiments.TinyScale()
	case "small":
		scale = experiments.SmallScale()
	case "paper":
		scale = experiments.PaperScale()
	default:
		fmt.Fprintf(os.Stderr, "sysdsbench: unknown scale %q\n", *scaleArg)
		os.Exit(2)
	}
	sel := selectFigures(*figureArg)
	if sel == nil {
		fmt.Fprintf(os.Stderr, "sysdsbench: unknown figure %q (valid: %s)\n", *figureArg, figureNames())
		os.Exit(2)
	}
	dir, err := os.MkdirTemp("", "sysdsbench")
	if err != nil {
		fmt.Fprintf(os.Stderr, "sysdsbench: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("SystemDS-Go benchmark harness — scale %s (%dx%d)\n\n", scale.Name, scale.Rows, scale.Cols)
	failed := false
	for _, f := range sel {
		fig, err := f.run(scale, dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "sysdsbench: figure %s failed: %v\n", f.name, err)
			failed = true
			continue
		}
		fmt.Println(fig.Render())
	}
	os.RemoveAll(dir)
	if failed {
		os.Exit(1)
	}
}
