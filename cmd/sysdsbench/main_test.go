package main

import "testing"

// TestSelectFigures: every -figure value runs what it names, and an unknown
// name selects nothing (main exits 2 on it) instead of running nothing.
func TestSelectFigures(t *testing.T) {
	for name, want := range map[string]int{"5a": 1, "5b": 1, "5c": 1, "5d": 1, "all": 4, "5e": 0, "ablations": 0, "": 0} {
		sel := selectFigures(name)
		if len(sel) != want {
			t.Errorf("-figure %q selects %d figures, want %d", name, len(sel), want)
		}
		if want == 1 && sel[0].name != name {
			t.Errorf("-figure %q selects %q", name, sel[0].name)
		}
	}
	if got := figureNames(); got != "5a, 5b, 5c, 5d, all" {
		t.Errorf("valid names = %q", got)
	}
}
