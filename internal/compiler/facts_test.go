package compiler

import (
	"testing"

	"github.com/systemds/systemds-go/internal/instructions"
	"github.com/systemds/systemds-go/internal/runtime"
)

// fcallSites returns the fcall instructions of a compiled main program's
// basic blocks in order.
func fcallSites(t *testing.T, prog *runtime.Program) []*instructions.FCallInst {
	t.Helper()
	var sites []*instructions.FCallInst
	for _, pb := range prog.Blocks {
		if bb, ok := pb.(*runtime.BasicBlock); ok {
			for _, inst := range bb.Instructions {
				if f, ok := inst.(*instructions.FCallInst); ok {
					sites = append(sites, f)
				}
			}
		}
	}
	return sites
}

// TestCallSitesArePureOrNot: lowering marks each fcall site from the
// function facts under its literal arguments and defaults.
func TestCallSitesArePureOrNot(t *testing.T) {
	const defs = `
rec = function(Integer n) return (Integer r) {
  r = n
  if (n > 0) {
    r = rec(n - 1)
  }
}
seeded = function(Integer n) return (Matrix[Double] R) {
  for (i in 1:1) {
    R = rand(rows=n, cols=n, seed=7)
  }
}
`
	for _, tc := range []struct {
		call string
		pure bool
	}{
		{"[B, L] = gridSearchLM(X, y, lambdas)", true},
		{"[B, L] = gridSearchLM(X, y, lambdas, FALSE)", true},
		{"[B, L] = gridSearchLM(X, y, lambdas, verbose=TRUE)", false},
		{"v = FALSE\n[B, L] = gridSearchLM(X, y, lambdas, verbose=v)", false},
		{"[C, Y] = kmeans(X, 3)", false},          // an unseeded sample
		{"[B, S] = steplm(X, y)", true},           // verbose folds, lmDS inside is pure
		{"r = rec(3)", false},                     // recursion
		{"R = seeded(3)", true},                   // a seeded rand
		{"B = lmDS(X, y, 0.1, icpt=1 - 1)", true}, // not inlined, the print still folds
	} {
		prog, err := newCompiler(nil).Compile(defs+tc.call, nil)
		if err != nil {
			t.Fatalf("%q: %v", tc.call, err)
		}
		sites := fcallSites(t, prog)
		if len(sites) != 1 {
			t.Fatalf("%q: %d fcall sites, want 1", tc.call, len(sites))
		}
		if f := sites[0]; f.Pure != tc.pure || (f.BodyHash != "") != tc.pure {
			t.Errorf("%q: pure %v (body hash %q), want %v", tc.call, f.Pure, f.BodyHash, tc.pure)
		}
	}
}

// TestBodyHashCoversCallees: the body hash of a call changes with the body of
// any function it can reach and with nothing else — not with where in the
// script the function is defined.
func TestBodyHashCoversCallees(t *testing.T) {
	hash := func(script string) string {
		prog, err := newCompiler(nil).Compile(script, nil)
		if err != nil {
			t.Fatal(err)
		}
		sites := fcallSites(t, prog)
		if len(sites) != 1 || !sites[0].Pure {
			t.Fatalf("%q: want one pure fcall site", script)
		}
		return sites[0].BodyHash
	}
	const f = `
f = function(Matrix[Double] X) return (Matrix[Double] Y) {
  for (i in 1:2) {
    X = g(X)
  }
  Y = X
}
`
	const g1 = "g = function(Matrix[Double] X) return (Matrix[Double] Y) {\n  Y = X + 1\n}\n"
	const g2 = "g = function(Matrix[Double] X) return (Matrix[Double] Y) {\n  Y = X + 2\n}\n"
	base := hash(f + g1 + "Y = f(X)")
	if moved := hash("\n\n" + g1 + f + "Y = f(X)"); moved != base {
		t.Errorf("moving the definitions changed the hash: %s, %s", base, moved)
	}
	if changed := hash(f + g2 + "Y = f(X)"); changed == base {
		t.Error("changing the callee g left f's hash alone")
	}
}
