package compiler

import (
	"strings"
	"testing"

	"github.com/systemds/systemds-go/internal/lang"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
)

// writtenNames collects the variables the statically compiled instructions of
// blocks (predicates and nested bodies included) write.
func writtenNames(blocks []runtime.ProgramBlock, into map[string]bool) map[string]bool {
	basic := func(b *runtime.BasicBlock) {
		if b == nil {
			return
		}
		for _, inst := range b.Instructions {
			for _, o := range inst.Outputs() {
				into[o] = true
			}
		}
	}
	for _, blk := range blocks {
		switch b := blk.(type) {
		case *runtime.BasicBlock:
			basic(b)
		case *runtime.IfBlock:
			basic(b.Predicate)
			writtenNames(b.Then, into)
			writtenNames(b.Else, into)
		case *runtime.WhileBlock:
			basic(b.Predicate)
			writtenNames(b.Body, into)
		case *runtime.ForBlock:
			basic(b.Iterable)
			writtenNames(b.Body, into)
		}
	}
	return into
}

// livenessScript has one variable per rule of the liveness pass, inside a
// function body, and the same dead assignment at top level.
const livenessScript = `
f = function(Matrix[Double] X) return (Matrix[Double] out) {
  dead = X * 2
  shown = ncol(X)
  print(shown)
  carried = X
  branch = X - 1
  i = 0
  while (i < 3) {
    tmp = carried * 2
    carried = tmp + 1
    last = carried * 3
    i = i + 1
  }
  if (i > 2) {
    out = branch + last
  } else {
    out = X
  }
  parfor (j in 1:2) {
    R = X * j
  }
}
topDead = X * 2
out = f(X)
`

// TestDeadWritesDropOnlyInFunctionBodies: in a function body a variable
// nothing reads again gets no transient write (dead, and tmp inside the
// loop), while a value read after the loop (last), across the back edge
// (carried), in one branch of an if (branch), the return (out), the loop
// counter the predicate reads (i), a parfor result (R), a value a print later
// in the same block reads by name (shown) and the predicates (_predN) are
// written. Top-level code keeps every write. The function
// computes what it did before.
func TestDeadWritesDropOnlyInFunctionBodies(t *testing.T) {
	prog, err := newCompiler(nil).Compile(livenessScript, nil)
	if err != nil {
		t.Fatal(err)
	}
	inBody := writtenNames(prog.Functions["f"].Body, map[string]bool{})
	for _, name := range []string{"dead", "tmp"} {
		if inBody[name] {
			t.Errorf("dead %s is written", name)
		}
	}
	for _, name := range []string{"last", "carried", "branch", "out", "i", "R", "shown"} {
		if !inBody[name] {
			t.Errorf("live %s is not written", name)
		}
	}
	preds := 0
	for name := range inBody {
		if strings.HasPrefix(name, "_pred") {
			preds++
		}
	}
	if preds < 2 {
		t.Errorf("%d predicate variables written, want the while's and the if's", preds)
	}
	if top := writtenNames(prog.Blocks, map[string]bool{}); !top["topDead"] {
		t.Error("top-level topDead is not written: a caller may request it")
	}

	x := matrix.RandUniform(6, 3, -1, 1, 1.0, 7)
	res := compileAndRun(t, livenessScript, map[string]*matrix.MatrixBlock{"X": x}, []string{"out"})
	out := res["out"].(*runtime.MatrixObject)
	got, err := out.Acquire()
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 6; r++ {
		for c := 0; c < 3; c++ {
			v := x.Get(r, c)
			carried := v
			for k := 0; k < 3; k++ {
				carried = carried*2 + 1
			}
			if want := (v - 1) + carried*3; got.Get(r, c) != want {
				t.Fatalf("out(%d,%d) = %v, want %v", r, c, got.Get(r, c), want)
			}
		}
	}
}

// TestLivenessFixpoints pins the pass on the shapes the compiler asks it
// about: what is live before a loop, at its head, and before an if.
func TestLivenessFixpoints(t *testing.T) {
	parsed, err := lang.Parse(livenessScript)
	if err != nil {
		t.Fatal(err)
	}
	body := parsed.Functions["f"].Body
	want := make([]bool, len(body))
	for i := range want {
		want[i] = true
	}
	after := liveAfterEach(body, map[string]bool{"out": true}, want)
	// after `dead = X * 2`: X (read later), not dead itself
	if l := after[0]; l["dead"] || !l["X"] {
		t.Errorf("after dead: %v", l)
	}
	// after the while loop: last, branch and X; not carried or tmp
	if l := after[6]; !l["last"] || !l["branch"] || !l["X"] || l["carried"] || l["tmp"] {
		t.Errorf("after the loop: %v", l)
	}
	// the head of the while loop: carried and i too (back edge, predicate)
	if head := loopLive(body[6], after[6]); !head["carried"] || !head["i"] || head["tmp"] {
		t.Errorf("loop head: %v", head)
	}
	if liveAfterEach(body, nil, want)[0] != nil || liveBefore(body, nil) != nil {
		t.Error("a nil (every variable) live set must stay nil")
	}
}
