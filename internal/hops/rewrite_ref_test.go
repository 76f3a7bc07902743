package hops

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/types"
)

// The reference: the four separate rewrite passes Rewrite replaced, each run
// until nothing changes, with every replacement re-walking the whole DAG.
// Only their folding arithmetic now goes through the operator table (the
// scalar functions they used to spell out are gone). Kept to check that the
// single post-order pass computes the fixpoint of this sequence.

func refRewrite(d *DAG) {
	refFoldConstants(d)
	refSimplifyAlgebraic(d)
	refEliminateCommonSubexpressions(d)
	refFuseTranspose(d)
	refEliminateCommonSubexpressions(d)
}

func refReplaceEverywhere(d *DAG, old, new *Hop) {
	for _, h := range d.Nodes() {
		for i, in := range h.Inputs {
			if in == old {
				h.Inputs[i] = new
			}
		}
		for k, p := range h.Params {
			if p == old {
				h.Params[k] = new
			}
		}
	}
	for i, r := range d.Roots {
		if r == old {
			d.Roots[i] = new
		}
	}
}

func refFoldConstants(d *DAG) {
	changed := true
	for changed {
		changed = false
		for _, h := range d.Nodes() {
			switch h.Kind {
			case KindBinary:
				if len(h.Inputs) == 2 && h.Inputs[0].IsLiteralNumber() && h.Inputs[1].IsLiteralNumber() {
					op, ok := matrix.BinaryOpFromString(h.Op)
					if ok {
						v := op.Apply(h.Inputs[0].LitValue, h.Inputs[1].LitValue)
						var lit *Hop
						if op.Boolean() {
							lit = NewLiteralBool(v != 0)
						} else {
							lit = NewLiteralNumber(v)
						}
						refReplaceEverywhere(d, h, lit)
						changed = true
					}
				}
			case KindUnary:
				if len(h.Inputs) == 1 && h.Inputs[0].IsLiteralNumber() && h.DataType == types.Scalar {
					op, ok := matrix.UnaryOpFromString(h.Op)
					if ok {
						v := op.Apply(h.Inputs[0].LitValue)
						var lit *Hop
						if op.Boolean() {
							lit = NewLiteralBool(v != 0)
						} else {
							lit = NewLiteralNumber(v)
						}
						refReplaceEverywhere(d, h, lit)
						changed = true
					}
				}
			}
		}
	}
}

func refSimplifyAlgebraic(d *DAG) {
	changed := true
	for changed {
		changed = false
		for _, h := range d.Nodes() {
			switch {
			// t(t(X)) -> X
			case h.Kind == KindReorg && h.Op == "t" &&
				len(h.Inputs) == 1 && h.Inputs[0].Kind == KindReorg && h.Inputs[0].Op == "t":
				refReplaceEverywhere(d, h, h.Inputs[0].Inputs[0])
				changed = true
			// -(-X) -> X
			case refIsNeg(h) && refIsNeg(h.Inputs[0]):
				refReplaceEverywhere(d, h, h.Inputs[0].Inputs[0])
				changed = true
			// X*1, 1*X, X+0, 0+X, X-0, X/1, X^1
			case h.Kind == KindBinary && len(h.Inputs) == 2:
				a, b := h.Inputs[0], h.Inputs[1]
				switch {
				case h.Op == "*" && b.IsLiteralNumber() && b.LitValue == 1 && !a.IsScalar():
					refReplaceEverywhere(d, h, a)
					changed = true
				case h.Op == "*" && a.IsLiteralNumber() && a.LitValue == 1 && !b.IsScalar():
					refReplaceEverywhere(d, h, b)
					changed = true
				case (h.Op == "+" || h.Op == "-") && b.IsLiteralNumber() && b.LitValue == 0 && !a.IsScalar():
					refReplaceEverywhere(d, h, a)
					changed = true
				case h.Op == "+" && a.IsLiteralNumber() && a.LitValue == 0 && !b.IsScalar():
					refReplaceEverywhere(d, h, b)
					changed = true
				case (h.Op == "/" || h.Op == "^") && b.IsLiteralNumber() && b.LitValue == 1 && !a.IsScalar():
					refReplaceEverywhere(d, h, a)
					changed = true
				}
			}
		}
	}
}

func refFuseTranspose(d *DAG) {
	for _, h := range d.Nodes() {
		if h.Kind != KindMatMult || len(h.Inputs) != 2 {
			continue
		}
		left, right := h.Inputs[0], h.Inputs[1]
		if left.Kind == KindReorg && left.Op == "t" && len(left.Inputs) == 1 && left.Inputs[0] == right {
			// t(X) %*% X  ->  tsmm(X)
			h.Kind = KindTSMM
			h.Op = "tsmm"
			h.Inputs = []*Hop{right}
		}
	}
}

func refEliminateCommonSubexpressions(d *DAG) {
	changed := true
	for changed {
		changed = false
		seen := map[string]*Hop{}
		for _, h := range d.Nodes() {
			if h.Kind == KindWrite || h.Kind == KindFunctionCall || h.Kind == KindDataGen ||
				h.Kind == KindParamBuiltin || h.Kind == KindLeftIndex {
				// side effects and non-determinism are never merged; datagen
				// nodes carry generated seeds (non-determinism, Section 3.1)
				continue
			}
			sig := h.signature()
			if prev, ok := seen[sig]; ok && prev != h {
				refReplaceEverywhere(d, h, prev)
				changed = true
				continue
			}
			seen[sig] = h
		}
	}
}

// refFixpoint repeats the reference sequence until the DAG stops changing.
func refFixpoint(t testing.TB, d *DAG) {
	prev := listing(d)
	for round := 0; round < 20; round++ {
		refRewrite(d)
		cur := listing(d)
		if cur == prev {
			return
		}
		prev = cur
	}
	t.Fatalf("reference rewrites found no fixpoint in 20 rounds:\n%s", prev)
}

// listing renders the DAG in post-order with DAG-local ordinals: kind, op,
// name, literal payload, data and value type, input and parameter ordinals.
// Two DAGs with the same listing are the same plan whatever their HOP IDs.
func listing(d *DAG) string {
	nodes := d.Nodes()
	ids := explainIDs(nodes)
	var sb strings.Builder
	for _, h := range nodes {
		fmt.Fprintf(&sb, "(%d) %s %s %q %s/%s", ids[h.ID], h.Kind, h.Op, h.Name, h.DataType, h.ValueType)
		if h.Kind == KindLiteral {
			fmt.Fprintf(&sb, " lit=%x:%q:%v:%v:%v", math.Float64bits(h.LitValue), h.LitString, h.LitBool, h.LitIsStr, h.LitIsBool)
		}
		sb.WriteString(" [")
		for _, in := range h.Inputs {
			fmt.Fprintf(&sb, " %d", ids[in.ID])
		}
		sb.WriteString(" ]")
		keys := make([]string, 0, len(h.Params))
		for k := range h.Params {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, " %s=%d", k, ids[h.Params[k].ID])
		}
		sb.WriteByte('\n')
	}
	for _, r := range d.Roots {
		fmt.Fprintf(&sb, "root %d\n", ids[r.ID])
	}
	return sb.String()
}

// dagGen builds random HOP DAGs shaped like the compiler's: reads typed
// matrix, scalar or unknown (several reads of one name), numeric and boolean
// literals, every binary and unary operator of the table, t, t(X)%*%X,
// general matmult, sum, a rand whose parameters are literal sub-expressions,
// shared and duplicated sub-expressions, and one to four writes.
type dagGen struct {
	r    *rand.Rand
	pool []*Hop
}

var (
	genLiterals = []float64{0, 1, 2, -2.5, 3}
	// a variable has one type in a block: the name decides it
	genNames  = []string{"A", "B", "s", "u"}
	genTypes  = map[string]types.DataType{"A": types.Matrix, "B": types.Matrix, "s": types.Scalar, "u": types.UnknownData}
	genBinary = opSymbols(func(i int) string { return matrix.BinaryOp(i).String() })
	genUnary  = append(opSymbols(func(i int) string { return matrix.UnaryOp(i).String() }), "uminus")
)

// opSymbols lists an operator kind's symbols from the table: name(0),
// name(1), ... up to the first "?".
func opSymbols(name func(int) string) []string {
	var syms []string
	for i := 0; name(i) != "?"; i++ {
		syms = append(syms, name(i))
	}
	return syms
}

func (g *dagGen) pick() *Hop { return g.pool[g.r.Intn(len(g.pool))] }

func (g *dagGen) literal() *Hop {
	if g.r.Intn(5) == 0 {
		return NewLiteralBool(g.r.Intn(2) == 0)
	}
	return NewLiteralNumber(genLiterals[g.r.Intn(len(genLiterals))])
}

func (g *dagGen) read() *Hop {
	name := genNames[g.r.Intn(len(genNames))]
	return NewRead(name, genTypes[name])
}

// literalExpr is a literal or a small expression over literals.
func (g *dagGen) literalExpr() *Hop {
	if g.r.Intn(2) == 0 {
		return g.literal()
	}
	return g.binary(genBinary[g.r.Intn(len(genBinary))], g.literal(), g.literal())
}

func (g *dagGen) binary(op string, a, b *Hop) *Hop {
	h := NewHop(KindBinary, op, a, b)
	h.DataType = types.Scalar
	if a.IsMatrix() || b.IsMatrix() {
		h.DataType = types.Matrix
	}
	return h
}

func (g *dagGen) unary(op string, in *Hop) *Hop {
	h := NewHop(KindUnary, op, in)
	h.DataType, h.ValueType = in.DataType, in.ValueType
	return h
}

func (g *dagGen) transpose(in *Hop) *Hop {
	h := NewHop(KindReorg, "t", in)
	h.DataType = types.Matrix
	return h
}

func (g *dagGen) matmult(a, b *Hop) *Hop {
	h := NewHop(KindMatMult, "ba+*", a, b)
	h.DataType = types.Matrix
	return h
}

// clone rebuilds h one level deep over the same inputs, a duplicate for CSE;
// a literal or a rand gives a fresh literal instead.
func (g *dagGen) clone(h *Hop) *Hop {
	if h.Kind == KindRead {
		return NewRead(h.Name, h.DataType)
	}
	if h.Kind == KindLiteral || h.Kind == KindDataGen {
		return g.literal()
	}
	c := NewHop(h.Kind, h.Op, append([]*Hop(nil), h.Inputs...)...)
	c.DataType, c.ValueType = h.DataType, h.ValueType
	return c
}

func (g *dagGen) node() *Hop {
	switch g.r.Intn(14) {
	case 0:
		return g.read()
	case 1:
		return g.literal()
	case 2, 3, 4:
		return g.binary(genBinary[g.r.Intn(len(genBinary))], g.pick(), g.pick())
	case 5:
		// the identities simplification removes
		lit := NewLiteralNumber(float64(g.r.Intn(2)))
		if g.r.Intn(2) == 0 {
			return g.binary([]string{"*", "+", "-", "/", "^"}[g.r.Intn(5)], g.pick(), lit)
		}
		return g.binary([]string{"*", "+"}[g.r.Intn(2)], lit, g.pick())
	case 6, 7:
		return g.unary(genUnary[g.r.Intn(len(genUnary))], g.pick())
	case 8:
		return g.transpose(g.pick())
	case 9:
		// t(X) %*% X, with X read twice under one name half the time
		x := g.pick()
		y := x
		if x.Kind == KindRead && g.r.Intn(2) == 0 {
			y = NewRead(x.Name, x.DataType)
		}
		return g.matmult(g.transpose(x), y)
	case 10:
		return g.matmult(g.pick(), g.pick())
	case 11:
		h := NewHop(KindAggUnary, "sum", g.pick())
		h.DataType = types.Scalar
		return h
	case 12:
		h := NewHop(KindDataGen, "rand")
		h.DataType = types.Matrix
		h.Params = map[string]*Hop{"rows": g.literalExpr(), "cols": g.literalExpr(), "seed": g.literalExpr()}
		return h
	default:
		return g.clone(g.pick())
	}
}

// genDAG builds the DAG of one seed; the same seed and size give the same
// DAG (fresh HOPs every call).
func genDAG(seed int64, size int) *DAG {
	g := &dagGen{r: rand.New(rand.NewSource(seed))}
	g.pool = []*Hop{g.read(), g.literal()}
	for i := 0; i < size; i++ {
		g.pool = append(g.pool, g.node())
	}
	d := &DAG{}
	for i, n := 0, 1+g.r.Intn(4); i < n; i++ {
		// later nodes are the deeper ones: write from the back half
		h := g.pool[len(g.pool)/2+g.r.Intn(len(g.pool)-len(g.pool)/2)]
		d.Roots = append(d.Roots, NewWrite(fmt.Sprintf("w%d", i), h))
	}
	return d
}

// checkRewriteSeed compares Rewrite against the reference's fixpoint on the
// DAG of one seed.
func checkRewriteSeed(t testing.TB, seed int64, size int) {
	want := genDAG(seed, size)
	refFixpoint(t, want)
	got := genDAG(seed, size)
	Rewrite(got)
	if w, g := listing(want), listing(got); w != g {
		t.Fatalf("seed %d size %d: Rewrite differs from the reference fixpoint\nreference:\n%s\nRewrite:\n%s",
			seed, size, w, g)
	}
}

// TestRewriteIsTheReferenceFixpoint checks Rewrite against the old passes
// repeated until nothing changes, on generated DAGs. One round of the old
// sequence (fold, simplify, CSE, tsmm, CSE) stops short of that fixpoint
// where a simplification exposes a literal to its consumer's fold, as in
// t(t(2)) + 1: the fold ran before the simplification that made its operand
// a literal (TestRewriteFoldsWhatSimplificationExposes).
func TestRewriteIsTheReferenceFixpoint(t *testing.T) {
	seeds := 20000
	if testing.Short() {
		seeds = 2000
	}
	for seed := 0; seed < seeds; seed++ {
		checkRewriteSeed(t, int64(seed), 4+seed%24)
	}
}

func TestRewriteFoldsWhatSimplificationExposes(t *testing.T) {
	build := func() *DAG {
		tt := NewHop(KindReorg, "t", NewHop(KindReorg, "t", NewLiteralNumber(2)))
		sum := NewHop(KindBinary, "+", tt, NewLiteralNumber(1))
		sum.DataType = types.Scalar
		return &DAG{Roots: []*Hop{NewWrite("x", sum)}}
	}
	once := build()
	refRewrite(once)
	if in := once.Roots[0].Inputs[0]; in.Kind != KindBinary {
		t.Fatalf("one reference round should stop at the binary, got %s", in.Kind)
	}
	d := build()
	Rewrite(d)
	if in := d.Roots[0].Inputs[0]; !in.IsLiteralNumber() || in.LitValue != 3 {
		t.Fatalf("Rewrite should fold t(t(2)) + 1 to 3, got\n%s", listing(d))
	}
}

// FuzzRewrite runs the same comparison on a seed and size taken from the
// fuzzer's bytes.
func FuzzRewrite(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var buf [9]byte
		copy(buf[:], data)
		var seed int64
		for _, b := range buf[:8] {
			seed = seed<<8 | int64(b)
		}
		checkRewriteSeed(t, seed, 1+int(buf[8])%48)
	})
}

// refIsNeg is the reference's unary minus: either spelling of the operator.
func refIsNeg(h *Hop) bool {
	return h.Kind == KindUnary && len(h.Inputs) == 1 && (h.Op == "-" || h.Op == "uminus")
}
