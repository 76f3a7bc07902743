package instructions

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// renderKernelTable renders mmTable as the markdown table DESIGN.md carries.
func renderKernelTable() string {
	dash := func(s string) string {
		if s == "" {
			return "—"
		}
		return "`" + s + "`"
	}
	shapes := map[mmShape]string{0: "any", rhsColVector: "Y is a column vector", lhsRowVector: "X is a row vector",
		rowScatter: "below the tiled crossover"}
	var sb strings.Builder
	sb.WriteString("| operation | X | Y | backend | shape | plan tag | kernel |\n|---|---|---|---|---|---|---|\n")
	for _, r := range mmTable {
		fmt.Fprintf(&sb, "| `%s` | %s | %s | %s | %s | %s | `%s` |\n",
			r.op, r.lhs, r.rhs, r.where, shapes[r.shape], dash(r.tag), r.kernel)
	}
	return sb.String()
}

// TestKernelTableMatchesDesignDoc: DESIGN.md's "Kernel table" is this table's
// rows, verbatim — the document cannot drift from the dispatcher.
func TestKernelTableMatchesDesignDoc(t *testing.T) {
	doc, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if want := renderKernelTable(); !strings.Contains(string(doc), want) {
		t.Errorf("DESIGN.md does not carry the kernel table as rendered from mmTable; it should read:\n%s", want)
	}
}

// TestKernelTableEndsEveryOperationInAWildcard: whatever the representations,
// a call finds a row — the last one of its operation, which falls back to
// local blocks on either backend.
func TestKernelTableEndsEveryOperationInAWildcard(t *testing.T) {
	for _, op := range []mmOp{opMatMult, opXtY, opTSMM, opChain} {
		for _, where := range []mmWhere{inCP, inDist} {
			found := false
			for _, r := range mmTable {
				if r.op == op && r.lhs == repAny && r.rhs == repAny && r.shape == 0 &&
					(r.where == anywhere || r.where == where) {
					found = true
				}
			}
			if !found {
				t.Errorf("%s has no wildcard row for backend %s", op, where)
			}
		}
	}
}
