package analysis

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepoLintClean is the standing acceptance gate: the full sysdslint
// suite over the whole repository must report nothing. Any new violation —
// or an invalid //sysds:ok directive — fails the build here as well as in
// `make lint`.
func TestRepoLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks every package in the repository")
	}
	diags, err := Lint("../..", Analyzers(), "./...")
	if err != nil {
		t.Fatalf("lint: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestLayerMapCoversRepo keeps the package tables of pkgs.go in step with the
// tree, both ways: every internal package that exists must carry a layer
// rank, so a new package cannot slip into the tree unranked (imports of it
// would only be flagged at the importer, and only if the importer is itself
// ranked); and every package a table names must exist, so a deleted package
// leaves no stale entry behind.
func TestLayerMapCoversRepo(t *testing.T) {
	cmd := exec.Command("go", "list", "./internal/...")
	cmd.Dir = "../.."
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	exists := map[string]bool{}
	for _, path := range strings.Fields(string(out)) {
		name := internalName(path)
		if name == "" {
			t.Errorf("package %s is under internal/ but internalName is empty", path)
			continue
		}
		exists[name] = true
		if _, ok := layerRank[name]; !ok {
			t.Errorf("internal package %q has no layer rank: add it to layerRank in pkgs.go", name)
		}
	}
	stale := func(table, name string) {
		if !exists[name] {
			t.Errorf("%s in pkgs.go names %q, which `go list ./internal/...` does not return", table, name)
		}
	}
	for name := range layerRank {
		stale("layerRank", name)
	}
	for table, set := range map[string]map[string]bool{
		"threadPlumbPkgs":   threadPlumbPkgs,
		"innerPoolPkgs":     innerPoolPkgs,
		"deterministicPkgs": deterministicPkgs,
		"kernelPkgs":        kernelPkgs,
		"poolPkgs":          poolPkgs,
	} {
		for name := range set {
			stale(table, name)
		}
	}
	for _, c := range deterministicCmds {
		if _, err := os.Stat(filepath.Join("../..", c)); err != nil {
			t.Errorf("deterministicCmds in pkgs.go names %q, which is not a directory of the repo", c)
		}
	}
}
