package analysis

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
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

// fmaMnemonic matches the x86 fused multiply-add family: VFMADD*, VFMSUB*
// (with VFMADDSUB* / VFMSUBADD*), VFNMADD* and VFNMSUB*.
var fmaMnemonic = regexp.MustCompile(`\bVFN?M(ADD|SUB)\w*`)

// TestKernelAssemblyHasNoFMA is nofma for the assembly the analyzers cannot
// read: no amd64 assembly file of a kernel package (the GEMM micro-kernel and
// the arithmetic row kernels of internal/matrix) may use a fused multiply-add
// instruction, since every product and sum must round as the scalar Go loops
// round them. Comments are not scanned.
func TestKernelAssemblyHasNoFMA(t *testing.T) {
	var files []string
	for pkg := range kernelPkgs {
		found, err := filepath.Glob(filepath.Join("../../internal", pkg, "*_amd64.s"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, found...)
	}
	if len(files) == 0 {
		t.Fatal("no *_amd64.s file in the kernel packages: the scan would pass vacuously")
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			code, _, _ := strings.Cut(line, "//")
			if m := fmaMnemonic.FindString(code); m != "" {
				t.Errorf("%s:%d: %s is a fused multiply-add: products and sums must round separately (bitwise kernel contract)", f, i+1, m)
			}
		}
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
