package analysis

import "strings"

// internalName extracts the repository-internal package name from an import
// path: the path element following the last "internal/" segment, joined with
// any sub-packages ("…/internal/matrix" -> "matrix"). It returns "" for
// paths outside an internal tree. Matching on the suffix (rather than the
// full module path) lets the test harness exercise analyzers on testdata
// packages declared under synthetic module prefixes.
func internalName(pkgPath string) string {
	const marker = "internal/"
	idx := strings.LastIndex(pkgPath, "/"+marker)
	switch {
	case idx >= 0:
		return pkgPath[idx+1+len(marker):]
	case strings.HasPrefix(pkgPath, marker):
		return pkgPath[len(marker):]
	default:
		return ""
	}
}

// deterministicPkgs are the packages whose outputs must be bitwise
// reproducible across runs and thread counts: kernels, the blocked backend,
// the planner, instruction execution, and lineage tracing. maporder polices
// map-iteration order on these paths.
var deterministicPkgs = map[string]bool{
	"matrix":   true,
	"compress": true,
	"dist":     true,
	"hops":     true,
	"runtime":  true,
	"lineage":  true,
}

// deterministicCmds are the commands whose stdout must be reproducible run to
// run (the verify flows diff what sysds prints);
// maporder polices them like deterministicPkgs. Entries match as import-path
// suffixes.
var deterministicCmds = []string{"cmd/sysds"}

// isDeterministic reports whether maporder polices the package at pkgPath.
func isDeterministic(pkgPath string) bool {
	if deterministicPkgs[internalName(pkgPath)] {
		return true
	}
	for _, c := range deterministicCmds {
		if pkgPath == c || strings.HasSuffix(pkgPath, "/"+c) {
			return true
		}
	}
	return false
}

// kernelPkgs are the packages holding floating-point kernels bound by the
// round-product/round-sum bitwise contract (DESIGN.md, dense GEMM engine):
// every multiply and every add must round separately, so fused multiply-add
// is forbidden. dist is included because its stripe accumulations must
// reproduce the one-shot kernels bitwise.
var kernelPkgs = map[string]bool{
	"matrix":   true,
	"compress": true,
	"dist":     true,
}

// threadPlumbPkgs are the packages on the configuration path from the
// planner to the kernels: call sites here must pass the context's resolved
// thread count to kernel entry points, never a hard-coded literal.
// dist may pass the literal 1 — its operators already run inside its own
// worker pool, and nested kernel parallelism would oversubscribe cores (the
// documented inner-pool contract).
var threadPlumbPkgs = map[string]bool{
	"instructions": true,
	"runtime":      true,
	"compress":     true,
	"dist":         true,
}

// poolPkgs start no goroutines of their own, like the deterministic
// packages: their concurrency runs through matrix.ParallelFor, and
// goroutineerr reports any go statement in them.
var poolPkgs = map[string]bool{
	"io": true,
}

// innerPoolPkgs may pass threads=1 to kernels without annotation.
var innerPoolPkgs = map[string]bool{
	"dist": true,
}

// layerRank encodes the import DAG of DESIGN.md:
//
//	types → matrix/compress → dist/hops → instructions/runtime → compiler → core
//
// A ranked package may import only strictly lower-ranked packages, which in
// particular keeps kernels (matrix, compress) from ever importing the
// planner (hops) or the runtime. Support packages are ranked where their
// role places them; internal/analysis is ranked above everything so no
// runtime package can grow a dependency on the linter.
var layerRank = map[string]int{
	"types":        0,
	"obs":          0,
	"lang":         1,
	"bufferpool":   1,
	"lineage":      0,
	"builtins":     0,
	"matrix":       1,
	"compress":     2,
	"frame":        2,
	"io":           3,
	"hops":         3,
	"dist":         3,
	"fed":          4,
	"runtime":      5,
	"instructions": 6,
	"compiler":     7,
	"core":         8,
	"baselines":    9,
	"experiments":  10,
	"analysis":     99,
}
