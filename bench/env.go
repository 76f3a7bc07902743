package main

import (
	"os"
	"os/exec"
	"runtime"
	"strings"

	"github.com/systemds/systemds-go/internal/hops"
)

// envStamp records where a result was measured, so two result files are only
// ever compared knowingly across machines or toolchains.
type envStamp struct {
	Commit      string  `json:"commit"`
	GoVersion   string  `json:"go_version"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	NumCPU      int     `json:"nproc"`
	CPUModel    string  `json:"cpu_model"`
	LLC         string  `json:"llc_size"`
	PeakGFLOPS  float64 `json:"profile_gflops_1thread"`
	CopyGBs     float64 `json:"profile_copy_gb_s"`
	DispatchNs  float64 `json:"profile_dispatch_ns"`
	Seed        int64   `json:"seed"`
	Threads     int     `json:"threads"`
	Scale       scale   `json:"scale"`
	ProbeMvMB   float64 `json:"probe_mv_array_mb"`
	ProbeTsmmMB float64 `json:"probe_tsmm_array_mb"`
}

func stampEnv(sc scale, seed int64, profile hops.MachineProfile) envStamp {
	return envStamp{
		Commit:      gitCommit(),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NumCPU:      runtime.NumCPU(),
		CPUModel:    cpuModel(),
		LLC:         llcSize(),
		PeakGFLOPS:  profile.GFLOPS,
		CopyGBs:     profile.MemBWBytes / 1e9,
		DispatchNs:  profile.DispatchNs,
		Seed:        seed,
		Threads:     threads,
		Scale:       sc,
		ProbeMvMB:   8 * float64(sc.ProbeMvRows) * float64(sc.ProbeMvCols) / 1e6,
		ProbeTsmmMB: 8 * float64(sc.ProbeTsmmRows) * float64(sc.ProbeTsmmCols) / 1e6,
	}
}

// gitCommit is the checked-out commit, or "unknown" outside a git checkout.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

// llcSize reads the size of the highest cache level Linux reports for cpu0.
func llcSize() string {
	size := "unknown"
	for _, idx := range []string{"index0", "index1", "index2", "index3", "index4"} {
		if data, err := os.ReadFile("/sys/devices/system/cpu/cpu0/cache/" + idx + "/size"); err == nil {
			size = strings.TrimSpace(string(data))
		}
	}
	return size
}
