package core

import (
	"testing"

	"github.com/systemds/systemds-go/internal/hops"
	"github.com/systemds/systemds-go/internal/matrix"
	"github.com/systemds/systemds-go/internal/runtime"
	"github.com/systemds/systemds-go/internal/types"
)

// benchmarkCalibrationDelta runs a matmult whose static memory estimate sits
// just over the CP budget (so the uncalibrated planner ships it to the
// distributed backend) with and without synthetic history saying the static
// model overestimates 8x. The calibrated planner keeps the operator in CP;
// the pair quantifies what a learned crossover is worth end to end.
func benchmarkCalibrationDelta(b *testing.B, calib *hops.Calibration) {
	const n = 256
	am := matrix.RandUniform(n, n, -1, 1, 1.0, 61)
	bm := matrix.RandUniform(n, n, -1, 1, 1.0, 62)
	sz := types.EstimateSize(types.NewDataCharacteristics(n, n, 1024, -1))
	cfg := runtime.DefaultConfig()
	cfg.Parallelism = 4
	cfg.DistEnabled = true
	cfg.OperatorMemBudget = 2*sz - 1 // out + maxIn just over budget
	cfg.Calib = calib
	eng := NewEngine(cfg)
	inputs := map[string]any{"A": am, "B": bm}
	dataBytes := 2 * am.InMemorySize()
	b.SetBytes(dataBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := eng.Execute(`C = A %*% B`, inputs, []string{"C"}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(dataBytes), "databytes/op")
}

func BenchmarkCalibrationDeltaUncalibrated(b *testing.B) {
	benchmarkCalibrationDelta(b, nil)
}

func BenchmarkCalibrationDeltaCalibrated(b *testing.B) {
	calib := hops.NewCalibration()
	for i := 0; i < 5; i++ {
		calib.Observe("ba+*", 8000, 1000) // history: outputs 8x below estimate
	}
	benchmarkCalibrationDelta(b, calib)
}
