package hops

import "testing"

// TestMeasureMachineProfilePlausible checks the benchmark ruler: every
// measured rate is positive.
func TestMeasureMachineProfilePlausible(t *testing.T) {
	if testing.Short() {
		t.Skip("micro-benchmark")
	}
	if p := MeasureMachineProfile(); p.GFLOPS <= 0 || p.MemBWBytes <= 0 || p.DispatchNs <= 0 {
		t.Fatalf("implausible profile: %+v", p)
	}
}
