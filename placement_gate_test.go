package repro_test

import (
	"testing"

	"repro"
)

// Placement gate and benchmark: first-touch placement earns its barrier
// exchange when re-homing each page to the node that uses it turns the
// recurring flush/directory exchanges with a remote home into free
// loopback.

// The shared configuration of the root traffic gates: small enough to
// run in seconds, large enough that every protocol path is exercised.
const (
	gateProcs    = 4
	gateScale    = 0.1
	gateSeed     = 42
	gatePageSize = 1024
)

// firstTouchGateMargin is the required improvement on water under EI.
// Measured 0.64x with disjoint ranges over 20 runs (block 3.50–3.71
// msgs/critsec, first-touch 2.19–2.41), so one run of each decides.
const firstTouchGateMargin = 0.85

// msgsPerCritsec runs one workload configuration on the live runtime and
// returns logical interconnect messages per critical section (the
// trace's acquire count) and the pages the run re-homed, verifying the
// image along the way.
func msgsPerCritsec(t testing.TB, name string, rc repro.RuntimeConfig) (perCrit float64, rehomed int64) {
	ref, err := repro.ExecuteWorkload(name, gateProcs, gateScale, gateSeed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.RunWorkloadOnRuntime(name, gateProcs, gateScale, gateSeed, rc)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Image) != string(ref.Image) {
		t.Fatalf("%s: runtime image diverges from reference", name)
	}
	crit := ref.Trace.Count().Acquires
	if crit == 0 {
		t.Fatalf("%s: trace has no critical sections", name)
	}
	for _, ns := range res.Nodes {
		rehomed += ns.PageMigrations
	}
	return float64(res.Net.Messages) / float64(crit), rehomed
}

// TestFirstTouchTrafficGate: on water under EI, first-touch placement
// must move at most 0.85x the block placement's messages per critical
// section, with pages actually re-homed and the image identical.
func TestFirstTouchTrafficGate(t *testing.T) {
	rc := repro.RuntimeConfig{PageSize: gatePageSize, Mode: repro.EagerInvalidate}
	block, _ := msgsPerCritsec(t, "water", rc)
	rc.Placement = "first-touch"
	ft, rehomed := msgsPerCritsec(t, "water", rc)
	t.Logf("water/EI: block %.2f msgs/critsec, first-touch %.2f (%.2fx), %d pages re-homed",
		block, ft, ft/block, rehomed)
	if rehomed == 0 || ft > firstTouchGateMargin*block {
		t.Errorf("first-touch moved %.2fx the block placement's messages with %d pages re-homed, want <= %.2fx and > 0",
			ft/block, rehomed, firstTouchGateMargin)
	}
}

// BenchmarkPlacementPolicies emits the msgs/critsec series of both
// placement policies, per protocol, on the writer-dominant partition
// workload (see internal/workload/partition.go) as benchmark metrics.
func BenchmarkPlacementPolicies(b *testing.B) {
	const name = "partition"
	for _, m := range repro.DSMModes {
		for _, placement := range []string{"block", "first-touch"} {
			b.Run(name+"/"+m.String()+"/"+placement, func(b *testing.B) {
				var v float64
				for i := 0; i < b.N; i++ {
					v, _ = msgsPerCritsec(b, name, repro.RuntimeConfig{
						PageSize: gatePageSize, Mode: m, Placement: placement,
					})
				}
				b.ReportMetric(v, "msgs/critsec")
			})
		}
	}
}
