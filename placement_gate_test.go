package repro_test

import (
	"testing"

	"repro"
)

// Placement gate and benchmark: home migration earns its keep when, on
// a writer-dominant workload whose slabs are statically homed all over
// the cluster, re-homing each page to its dominant writer turns the
// recurring flush/directory exchanges with the home into free loopback.
// The partition workload is built for exactly this shape (see
// internal/workload/partition.go).

// migrationGateMargin is the required improvement: migration-on must
// move at least 15% fewer messages per critical section than the static
// block placement on at least one protocol.
const migrationGateMargin = 0.85

// migrateRC is the migration configuration under test for one protocol:
// static block placement, homes re-examined at every barrier.
func migrateRC(m repro.DSMMode) repro.RuntimeConfig {
	return repro.RuntimeConfig{
		PageSize: adaptPageSize, Mode: m, AdaptEveryBarriers: 1, MigrateHomes: true,
	}
}

// TestMigrationTrafficGate: on the writer-dominant partition workload,
// home migration must beat the static block placement by at least 15%
// messages per critical section on at least one protocol, and must
// actually migrate pages to get there.
func TestMigrationTrafficGate(t *testing.T) {
	if testing.Short() {
		t.Skip("migration gate sweeps every protocol twice; skipped in short mode")
	}
	const name = "partition"
	won := false
	for _, m := range repro.DSMModes {
		static := msgsPerCritsec(t, name, repro.RuntimeConfig{PageSize: adaptPageSize, Mode: m})
		res, err := repro.RunWorkloadOnRuntime(name, adaptProcs, adaptScale, adaptSeed, migrateRC(m))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := repro.ExecuteWorkload(name, adaptProcs, adaptScale, adaptSeed)
		if err != nil {
			t.Fatal(err)
		}
		if string(res.Image) != string(ref.Image) {
			t.Fatalf("%s/%s: migrated runtime image diverges from reference", name, m)
		}
		var moved int64
		for _, ns := range res.Nodes {
			moved += ns.PageMigrations
		}
		migrated := float64(res.Net.Messages) / float64(ref.Trace.Count().Acquires)
		t.Logf("%s/%s: static block %.1f msgs/critsec, migrated %.1f (%.0f%%), %d pages re-homed",
			name, m, static, migrated, 100*migrated/static, moved)
		if migrated <= migrationGateMargin*static && moved > 0 {
			won = true
		}
	}
	if !won {
		t.Errorf("home migration beat static block placement by %.0f%% on no protocol",
			100*(1-migrationGateMargin))
	}
}

// BenchmarkPlacementPolicies emits the msgs/critsec series behind the
// gate — every placement policy with migration off and on, per protocol
// — as benchmark metrics.
func BenchmarkPlacementPolicies(b *testing.B) {
	const name = "partition"
	for _, m := range repro.DSMModes {
		for _, placement := range []string{"block", "first-touch"} {
			b.Run(name+"/"+m.String()+"/"+placement, func(b *testing.B) {
				var v float64
				for i := 0; i < b.N; i++ {
					v = msgsPerCritsec(b, name, repro.RuntimeConfig{
						PageSize: adaptPageSize, Mode: m, Placement: placement,
					})
				}
				b.ReportMetric(v, "msgs/critsec")
			})
		}
		b.Run(name+"/"+m.String()+"/migrate", func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				v = msgsPerCritsec(b, name, migrateRC(m))
			}
			b.ReportMetric(v, "msgs/critsec")
		})
	}
}
