package repro_test

import (
	"testing"

	"repro"
)

// Lazy-diff gate: deferring diff creation from interval close to first
// demand earns its keep when, on a multi-reader SPLASH workload, some
// intervals' diffs are never asked for before GC covers them — those
// MakeDiff executions simply vanish — while the diffs that are demanded
// get their wire encoding computed once and replayed to every further
// requester. Every interval close defers (DiffsDeferred counts the
// closes), so "fewer diffs than closes" is the win, read off one run.

// TestLazyDiffCreationGate: on the water workload under both lazy
// protocols — default page size, periodic GC so covered deferred diffs
// get reclaimed without ever being materialized — a run must (a) keep
// the image byte-identical to the reference, (b) compute strictly fewer
// diffs than it closed page-intervals, with at least one close deferred,
// and (c) serve at least one diff from the cached wire encoding.
func TestLazyDiffCreationGate(t *testing.T) {
	if testing.Short() {
		t.Skip("lazy-diff gate runs water under both lazy protocols; skipped in short mode")
	}
	const name = "water"
	ref, err := repro.ExecuteWorkload(name, gateProcs, gateScale, gateSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []repro.DSMMode{repro.LazyInvalidate, repro.LazyUpdate} {
		res, err := repro.RunWorkloadOnRuntime(name, gateProcs, gateScale, gateSeed,
			repro.RuntimeConfig{PageSize: gatePageSize, Mode: m, GCEveryBarriers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if string(res.Image) != string(ref.Image) {
			t.Fatalf("%s/%s: runtime image diverges from reference", name, m)
		}
		var created, deferred, cacheHits int64
		for _, ns := range res.Nodes {
			created += ns.DiffsCreated
			deferred += ns.DiffsDeferred
			cacheHits += ns.DiffCacheHits
		}
		t.Logf("%s/%s: %d diffs created of %d deferred closes, %d cache hits, %d msgs",
			name, m, created, deferred, cacheHits, res.Net.Messages)
		if deferred == 0 {
			t.Errorf("%s/%s: no interval close deferred its diff", name, m)
		}
		if created >= deferred {
			t.Errorf("%s/%s: created %d diffs, want strictly fewer than the %d deferred closes",
				name, m, created, deferred)
		}
		if cacheHits == 0 {
			t.Errorf("%s/%s: no diff served from the cached wire encoding", name, m)
		}
	}
}
