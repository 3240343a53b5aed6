package repro_test

import (
	"math"
	"testing"

	"repro"
)

// Adaptive routing gate and benchmark: the sharing-pattern classifier
// earns its keep when, on a heterogeneous SPLASH workload — private
// per-processor regions next to false-shared and migratory ones — it
// routes each page to the protocol its pattern favors and ends up moving
// no more traffic per critical section than the best uniform protocol,
// without being told which protocol that is.

const (
	adaptProcs    = 4
	adaptScale    = 0.1
	adaptSeed     = 42
	adaptPageSize = 1024
)

// adaptiveWorkloads are the SPLASH workloads the gate sweeps; the gate
// requires the classifier to win (or tie) the single-mode field on at
// least one of them. pthor is the reliably heterogeneous one — private
// per-element state beside migratory event queues — where mixed routing
// clearly beats every uniform protocol; mp3d and water are kept in the
// sweep as honest context (mp3d's barrier-flush shape favors uniform
// EI, which the lazy-family classifier does not target).
var adaptiveWorkloads = []string{"pthor", "water", "mp3d"}

// adaptiveRC is the classifier configuration under test: start uniform
// LU (the strongest all-round protocol in the paper's evaluation),
// reclassify every second barrier.
func adaptiveRC() repro.RuntimeConfig {
	return repro.RuntimeConfig{
		PageSize: adaptPageSize, Mode: repro.LazyUpdate, AdaptEveryBarriers: 2,
	}
}

// msgsPerCritsec runs one workload configuration on the live runtime and
// returns logical interconnect messages per critical section (the
// trace's acquire count), verifying the image along the way.
func msgsPerCritsec(t testing.TB, name string, rc repro.RuntimeConfig) float64 {
	ref, err := repro.ExecuteWorkload(name, adaptProcs, adaptScale, adaptSeed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.RunWorkloadOnRuntime(name, adaptProcs, adaptScale, adaptSeed, rc)
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
	return float64(res.Net.Messages) / float64(crit)
}

// TestAdaptiveTrafficGate: on at least one SPLASH workload, adaptive
// routing must move no more messages per critical section than the best
// protocol run uniformly. (Per-workload results are logged.)
func TestAdaptiveTrafficGate(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive gate sweeps every protocol over several workloads; skipped in short mode")
	}
	won := false
	for _, name := range adaptiveWorkloads {
		best, bestMode := math.Inf(1), ""
		for _, m := range repro.DSMModes {
			v := msgsPerCritsec(t, name, repro.RuntimeConfig{PageSize: adaptPageSize, Mode: m})
			t.Logf("%s/%s: %.1f msgs/critsec", name, m, v)
			if v < best {
				best, bestMode = v, m.String()
			}
		}
		ad := msgsPerCritsec(t, name, adaptiveRC())
		t.Logf("%s/adaptive: %.1f msgs/critsec (best single mode: %s at %.1f)", name, ad, bestMode, best)
		if ad <= best {
			won = true
		}
	}
	if !won {
		t.Error("adaptive routing beat the best single protocol on no workload")
	}
}

// BenchmarkAdaptiveWorkloads emits the msgs/critsec series behind the
// gate — every single-protocol run plus adaptive, per workload — as
// benchmark metrics.
func BenchmarkAdaptiveWorkloads(b *testing.B) {
	for _, name := range adaptiveWorkloads {
		for _, m := range repro.DSMModes {
			b.Run(name+"/"+m.String(), func(b *testing.B) {
				var v float64
				for i := 0; i < b.N; i++ {
					v = msgsPerCritsec(b, name, repro.RuntimeConfig{PageSize: adaptPageSize, Mode: m})
				}
				b.ReportMetric(v, "msgs/critsec")
			})
		}
		b.Run(name+"/adaptive", func(b *testing.B) {
			var v float64
			for i := 0; i < b.N; i++ {
				v = msgsPerCritsec(b, name, adaptiveRC())
			}
			b.ReportMetric(v, "msgs/critsec")
		})
	}
}
