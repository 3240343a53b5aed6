package main

import (
	"encoding/json"
	"regexp"
	"testing"
	"time"
)

// TestEveryMetricIsProduced runs a short traced lock-ring and quick
// probes and checks that both metric families come out complete, with
// exactly the declared names.
func TestEveryMetricIsProduced(t *testing.T) {
	spec := findWorkload("lock-ring")
	res := runSteps(spec, 1, 8, 2, true)
	if res.failed != 0 {
		t.Fatalf("failed %d: %v", res.failed, res.errs)
	}
	probes, spans, err := runProbes(time.Millisecond, probeBatch)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != len(probes) {
		t.Errorf("%d probe spans for %d probes", len(spans), len(probes))
	}
	layer := perLayerMetrics(spec, []*runResult{res}, []*runResult{res}, probes)
	if len(layer) != len(perLayer) {
		t.Errorf("%d per-layer values for %d declared metrics", len(layer), len(perLayer))
	}
	for _, d := range perLayer {
		if _, ok := layer[d.name]; !ok {
			t.Errorf("per-layer metric %s is not produced", d.name)
		}
	}
	for _, name := range []string{"run.ops_per_s", "run.sync_p99_us", "sync.acquire_mean_us", "engine.diffs_fetched_per_op", "wire.kind.lockgrant.msgs_per_op",
		"page.makediff_dense_ns", "wire.decode_diff4k_ns", "transport.tcp_rtt_64_us", "transport.frames_per_op", "trace.op_self_mean_us"} {
		if layer[name] <= 0 {
			t.Errorf("%s = %g on lock-ring, want > 0", name, layer[name])
		}
	}
	untraced := untracedMetrics([]*runResult{res})
	if len(untraced) != len(untracedDefs) {
		t.Errorf("%d untraced values for %d declared metrics", len(untraced), len(untracedDefs))
	}
	for _, d := range untracedDefs {
		if v, ok := untraced[d.name]; !ok || v <= 0 && d.name != "run.steal_share" {
			t.Errorf("untraced metric %s = %g (present %v), want > 0", d.name, v, ok)
		}
	}
	if len(res.setups) != 2 {
		t.Errorf("%d set-up repetitions recorded, want 2", len(res.setups))
	}
}

// TestBenchmarkFileMatchesTables keeps BENCHMARK.json, which the driver
// and -compare read, in step with the tables the binary reports from,
// and inside the contract's limits.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	f, err := loadBenchmarkFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	check := func(family string, got []boundedMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the binary", family, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit {
				t.Errorf("%s[%d] = %s (%s), binary reports %s (%s)", family, i, m.Name, m.Unit, want[i].name, want[i].unit)
			}
			if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) {
				t.Errorf("%s: name %q or unit %q outside the contract's alphabet", family, m.Name, m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s: %s has direction %q", family, m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) || !bounded && m.Bound != 0 {
				t.Errorf("%s: %s has bound %g", family, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
	if len(f.PerLayer) > 128 || len(f.EndToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the contract's 128 and 16", len(f.PerLayer), len(f.EndToEnd))
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %d = %q with a why of %d characters", i, w.Name, len(w.Why))
		}
	}
	raw, _ := json.Marshal(f)
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
}
