package main

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/dsm"
	"repro/internal/wire"
)

// schemaVersion names the layout of every JSON document lrcbench writes.
const schemaVersion = "lrcbench/1"

// workloadSpec describes one workload. Run length is a fixed op count
// derived from the requested seconds, never a duration: per-op cost
// depends on how much interval history a run has accumulated, so only
// runs of equal length compare.
type workloadSpec struct {
	name string
	mode dsm.Mode
	tcp  bool
	// nominal is the number of timed steps (splash-water: runs) per ten
	// requested seconds, sized so the timed section takes about that long
	// on the two-core development box.
	nominal int
	program func(seed int64) stepProgram // nil for splash-water
	// syncOnBarrier: the workload takes no locks, so sync_* is the cost
	// of a barrier episode instead of the time blocked in Acquire.
	syncOnBarrier        bool
	op, syncDef, missDef string
}

const (
	acquireDef = "time blocked in Node.Acquire"
	episodeDef = "barrier episode: last node's Barrier return minus last node's Barrier call"
)

var workloads = []*workloadSpec{
	{name: "hit-private", mode: dsm.LazyInvalidate, nominal: 3600, syncOnBarrier: true,
		program: func(seed int64) stepProgram { return newHitPrivate(seed) },
		op:      "one 8-byte access", syncDef: episodeDef,
		missDef: "first write to a page after the barrier (twin capture, no messages)"},
	{name: "lock-ring", mode: dsm.LazyInvalidate, nominal: 1600,
		program: func(seed int64) stepProgram { return newLockRing(seed) },
		op:      "one critical section", syncDef: acquireDef,
		missDef: "first Read of the 64-byte record after the Acquire that invalidated it"},
	{name: "lock-ring-tcp", mode: dsm.LazyInvalidate, tcp: true, nominal: 1600,
		program: func(seed int64) stepProgram { return newLockRing(seed) },
		op:      "one critical section", syncDef: acquireDef,
		missDef: "first Read of the 64-byte record after the Acquire that invalidated it"},
	{name: "barrier-slab", mode: dsm.LazyInvalidate, nominal: 9000, syncOnBarrier: true,
		program: func(seed int64) stepProgram { return newBarrierSlab(seed) },
		op:      "one step of the whole cluster", syncDef: episodeDef,
		missDef: "Read of a foreign page after the barrier that invalidated it"},
	{name: "barrier-slab-eu", mode: dsm.EagerUpdate, nominal: 9000, syncOnBarrier: true,
		program: func(seed int64) stepProgram { return newBarrierSlab(seed) },
		op:      "one step of the whole cluster", syncDef: episodeDef,
		missDef: "Read of a foreign page after the barrier that updated it (a hit)"},
	{name: "splash-water", mode: dsm.LazyInvalidate, nominal: 7,
		op: "one Acquire event of the reference trace", syncDef: acquireDef,
		missDef: "first access after an Acquire (the lock-protected datum)"},
}

func findWorkload(name string) *workloadSpec {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metricDef is a metric's name and unit as printed.
type metricDef struct{ name, unit string }

// endToEnd lists the bounded metrics: what a user of the runtime pays
// per op in messages, bytes and memory — the paper's two numbers among
// them — plus set-up. Every workload reports every one, from an
// untraced run. Timings are not here: on the shared two-core box they
// swing by more than any admissible bound between identical runs (see
// README, Measured spread), so they are reported as run.* below.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"msgs_per_op", "msgs/op"},
	{"wire_bytes_per_op", "B/op"},
	{"alloc_bytes_per_op", "B/op"},
	{"peak_rss_mb", "MB"},
}

// runTimings are the user-visible timings of an untraced run: the
// end-to-end metrics one would bound on a quiet machine. A full run
// reports them from the full-length run; a --trace 1 run reports them,
// as per-layer metrics, from its untraced run of one eighth the length.
var runTimings = []metricDef{
	{"run.ops_per_s", "op/s"},
	{"run.cpu_us_per_op", "us"},
	{"run.sync_p50_us", "us"},
	{"run.sync_p99_us", "us"},
	{"run.miss_p50_us", "us"},
	{"run.miss_p99_us", "us"},
	{"run.sustain_ratio", "ratio"},
	{"run.steal_share", "ratio"},
	{"run.setup_cpu_s", "s"},
	{"run.setup_wall_s", "s"},
	{"run.calibration_ms", "ms"},
	{"run.warmup_s", "s"},
}

// untracedDefs is what a full run records for an untraced run.
var untracedDefs = append(append([]metricDef(nil), endToEnd...), runTimings...)

// tracedKinds are the message kinds the workloads can generate.
var tracedKinds = []wire.Kind{
	wire.KLockReq, wire.KLockFwd, wire.KLockGrant, wire.KDiffReq, wire.KDiffResp,
	wire.KPageReq, wire.KPageResp, wire.KBarrierArrive, wire.KBarrierExit,
	wire.KGCReady, wire.KGCDone, wire.KFlushReq, wire.KFlushDone,
	wire.KUpdate, wire.KUpdateAck, wire.KFetch, wire.KFetchResp,
}

// perLayer lists the unbounded metrics of a --trace 1 run: the run.*
// timings, then the metrics of single layers (layer = repo module) from
// the traced run and the layer probes. Probe values do not depend on
// the workload; a metric that does not apply to a workload reads 0.
var perLayer = func() []metricDef {
	defs := append([]metricDef(nil), runTimings...)
	defs = append(defs, []metricDef{
		{"access.read_hit_ns", "ns"}, {"access.write_hit_ns", "ns"}, {"access.write_first_ns", "ns"},
		{"access.allocs_per_op", "1/op"},
		{"sync.acquire_mean_us", "us"}, {"sync.release_mean_us", "us"},
		{"sync.barrier_wait_mean_us", "us"}, {"sync.barrier_skew_mean_us", "us"},
		{"engine.access_misses_per_op", "1/op"}, {"engine.diffs_fetched_per_op", "1/op"},
		{"engine.diffs_applied_per_op", "1/op"}, {"engine.diffs_created_per_op", "1/op"},
		{"engine.diffs_deferred_per_op", "1/op"}, {"engine.diff_cache_hits_per_op", "1/op"},
		{"engine.diffs_flattened_per_op", "1/op"}, {"engine.pages_fetched_per_op", "1/op"},
		{"engine.intervals_per_op", "1/op"}, {"engine.flushed_pages_per_op", "1/op"},
		{"engine.updates_received_per_op", "1/op"}, {"engine.gc_runs", "count"},
		{"engine.twin_bytes_live_end", "B"}, {"engine.miss_mean_us", "us"},
		{"engine.ops_per_s_first_quarter", "op/s"}, {"engine.ops_per_s_last_quarter", "op/s"},
		{"page.makediff_sparse_ns", "ns"}, {"page.makediff_dense_ns", "ns"},
		{"page.apply_sparse_ns", "ns"}, {"page.apply_dense_ns", "ns"},
		{"page.wirebody_dense_ns", "ns"}, {"page.flatten4_dense_ns", "ns"},
		{"wire.encode_small_ns", "ns"}, {"wire.decode_small_ns", "ns"},
		{"wire.encode_diff4k_ns", "ns"}, {"wire.decode_diff4k_ns", "ns"},
		{"wire.bytes_per_msg", "B/msg"},
	}...)
	for _, k := range tracedKinds {
		defs = append(defs,
			metricDef{"wire.kind." + k.String() + ".msgs_per_op", "msgs/op"},
			metricDef{"wire.kind." + k.String() + ".bytes_per_op", "B/op"})
	}
	return append(defs, []metricDef{
		{"outbox.msgs_per_frame", "msgs/frame"}, {"outbox.batch_share", "ratio"},
		{"transport.simnet_rtt_64_us", "us"}, {"transport.simnet_rtt_4k_us", "us"},
		{"transport.tcp_rtt_64_us", "us"}, {"transport.tcp_rtt_4k_us", "us"},
		{"transport.frames_per_op", "1/op"}, {"transport.est_us_per_op", "us"},
		{"model.msgs_per_op", "msgs/op"}, {"model.bytes_per_op", "B/op"},
		{"model.live_over_model_msgs", "ratio"}, {"model.live_over_model_bytes", "ratio"},
		{"go.allocs_per_op", "1/op"}, {"go.cpu_us_per_op", "us"}, {"go.gc_cpu_share", "ratio"},
		{"go.peak_rss_mb", "MB"}, {"go.heap_inuse_end_mb", "MB"}, {"host.steal_share", "ratio"},
		{"trace.op_self_mean_us", "us"}, {"trace.overhead_share", "ratio"},
	}...)
}()

// benchmarkFile mirrors BENCHMARK.json, the contract the driver and
// -compare read metric bounds and directions from.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []boundedMetric `json:"end_to_end"`
	PerLayer []boundedMetric `json:"per_layer"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}
