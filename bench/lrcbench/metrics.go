package main

import "time"

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func perSecond(ops float64, d time.Duration) float64 { return ratio(ops, d.Seconds()) }

// medianOver reduces per-run metric sets to one set: the median of each
// metric over the runs (the value itself for a single run).
func medianOver(runs []map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for name := range runs[0] {
		vals := make([]float64, len(runs))
		for i, r := range runs {
			vals[i] = r[name]
		}
		out[name] = median(vals)
	}
	return out
}

// stealShare is the share of the host's CPU time over the timed section
// that the hypervisor gave to someone else: the first thing to look at
// when a run's timings disagree with its neighbours'.
func (r *runResult) stealShare() float64 {
	return ratio(r.delta.rt.hostSteal, r.delta.rt.hostBusy)
}

// throughput is the run's ops per second: for a synthetic workload the
// median rate of the parts its timed steps were cut into, otherwise ops
// over the elapsed time.
func (r *runResult) throughput() float64 {
	if len(r.windowRates) > 0 {
		return median(r.windowRates)
	}
	return perSecond(float64(r.ops), r.elapsed)
}

// untracedMetrics derives, from the untraced runs of one workload, the
// end-to-end metrics and the run.* timings. Set-up is reported in
// calibrated CPU seconds: each repetition's CPU time over the CPU time
// of the calibration kernel run just before it, times the kernel's
// nominal cost (see calibrate and the README).
func untracedMetrics(results []*runResult) map[string]float64 {
	runs := make([]map[string]float64, len(results))
	for i, r := range results {
		ops := float64(r.ops)
		runs[i] = map[string]float64{
			"msgs_per_op":        ratio(float64(r.delta.net.Messages), ops),
			"wire_bytes_per_op":  ratio(float64(r.delta.net.Bytes), ops),
			"alloc_bytes_per_op": ratio(float64(r.delta.rt.allocBytes), ops),

			"run.ops_per_s":     r.throughput(),
			"run.cpu_us_per_op": ratio(r.delta.rt.cpu*1e6, ops),
			"run.sync_p50_us":   float64(percentile(r.sync, 50)) / 1e3,
			"run.sync_p99_us":   float64(percentile(r.sync, 99)) / 1e3,
			"run.miss_p50_us":   float64(percentile(r.miss, 50)) / 1e3,
			"run.miss_p99_us":   float64(percentile(r.miss, 99)) / 1e3,
			"run.sustain_ratio": ratio(float64(r.quarter[0]), float64(r.quarter[1])),
			"run.steal_share":   r.stealShare(),
		}
	}
	m := medianOver(runs)
	var calibrated, cpu, wall, calib []float64
	for _, rep := range results[0].setups {
		calibrated = append(calibrated, calibrationNominal*ratio(rep.cpu, rep.calib))
		cpu, wall, calib = append(cpu, rep.cpu), append(wall, rep.wall.Seconds()), append(calib, 1e3*rep.calib)
	}
	m["setup_s"] = median(calibrated)
	m["run.setup_cpu_s"] = median(cpu)
	m["run.setup_wall_s"] = median(wall)
	m["run.calibration_ms"] = median(calib)
	m["run.warmup_s"] = results[0].warmup.Seconds()
	m["peak_rss_mb"] = peakRSSMB()
	return m
}

// layerMetrics derives one traced run's per-layer metrics: span
// aggregates for the access and sync layers, public counter deltas for
// engine, wire, outbox, transport and the Go runtime.
func layerMetrics(r *runResult, rttUs float64) map[string]float64 {
	ops := float64(r.ops)
	sum := r.delta.engine
	per := func(n int64) float64 { return ratio(float64(n), ops) }
	agg, selfNs := mergedAgg(r.traces)
	both := func(k spanKind) spanAgg {
		return spanAgg{n: agg[k][0].n + agg[k][1].n, ns: agg[k][0].ns + agg[k][1].ns}
	}
	var skew float64
	for _, e := range r.episodes {
		skew += float64(e.skew)
	}
	framesPerOp := per(r.delta.net.Frames)

	m := map[string]float64{
		"access.read_hit_ns":    agg[spRead][0].meanNs(),
		"access.write_hit_ns":   agg[spWrite][0].meanNs(),
		"access.write_first_ns": agg[spWrite][1].meanNs(),

		"sync.acquire_mean_us":      both(spAcquire).meanNs() / 1e3,
		"sync.release_mean_us":      both(spRelease).meanNs() / 1e3,
		"sync.barrier_wait_mean_us": r.barWaitNs / 1e3,
		"sync.barrier_skew_mean_us": ratio(skew, float64(len(r.episodes))) / 1e3,

		"engine.access_misses_per_op":    per(sum.AccessMisses),
		"engine.diffs_fetched_per_op":    per(sum.DiffsFetched),
		"engine.diffs_applied_per_op":    per(sum.DiffsApplied),
		"engine.diffs_created_per_op":    per(sum.DiffsCreated),
		"engine.diffs_deferred_per_op":   per(sum.DiffsDeferred),
		"engine.diff_cache_hits_per_op":  per(sum.DiffCacheHits),
		"engine.diffs_flattened_per_op":  per(sum.DiffsFlattened),
		"engine.pages_fetched_per_op":    per(sum.PagesFetched),
		"engine.intervals_per_op":        per(sum.IntervalsCreated),
		"engine.flushed_pages_per_op":    per(sum.FlushedPages),
		"engine.updates_received_per_op": per(sum.UpdatesReceived),
		"engine.gc_runs":                 float64(sum.GCRuns),
		"engine.twin_bytes_live_end":     float64(sum.TwinBytesLive),
		"engine.miss_mean_us":            mean(r.miss) / 1e3,
		"engine.ops_per_s_first_quarter": perSecond(ops/4, r.quarter[0]),
		"engine.ops_per_s_last_quarter":  perSecond(ops/4, r.quarter[1]),
		"wire.bytes_per_msg":             ratio(float64(r.delta.net.Bytes), float64(r.delta.net.Messages)),
		"outbox.msgs_per_frame":          ratio(float64(sum.SentMsgs), float64(sum.SentFrames)),
		"outbox.batch_share":             ratio(float64(sum.SentBatches), float64(sum.SentFrames)),
		"transport.frames_per_op":        framesPerOp,
		"transport.est_us_per_op":        framesPerOp * rttUs / 2, // computed, not measured
		"model.msgs_per_op":              0,
		"model.bytes_per_op":             0,
		"model.live_over_model_msgs":     0,
		"model.live_over_model_bytes":    0,
		"go.allocs_per_op":               per(int64(r.delta.rt.mallocs)),
		"go.cpu_us_per_op":               ratio(r.delta.rt.cpu*1e6, ops),
		"go.gc_cpu_share":                ratio(r.delta.rt.gcCPU, r.delta.rt.totalCPU),
		"host.steal_share":               r.stealShare(),
		"go.heap_inuse_end_mb":           float64(r.delta.rt.heapInuse) / (1 << 20),
		"trace.op_self_mean_us":          ratio(float64(selfNs), float64(agg[spOp][0].n)) / 1e3,
	}
	for _, k := range tracedKinds {
		m["wire.kind."+k.String()+".msgs_per_op"] = per(sum.KindMsgs[k])
		m["wire.kind."+k.String()+".bytes_per_op"] = per(sum.KindBytes[k])
	}
	if r.model.stats != nil {
		// The model covers the program's first steps (cold start included,
		// amortized over modelEvents events), the live counts the timed
		// section; both are per op.
		modelOps := float64(r.model.ops)
		msgs, bytes := ratio(float64(r.model.stats.TotalMessages()), modelOps), ratio(float64(r.model.stats.TotalBytes()), modelOps)
		m["model.msgs_per_op"] = msgs
		m["model.bytes_per_op"] = bytes
		m["model.live_over_model_msgs"] = ratio(per(r.delta.net.Messages), msgs)
		m["model.live_over_model_bytes"] = ratio(per(r.delta.net.Bytes), bytes)
	}
	return m
}

// perLayerMetrics combines the traced runs of one workload, the untraced
// runs of the same length they are compared with, and the layer probes.
func perLayerMetrics(spec *workloadSpec, traced, untraced []*runResult, probes map[string]float64) map[string]float64 {
	rtt := probes["transport.simnet_rtt_64_us"]
	if spec.tcp {
		rtt = probes["transport.tcp_rtt_64_us"]
	}
	runs := make([]map[string]float64, len(traced))
	for i, r := range traced {
		runs[i] = layerMetrics(r, rtt)
	}
	m := medianOver(runs)
	for name, v := range probes {
		m[name] = v
	}
	m["go.peak_rss_mb"] = peakRSSMB()
	off := untracedMetrics(untraced)
	for _, d := range runTimings {
		m[d.name] = off[d.name]
	}
	var on []float64
	for _, r := range traced {
		on = append(on, r.throughput())
	}
	m["trace.overhead_share"] = 1 - ratio(median(on), off["run.ops_per_s"])
	return m
}
