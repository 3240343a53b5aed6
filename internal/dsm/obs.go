package dsm

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/wire"
)

// This file is the runtime's observability surface: live metrics
// registration into an obs.Registry, the /statusz snapshot, and the
// node-side trace emit helpers. Everything here is pay-for-use — a nil
// registry or tracer costs one pointer check per site, and the
// registered metric series are scrape-time callbacks over the atomics
// the runtime already maintains, so publication adds nothing to the
// paths that tick the counters.

// trafficRingLen is how many per-second traffic samples Status retains.
const trafficRingLen = 120

// rpcBuckets lays out the rpc latency histogram: 50µs to ~6.5s.
var rpcBuckets = obs.ExpBuckets(50e-6, 4, 9)

// missBuckets lays out the fault latency histogram: 5µs (a miss served from
// local state) to ~1.3s; missPageBuckets the pages per fault, 1 to 64.
var (
	missBuckets     = obs.ExpBuckets(5e-6, 4, 10)
	missPageBuckets = obs.ExpBuckets(1, 2, 7)
)

// observeMiss records one application fault that began at start and
// brought pages pages current. Call sites check n.missHist first: a fault
// is only timed when the histograms exist.
func (n *Node) observeMiss(start time.Time, pages int) {
	n.missHist.Observe(time.Since(start).Seconds())
	n.missPages.Observe(float64(pages))
}

// traceOn reports whether trace events are being recorded, for call
// sites that would otherwise build an event argument for nothing.
// Nil-safe for unit tests that build a bare Node without a System.
func (n *Node) traceOn() bool { return n.sys != nil && n.sys.cfg.Tracer.Enabled() }

// emit records one protocol event when tracing is configured.
func (n *Node) emit(cat, name string, arg int64) {
	if n.sys == nil {
		return
	}
	if t := n.sys.cfg.Tracer; t != nil {
		t.Emit(int32(n.id), cat, name, arg)
	}
}

// registerMetrics publishes the system's live counters into r:
// interconnect totals, per-node protocol counters, per-kind outbound
// traffic, and per node the rpc latency and fault histograms (the series
// that are observation-based rather than callbacks; rpcAll and the
// engines' miss paths observe into them only when they exist).
func (s *System) registerMetrics(r *obs.Registry) {
	counter := func(name, help string, fn func() int64) {
		r.CounterFunc(name, help, func() float64 { return float64(fn()) })
	}
	// System-level series carry an instance label (lowest local node id)
	// so several systems sharing one process — a loopback TCP cluster —
	// can publish into the same registry without colliding.
	inst := "none"
	if len(s.local) > 0 {
		inst = fmt.Sprintf("%d", s.local[0].id)
	}
	sys := func(fam string) string { return fmt.Sprintf("%s{inst=%q}", fam, inst) }
	r.GaugeFunc(sys("dsm_procs"), "cluster size (nodes)", func() float64 { return float64(s.cfg.Procs) })
	r.GaugeFunc(sys("dsm_pages"), "shared pages", func() float64 { return float64(s.layout.NumPages()) })

	counter(sys("dsm_net_messages_total"), "logical messages sent by this instance's endpoints",
		func() int64 { return s.tr.Totals().Messages })
	counter(sys("dsm_net_bytes_total"), "wire bytes sent", func() int64 { return s.tr.Totals().Bytes })
	counter(sys("dsm_twin_pool_misses_total"), "page-pool buffers allocated rather than recycled (process-wide)",
		func() int64 { _, misses := page.PoolStats(); return misses })

	for _, n := range s.local {
		node := fmt.Sprintf("%d", n.id)
		nodeCounter := func(fam, help string, fn func() int64) {
			counter(fmt.Sprintf("%s{node=%q}", fam, node), help, fn)
		}
		nodeCounter("dsm_node_access_misses_total", "application faults: accesses that found their page's copy invalid", n.stats.accessMisses.Load)
		nodeCounter("dsm_node_pages_aggregated_total", "invalid pages an LI fault brought current beside its own, from the responders it asked anyway (siblings)", n.stats.pagesAggregated.Load)
		nodeCounter("dsm_node_cold_misses_total", "cold misses (a page's first copy: fetched, or made zero where nothing known wrote it)", n.stats.coldMisses.Load)
		nodeCounter("dsm_node_diffs_applied_total", "diffs applied to local copies", n.stats.diffsApplied.Load)
		nodeCounter("dsm_node_diffs_fetched_total", "diffs fetched from concurrent last modifiers or creators", n.stats.diffsFetched.Load)
		nodeCounter("dsm_node_intervals_created_total", "intervals created", n.stats.intervalsCreated.Load)
		nodeCounter("dsm_node_pages_fetched_total", "whole pages fetched", n.stats.pagesFetched.Load)
		nodeCounter("dsm_node_page_forwards_total", "page requests a lazy home forwarded to the page's keeper", n.stats.pageForwards.Load)
		r.GaugeFunc(fmt.Sprintf("dsm_node_kept_pages{node=%q}", node),
			"homed pages whose copy a keeper holds", func() float64 { return float64(n.stats.keptPages.Load()) })
		nodeCounter("dsm_node_gc_runs_total", "garbage collection epochs completed (discards)", n.stats.gcRuns.Load)
		nodeCounter("dsm_node_diffs_discarded_total", "diffs discarded by GC", n.stats.diffsDiscarded.Load)
		r.GaugeFunc(fmt.Sprintf("dsm_node_log_records{node=%q}", node),
			"interval records the lazy log holds: the history since the last discarded GC epoch", func() float64 { return float64(n.stats.logRecords.Load()) })
		nodeCounter("dsm_node_diffs_created_total", "diffs cut from write logs", n.stats.diffsCreated.Load)
		nodeCounter("dsm_node_diff_cache_hits_total", "retained diff serves after the diff's first", n.stats.diffCacheHits.Load)
		nodeCounter("dsm_node_diffs_flattened_total", "diffs elided by multi-interval flattening", n.stats.diffsFlattened.Load)
		nodeCounter("dsm_node_diff_fallbacks_total", "wants a concurrent last modifier did not hold, asked again of their creators", n.stats.diffFallbacks.Load)
		r.GaugeFunc(fmt.Sprintf("dsm_node_twin_bytes_live{node=%q}", node),
			"bytes of old values the write logs hold", func() float64 { return float64(n.stats.twinBytesLive.Load()) })
		r.GaugeFunc(fmt.Sprintf("dsm_node_twin_bytes_peak{node=%q}", node),
			"high-water mark of bytes the write logs hold", func() float64 { return float64(n.stats.twinBytesPeak.Load()) })
		nodeCounter("dsm_node_flushed_pages_total", "dirty pages pushed at eager flush points", n.stats.flushedPages.Load)
		nodeCounter("dsm_node_invals_received_total", "invalidations applied", n.stats.invalsReceived.Load)
		nodeCounter("dsm_node_updates_received_total", "release-time updates applied", n.stats.updatesReceived.Load)
		nodeCounter("dsm_node_ownership_moves_total", "directory ownership transfers", n.stats.ownershipMoves.Load)
		nodeCounter("dsm_node_sent_msgs_total", "outbound logical messages", func() int64 { return n.stats.snapshot().SentMsgs })
		nodeCounter("dsm_node_sent_bytes_total", "outbound payload bytes", func() int64 { return n.stats.snapshot().SentBytes })
		for k := wire.Kind(1); int(k) < wire.NumKinds; k++ {
			if !k.Known() {
				continue // a retired kind
			}
			counter(fmt.Sprintf("dsm_node_kind_msgs_total{node=%q,kind=%q}", node, k.String()),
				"outbound messages by wire kind", n.stats.kindMsgs[k].Load)
			counter(fmt.Sprintf("dsm_node_kind_bytes_total{node=%q,kind=%q}", node, k.String()),
				"outbound bytes by wire kind", n.stats.kindBytes[k].Load)
		}
		n.rpcHist = r.Histogram(fmt.Sprintf("dsm_node_rpc_seconds{node=%q}", node),
			"rpc round-trip wait", rpcBuckets)
		n.missHist = r.Histogram(fmt.Sprintf("dsm_node_miss_seconds{node=%q}", node),
			"application fault service: cold fetch, diff round trip and apply", missBuckets)
		n.missPages = r.Histogram(fmt.Sprintf("dsm_node_miss_pages{node=%q}", node),
			"pages an application fault brought current", missPageBuckets)
	}
}

// NodeStatus is one node's entry in a Status snapshot.
type NodeStatus struct {
	ID    int   `json:"id"`
	Stats Stats `json:"stats"`
}

// Status is the /statusz snapshot: the live configuration, interconnect
// totals, each local node's counters, and the recent-traffic ring
// (present when Config.Metrics enabled the sampler).
type Status struct {
	Procs           int                 `json:"procs"`
	LocalNodes      []int               `json:"local_nodes"`
	Mode            string              `json:"mode"`
	PageSize        int                 `json:"page_size"`
	NumPages        int                 `json:"num_pages"`
	GCEveryBarriers int                 `json:"gc_every_barriers"`
	RPCTimeout      string              `json:"rpc_timeout"`
	Net             TransportStats      `json:"net"`
	Nodes           []NodeStatus        `json:"nodes"`
	Traffic         []obs.TrafficSample `json:"traffic,omitempty"`
}

// Status returns a live snapshot of the system for /statusz. Safe to
// call from any goroutine, concurrently with a running workload:
// counters are atomic reads.
func (s *System) Status() Status {
	st := Status{
		Procs:           s.cfg.Procs,
		Mode:            s.cfg.Mode.String(),
		PageSize:        s.layout.PageSize(),
		NumPages:        s.layout.NumPages(),
		GCEveryBarriers: s.cfg.GCEveryBarriers,
		RPCTimeout:      s.cfg.RPCTimeout.String(),
		Net:             s.tr.Totals(),
	}
	for _, n := range s.local {
		st.LocalNodes = append(st.LocalNodes, int(n.id))
		st.Nodes = append(st.Nodes, NodeStatus{ID: int(n.id), Stats: n.Stats()})
	}
	if s.ring != nil {
		st.Traffic = s.ring.Recent()
	}
	return st
}
