// Package repro is a Go reproduction of "Lazy Release Consistency for
// Software Distributed Shared Memory" (Keleher, Cox, Zwaenepoel, ISCA
// 1992).
//
// It provides two complementary artifacts:
//
//   - A trace-driven protocol simulator reproducing the paper's
//     evaluation: four release-consistency protocols — lazy invalidate
//     (LI), lazy update (LU), and the Munin-style eager invalidate (EI)
//     and eager update (EU) — plus an Ivy-style sequentially consistent
//     baseline (SC), replayed over synthetic 16-processor traces of the
//     five SPLASH programs the paper used, across page sizes 512..8192.
//     See Simulate and GenerateTrace.
//
//   - A live DSM runtime implementing the same protocol matrix end to
//     end (the implementation the paper's §7 promises): goroutine-backed
//     nodes exchanging write notices, twins, diffs, invalidations and
//     page ships over a pluggable interconnect, with the consistency
//     policy — LI, LU, EI, EU or SC — selected per instance
//     (DSMConfig.Mode; every node of a cluster runs the same one). See
//     NewDSM. A node is one processor, as in the paper, driven by one
//     application goroutine: a second goroutine's concurrent call on it
//     fails with a descriptive error. Its Stats and ID, and a DSM's
//     Status, are safe from any goroutine. Per-page sharded protocol
//     state lets the node's handler workers serve peers beside it.
//
// The runtime's API is redesigned at both boundaries:
//
//   - Below, the interconnect is a Transport (see DSMConfig.Transport):
//     the default is a simulated in-process reliable FIFO network, and
//     NewTCPTransport runs the same protocols over real length-prefixed
//     TCP streams, one endpoint per OS process, so a DSM cluster spans
//     processes and machines (NewLoopbackTCPCluster builds an in-process
//     multi-listener cluster for tests and experiments).
//
//   - Above, applications program against the typed shared-memory façade
//     instead of raw byte offsets: an Arena bump-allocates the shared
//     space into Var[T] and Array[T] handles (uint64 and byte payloads)
//     and hands out Lock and Barrier objects; Locked brackets a critical
//     section. Handles are pure layout descriptions, so the same schema
//     works from every node — and, over TCP, from every process — as
//     long as each constructs it identically.
//
// The package re-exports the internal building blocks' primary types via
// aliases, so downstream code can use the library without reaching into
// internal packages.
package repro

import (
	"repro/internal/dsm"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/shm"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/transport/fault"
	"repro/internal/transport/tcp"
	"repro/internal/workload"
)

// Identifier and configuration aliases.
type (
	// ProcID identifies a processor.
	ProcID = mem.ProcID
	// Addr is a byte offset into the shared address space.
	Addr = mem.Addr
	// LockID identifies an exclusive lock.
	LockID = mem.LockID
	// BarrierID identifies a barrier.
	BarrierID = mem.BarrierID
	// Layout describes a shared address space divided into pages.
	Layout = mem.Layout
	// Trace is a globally-ordered shared-memory execution trace.
	Trace = trace.Trace
	// TraceEvent is one trace record.
	TraceEvent = trace.Event
	// Options toggles protocol ablations (piggybacking, diffs,
	// multiple-writer).
	Options = proto.Options
	// Stats is a protocol engine's accumulated metrics.
	Stats = proto.Stats
	// Result is one (workload, protocol, page size) sweep point.
	Result = sim.Result
	// DSM is a live distributed-shared-memory instance running one of
	// the five consistency protocols.
	DSM = dsm.System
	// DSMConfig configures a live DSM instance.
	DSMConfig = dsm.Config
	// DSMMode selects the runtime's consistency protocol (LI, LU, EI,
	// EU or SC).
	DSMMode = dsm.Mode
	// Node is one live DSM processor handle.
	Node = dsm.Node
	// NodeStats is a live node's accumulated protocol metrics, including
	// the per-kind traffic breakdown.
	NodeStats = dsm.Stats
	// Transport is the runtime's pluggable interconnect: the simulated
	// in-process network by default (DSMConfig.Transport nil), or a real
	// TCP cluster via NewTCPTransport.
	Transport = dsm.Transport
	// TransportStats is a snapshot of interconnect traffic counters.
	TransportStats = dsm.TransportStats
	// WorkloadResult is a lockstep workload execution: the trace plus the
	// reference memory image.
	WorkloadResult = workload.Result
	// RuntimeConfig configures a workload execution on the live runtime.
	RuntimeConfig = workload.RuntimeConfig
	// RuntimeResult is a completed workload execution on the live runtime.
	RuntimeResult = workload.RuntimeResult
	// MetricsRegistry collects live counters, gauges and histograms for
	// the Prometheus text endpoint (DSMConfig.Metrics, ObsServer).
	MetricsRegistry = obs.Registry
	// Tracer records protocol events into a bounded ring, dumpable as
	// Chrome trace_event JSON (DSMConfig.Tracer).
	Tracer = obs.Tracer
	// ObsServer serves /metrics, /statusz and /trace over HTTP.
	ObsServer = obs.Server
	// DSMStatus is a live DSM instance's /statusz snapshot.
	DSMStatus = dsm.Status
	// FaultPlan is a deterministic fault-injection schedule for a
	// transport: drop/duplicate/delay probabilities, a static partition,
	// and a fail-stop kill (see ParseFaultPlan, WrapFaultTransport).
	FaultPlan = fault.Plan
)

// Typed shared-memory façade aliases (package internal/shm): program
// against named handles, not hand-computed page offsets.
type (
	// SharedMem is the raw node surface the typed handles drive; *Node
	// satisfies it.
	SharedMem = shm.Mem
	// Arena bump-allocates a shared address space into typed handles and
	// synchronization objects. Every node (or process) must construct
	// the same schema in the same order.
	Arena = shm.Arena
	// Var is a typed handle to one shared value.
	Var[T shm.Value] = shm.Var[T]
	// Array is a typed handle to n shared values at a fixed stride.
	Array[T shm.Value] = shm.Array[T]
	// Bytes is a handle to a fixed-size raw byte region.
	Bytes = shm.Bytes
	// BytesArray is a handle to n raw byte regions at a fixed stride.
	BytesArray = shm.BytesArray
	// Lock is a first-class handle to an exclusive runtime lock.
	Lock = shm.Lock
	// Barrier is a first-class handle to a runtime barrier.
	Barrier = shm.Barrier
)

// NewArena returns an empty allocator over a layout (see DSM.Layout).
func NewArena(l *Layout) *Arena { return shm.NewArena(l) }

// NewVar allocates one naturally-aligned shared value.
func NewVar[T shm.Value](a *Arena) Var[T] { return shm.NewVar[T](a) }

// NewArray allocates n densely-packed shared values.
func NewArray[T shm.Value](a *Arena, n int) Array[T] { return shm.NewArray[T](a, n) }

// NewStridedArray allocates n shared values spaced stride bytes apart
// (pad hot elements apart to curb false sharing).
func NewStridedArray[T shm.Value](a *Arena, n, stride int) Array[T] {
	return shm.NewStridedArray[T](a, n, stride)
}

// NewBytes allocates one raw byte region.
func NewBytes(a *Arena, size int) Bytes { return shm.NewBytes(a, size) }

// NewBytesArray allocates n size-byte regions spaced stride bytes apart.
func NewBytesArray(a *Arena, n, size, stride int) BytesArray {
	return shm.NewBytesArray(a, n, size, stride)
}

// Locked runs body on m while holding l.
func Locked(m SharedMem, l Lock, body func() error) error { return shm.Locked(m, l, body) }

// Live DSM consistency modes: the full protocol matrix of the paper's
// evaluation runs on the runtime.
const (
	// LazyInvalidate is the LI protocol (§4.3.2).
	LazyInvalidate = dsm.LazyInvalidate
	// LazyUpdate is the LU protocol (§4.3.2).
	LazyUpdate = dsm.LazyUpdate
	// EagerInvalidate is the EI protocol (§3).
	EagerInvalidate = dsm.EagerInvalidate
	// EagerUpdate is the EU protocol (§3).
	EagerUpdate = dsm.EagerUpdate
	// SeqConsistent is the SC (Ivy-style) baseline (§6).
	SeqConsistent = dsm.SeqConsistent
)

// DSMModes lists every live runtime mode (LI, LU, EI, EU, SC).
var DSMModes = dsm.Modes

// ParseDSMMode maps a protocol name to its live runtime mode.
func ParseDSMMode(s string) (DSMMode, error) { return dsm.ParseMode(s) }

// Protocols lists the four protocols of the paper's evaluation.
var Protocols = sim.ProtocolNames

// AllProtocols additionally includes the SC (Ivy) baseline.
var AllProtocols = sim.AllProtocolNames

// Workloads lists the workload generators: the five SPLASH-like
// kernels plus the writer-dominant partition pattern.
var Workloads = workload.Names

// PaperPageSizes lists the page sizes the paper sweeps (bytes).
var PaperPageSizes = mem.PaperPageSizes

// PaperProcs is the processor count of the paper's traces.
const PaperProcs = 16

// GenerateTrace produces (and memoizes) the named workload's execution
// trace: a legal, globally-ordered, page-size-independent event sequence
// with the SPLASH program's documented sharing structure. scale 1.0 is the
// repository's standard size; the paper's qualitative results hold at any
// scale.
func GenerateTrace(name string, procs int, scale float64, seed int64) (*Trace, error) {
	return workload.GenerateCached(name, procs, scale, seed)
}

// Simulate replays a trace against one protocol at one page size and
// returns the message/data statistics.
func Simulate(t *Trace, protocol string, pageSize int, opts Options) (*Stats, error) {
	return sim.Run(t, protocol, pageSize, opts)
}

// Sweep replays a trace against every (protocol, page size) combination —
// the computation behind each of the paper's figures — running the points
// in parallel.
func Sweep(t *Trace, protocols []string, pageSizes []int, opts Options) ([]Result, error) {
	return sim.Sweep(t, protocols, pageSizes, opts)
}

// Series extracts one protocol's metric ("messages" or "data") from sweep
// results in the given page-size order.
func Series(results []Result, protocol string, pageSizes []int, metric string) ([]int64, error) {
	return sim.Series(results, protocol, pageSizes, metric)
}

// NewDSM starts a live DSM over the configured transport (the simulated
// in-process interconnect when DSMConfig.Transport is nil).
func NewDSM(cfg DSMConfig) (*DSM, error) {
	return dsm.New(cfg)
}

// NewMetricsRegistry returns an empty metrics registry; pass it in
// DSMConfig.Metrics (or RuntimeConfig.Metrics) and serve it with
// StartObsServer.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewTracer returns a protocol-event ring tracer holding the most recent
// capacity events; pass it in DSMConfig.Tracer (or RuntimeConfig.Tracer).
func NewTracer(capacity int) *Tracer { return obs.NewTracer(capacity) }

// StartObsServer serves the observability endpoints on addr: /metrics
// (Prometheus text), /statusz (JSON), /trace (Chrome trace_event JSON) and
// the Go runtime's profiles under /debug/pprof/. Nil config pieces disable
// their endpoint.
func StartObsServer(addr string, r *MetricsRegistry, status func() any, t *Tracer) (*ObsServer, error) {
	return obs.StartServer(addr, obs.ServerConfig{Registry: r, Status: status, Tracer: t})
}

// NewSimNetTransport builds the simulated in-process interconnect
// explicitly — the same network DSMConfig.Transport nil selects — so it
// can be decorated (WrapFaultTransport) before handing it to NewDSM.
func NewSimNetTransport(n int) Transport { return simnet.New(n) }

// ParseFaultPlan parses a fault-injection spec like
// "drop=0.01,dup=0.005,delay=2ms,jitter=1ms,partition=2x2,kill=3@5000,seed=7".
func ParseFaultPlan(spec string) (FaultPlan, error) { return fault.Parse(spec) }

// WrapFaultTransport decorates a transport with a deterministic fault
// plan; the decorator owns the inner transport.
func WrapFaultTransport(tr Transport, p FaultPlan) Transport { return fault.Wrap(tr, p) }

// NewTCPTransport attaches this process to a TCP DSM cluster as endpoint
// self of the peer list (every entry a "host:port", identical in every
// process). Pass it in DSMConfig.Transport with Procs = len(peers); the
// resulting DSM hosts node self only, with the remaining nodes served by
// the peer processes.
func NewTCPTransport(self int, peers []string) (Transport, error) {
	return tcp.New(tcp.Config{Self: self, Peers: peers})
}

// NewLoopbackTCPCluster starts a full n-endpoint TCP cluster inside this
// process — one listener and one transport per endpoint on ephemeral
// 127.0.0.1 ports. Build one DSM per returned transport.
func NewLoopbackTCPCluster(n int) ([]Transport, error) {
	cluster, err := tcp.NewLoopbackCluster(n)
	if err != nil {
		return nil, err
	}
	trs := make([]Transport, len(cluster))
	for i, t := range cluster {
		trs[i] = t
	}
	return trs, nil
}

// ExecuteWorkload runs the named workload on the lockstep backend,
// returning (and memoizing) its trace and sequential-reference memory
// image.
func ExecuteWorkload(name string, procs int, scale float64, seed int64) (*WorkloadResult, error) {
	return workload.ExecuteCached(name, procs, scale, seed)
}

// RunWorkloadOnRuntime executes the named workload on the live DSM runtime
// — genuinely concurrent nodes under any of the five protocols, over the
// in-process interconnect or the transports in cfg.Transports — and
// returns the final memory image and traffic totals. For a
// properly-synchronized workload the image equals ExecuteWorkload's
// reference image.
func RunWorkloadOnRuntime(name string, procs int, scale float64, seed int64, cfg RuntimeConfig) (*RuntimeResult, error) {
	prog, err := workload.New(name, procs, scale, seed)
	if err != nil {
		return nil, err
	}
	return workload.RunOnRuntime(prog, cfg)
}
