// Package dsm is a live software distributed shared memory runtime. Each
// node is one processor, driven by one application goroutine, and serves
// incoming protocol frames beside it on a worker pool that runs each
// peer's messages in the order it sent them and different peers' in
// parallel (Message order, node.go); nodes exchange real bytes (twins,
// diffs, write notices, vector clocks, invalidations, page ships) over a
// pluggable reliable FIFO interconnect (internal/transport) using the wire
// format of internal/wire.
//
// The consistency policy is pluggable: a protocol engine (see engine.go)
// owns page state, data movement and the consistency payload of
// synchronization messages, so the whole protocol matrix of the paper's
// evaluation runs live:
//
//   - LI / LU — lazy release consistency (§4): write notices ride lock
//     grants and barrier messages; LI invalidates at acquire and fetches
//     diffs at the next access miss, LU brings cached copies up to date
//     at acquire time. See lazyEngine.
//   - EI / EU — eager release consistency in the style of Munin's
//     write-shared protocol (§3): modifications are buffered until a
//     release or barrier and then pushed to every other cacher of each
//     dirty page — invalidations (EI) or diffs (EU) — before the release
//     completes. See eagerEngine.
//   - SC — a sequentially consistent Ivy-style baseline (§6): single
//     writer, write-invalidate, whole-page shipping with distributed
//     ownership transfer through each page's static home. See scEngine.
//
// The interconnect is equally pluggable (Config.Transport): the default
// is the simulated in-process network (internal/simnet, the paper's §5.1
// assumptions), and internal/transport/tcp runs the same protocols over
// real length-prefixed TCP streams, one endpoint per OS process. A
// System hosts the nodes local to its transport instance; with the
// default transport that is the whole cluster.
//
// Ordinary accesses are performed through an explicit Read/Write API
// rather than VM page protection: Go's runtime owns the process signal
// handling and heap, so access *detection* is by API call, which leaves
// the consistency protocol — the object of study — unchanged. The typed
// layer applications program against (allocator, Var/Array handles, lock
// and barrier objects) is internal/shm.
//
// Differences from the trace-driven simulator (internal/core et al.),
// chosen for correctness and simplicity over exact Table 1 message
// counts:
//
//   - lazy diffs are fetched, as the paper has it, from the hb-maximal
//     modifiers of the page, each of which keeps the diffs it made or
//     fetched until garbage collection — but one whose copy took a diff
//     in through a page ship or a merged range says it does not hold it,
//     and the miss asks that diff's creator in a second round; interval
//     records on the wire carry their vector timestamps;
//   - lazy diffs are fetched by round, one request per responder for
//     every page the round brings current, and an LI access fault brings
//     along every other invalid copy whose diffs its responders serve,
//     where the paper fetches page by page at each access miss; a page no
//     interval the node knows of wrote is zero locally until the first GC
//     sweep, where the paper's node fetches it from its home, and after
//     one the home forwards a request for a page it never touched to the
//     keeper a GC epoch named among the page's modifiers, a message the
//     model, which has no GC, does not count;
//   - an eager flush merges its diffs per destination, as the model
//     counts, but every page's home owns it and takes each diff: an EI
//     flush goes to the homes alone, and each invalidates the other
//     copies with one message per copy, naming the copy's pages of the
//     round, where the model merges them per cacher across the homes;
//     under EU a copy its writer did not yet know of is reached through
//     the home, at two messages more.
//
// The simulator remains the artifact that reproduces the paper's counts;
// this runtime is the artifact that proves each protocol moves the right
// bytes: its tests check that properly-synchronized programs observe
// exactly the values the consistency model promises.
package dsm

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Transport is the interconnect abstraction the runtime runs over; see
// internal/transport. The in-process simnet is the default; the TCP
// transport spans OS processes.
type Transport = transport.Transport

// TransportStats is a snapshot of interconnect traffic counters.
type TransportStats = transport.Stats

// ErrClosed is the shutdown error protocol operations wrap after the
// interconnect closes.
var ErrClosed = transport.ErrClosed

// ErrRPCTimeout is wrapped by protocol operations that waited
// Config.RPCTimeout for a remote response (or a rendezvous arrival)
// that never came — the liveness backstop under the fail-stop model: a
// dead or partitioned peer turns into a descriptive error instead of a
// hang. It never wraps ErrClosed, so callers can tell a hung peer from
// a clean teardown.
var ErrRPCTimeout = errors.New("dsm: rpc timeout")

// maxProcs bounds Config.Procs: writer sets are 64-bit masks.
const maxProcs = 64

// Mode selects the consistency protocol a System runs.
type Mode int

const (
	// LazyInvalidate is the LI protocol (§4.3.2).
	LazyInvalidate Mode = iota
	// LazyUpdate is the LU protocol (§4.3.2).
	LazyUpdate
	// EagerInvalidate is the EI protocol (§3, Munin write-shared with
	// release-time invalidations).
	EagerInvalidate
	// EagerUpdate is the EU protocol (§3, release-time diff propagation).
	EagerUpdate
	// SeqConsistent is the SC baseline (§6, Ivy-style single-writer
	// write-invalidate).
	SeqConsistent
)

// Modes lists every supported mode in the paper's presentation order.
// It is the single source of truth for mode parsing, validation and
// flag documentation.
var Modes = []Mode{LazyInvalidate, LazyUpdate, EagerInvalidate, EagerUpdate, SeqConsistent}

var modeNames = map[Mode]string{
	LazyInvalidate:  "LI",
	LazyUpdate:      "LU",
	EagerInvalidate: "EI",
	EagerUpdate:     "EU",
	SeqConsistent:   "SC",
}

// String returns the mode's protocol name, matching the trace simulator's
// protocol naming (sim.Run accepts the same strings).
func (m Mode) String() string {
	if s, ok := modeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// Valid reports whether m names a supported protocol.
func (m Mode) Valid() bool {
	_, ok := modeNames[m]
	return ok
}

// ModeNames returns the supported protocol names, comma-separated, for
// error messages and flag help.
func ModeNames() string {
	names := make([]string, len(Modes))
	for i, m := range Modes {
		names[i] = m.String()
	}
	return strings.Join(names, ", ")
}

// ParseMode maps a protocol name ("LI", "LU", "EI", "EU", "SC") to its
// Mode. The error enumerates the supported set.
func ParseMode(s string) (Mode, error) {
	for _, m := range Modes {
		if modeNames[m] == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("dsm: unknown mode %q (supported: %s)", s, ModeNames())
}

// Config describes a DSM instance.
type Config struct {
	// Procs is the number of nodes (at most 64).
	Procs int
	// SpaceSize is the shared address space size in bytes.
	SpaceSize mem.Addr
	// PageSize is the consistency granularity (a power of two).
	PageSize int
	// Mode selects the consistency protocol (LI, LU, EI, EU or SC). Every
	// node of a cluster must run the same one: a peer's synchronization
	// payload tagged with another mode is recorded and dropped.
	Mode Mode
	// GCEveryBarriers enables interval/diff garbage collection every k-th
	// barrier episode (0 disables GC). That barrier validates every cached
	// page through its merged clock; the next barrier, whose arrivals prove
	// every node has done so, discards the diffs and log records of the
	// intervals that clock covers, bounding memory (TreadMarks-style). Only
	// the lazy protocols retain diffs; the eager and SC engines ignore it.
	GCEveryBarriers int
	// Transport supplies the interconnect. Nil builds the default
	// in-process simulated network (internal/simnet) covering all Procs
	// endpoints. A non-nil transport must span exactly Procs endpoints;
	// the System hosts nodes for the transport's local endpoints only
	// (one per process under internal/transport/tcp). New takes
	// ownership either way: System.Close tears the transport down, and
	// a failed New closes it before returning.
	Transport Transport
	// RPCTimeout bounds every blocking wait on a remote peer — rpc
	// responses, and the master's collection of barrier arrivals. When it
	// elapses the call fails wrapping ErrRPCTimeout, so a dead peer
	// surfaces as the call's error instead of hanging the run, and the
	// node stops (fail-stop): every later call on it fails with that
	// timeout, and it drops every message that reaches it, so its peers'
	// waits on it time out in turn. 0 disables the timeout (waits are
	// unbounded, the pre-fault behavior).
	RPCTimeout time.Duration
	// Metrics, when non-nil, publishes the runtime's live counters into
	// the registry: interconnect totals, every node's protocol and
	// per-kind traffic counters (as scrape-time callbacks over the
	// node's existing atomics — zero cost on the paths that tick them),
	// an rpc latency histogram per node, and a per-second traffic ring
	// readable through System.Status. Serve it with obs.StartServer.
	Metrics *obs.Registry
	// Tracer, when non-nil, records protocol events (sends, receives,
	// critical-section enter/exit, barrier episodes) into its bounded
	// ring, dumpable as Chrome trace_event JSON. Nil disables tracing at
	// one pointer check per site.
	Tracer *obs.Tracer
}

// System is a running DSM instance: the nodes of one transport instance,
// covering all Config.Procs endpoints when the transport is the default
// in-process network.
type System struct {
	cfg    Config
	layout *mem.Layout
	tr     Transport
	nodes  []*Node // indexed by proc id; nil for endpoints hosted elsewhere
	local  []*Node // the nodes this System hosts, ascending id
	// zeroPage is the initial image of every page, read-only: what a node
	// serves for a page it never materialized (it encodes to three bytes).
	zeroPage []byte
	// twinBytes is the bytes of twins the local nodes hold live together,
	// the gauge twinBudget bounds: the nodes draw their twins from one page
	// pool.
	twinBytes atomic.Int64

	handlers  sync.WaitGroup
	closeOnce sync.Once
	closeErr  error

	// ring and stopSampler exist when Config.Metrics is set: a
	// per-second interconnect traffic ring and the goroutine feeding it.
	ring        *obs.TrafficRing
	stopSampler func()
}

// New builds and starts a DSM. Each node takes one application goroutine
// (see Node); the System's Status and each node's Stats and ID are safe
// from any goroutine. Callers must Close the system when done.
func New(cfg Config) (*System, error) {
	// New owns cfg.Transport from the first line: every error return
	// must close it, or a failed construction leaks the caller's
	// listeners and connections.
	fail := func(err error) (*System, error) {
		if cfg.Transport != nil {
			cfg.Transport.Close()
		}
		return nil, err
	}
	if cfg.Procs <= 0 || cfg.Procs > maxProcs {
		return fail(fmt.Errorf("dsm: processor count %d outside [1,%d]", cfg.Procs, maxProcs))
	}
	if !cfg.Mode.Valid() {
		return fail(fmt.Errorf("dsm: unknown mode %d (supported: %s)", int(cfg.Mode), ModeNames()))
	}
	if cfg.RPCTimeout < 0 {
		return fail(fmt.Errorf("dsm: negative rpc timeout %v", cfg.RPCTimeout))
	}
	if cfg.GCEveryBarriers < 0 {
		return fail(fmt.Errorf("dsm: negative GCEveryBarriers %d (0 disables GC)", cfg.GCEveryBarriers))
	}
	layout, err := mem.NewLayout(cfg.SpaceSize, cfg.PageSize)
	if err != nil {
		return fail(err)
	}
	if cfg.PageSize > wire.MaxDataBytes {
		return fail(fmt.Errorf("dsm: page size %d exceeds the %d bytes one message may carry (wire.MaxDataBytes): no page could be shipped",
			cfg.PageSize, wire.MaxDataBytes))
	}
	tr := cfg.Transport
	if tr == nil {
		tr = simnet.New(cfg.Procs)
	} else if n := tr.NumEndpoints(); n != cfg.Procs {
		return fail(fmt.Errorf("dsm: transport spans %d endpoints, config wants %d", n, cfg.Procs))
	}
	s := &System{
		cfg:      cfg,
		layout:   layout,
		tr:       tr,
		nodes:    make([]*Node, cfg.Procs),
		zeroPage: make([]byte, cfg.PageSize),
	}
	for _, id := range tr.Local() {
		if id < 0 || id >= cfg.Procs {
			return fail(fmt.Errorf("dsm: transport claims local endpoint %d outside [0,%d)", id, cfg.Procs))
		}
		n := newNode(s, mem.ProcID(id))
		s.nodes[id] = n
		s.local = append(s.local, n)
	}
	if len(s.local) == 0 {
		return fail(errors.New("dsm: transport serves no local endpoints"))
	}
	if cfg.Metrics != nil {
		s.registerMetrics(cfg.Metrics)
		s.ring = obs.NewTrafficRing(trafficRingLen)
		s.stopSampler = s.ring.SampleEvery(time.Second, func() obs.TrafficSample {
			t := s.tr.Totals()
			return obs.TrafficSample{Messages: t.Messages, Bytes: t.Bytes}
		})
	}
	for _, n := range s.local {
		n.start()
		s.handlers.Add(1)
		go func(n *Node) {
			defer s.handlers.Done()
			n.dispatchLoop()
		}(n)
	}
	return s, nil
}

// Node returns node i's handle. The node must be hosted by this System:
// with the default in-process transport every node is, while a
// cross-process transport hosts only its local endpoints (see Local).
func (s *System) Node(i int) *Node {
	n := s.nodes[i]
	if n == nil {
		panic(fmt.Sprintf("dsm: node %d is not hosted by this system (local nodes: %v)", i, s.tr.Local()))
	}
	return n
}

// Local returns the nodes this System hosts, in ascending id order.
func (s *System) Local() []*Node { return s.local }

// IsLocal reports whether node i is hosted by this System.
func (s *System) IsLocal(i int) bool {
	return i >= 0 && i < len(s.nodes) && s.nodes[i] != nil
}

// NumProcs returns the cluster-wide node count.
func (s *System) NumProcs() int { return s.cfg.Procs }

// Mode returns the protocol the system runs.
func (s *System) Mode() Mode { return s.cfg.Mode }

// Layout returns the address-space layout.
func (s *System) Layout() *mem.Layout { return s.layout }

// NetStats returns the interconnect's message/byte counters for this
// System's transport instance (the whole cluster under the default
// in-process transport, this process's sends under TCP).
func (s *System) NetStats() TransportStats { return s.tr.Totals() }

// Close shuts the interconnect down and surfaces both any transport
// teardown error (a dead TCP peer's broken stream) and any protocol send
// error the handler goroutines recorded while the system ran (a lock
// grant or protocol response that could not be delivered would otherwise
// strand its requester silently). Nodes blocked in protocol operations
// return errors. Close is idempotent; every call returns the same error.
func (s *System) Close() error {
	s.closeOnce.Do(func() {
		if s.stopSampler != nil {
			s.stopSampler()
		}
		var errs []error
		if err := s.tr.Close(); err != nil {
			errs = append(errs, fmt.Errorf("dsm: transport: %w", err))
		}
		s.handlers.Wait()
		for _, n := range s.local {
			errs = append(errs, n.takeErrs()...)
		}
		s.closeErr = errors.Join(errs...)
	})
	return s.closeErr
}

// lockMgr returns the manager node of a lock.
func (s *System) lockMgr(l mem.LockID) mem.ProcID {
	return mem.ProcID(int(l) % s.cfg.Procs)
}
