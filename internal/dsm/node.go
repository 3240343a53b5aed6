package dsm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/transport"
	"repro/internal/vc"
	"repro/internal/wire"
)

// Sharding parameters of the node core. Page state is striped across
// pageShards mutexes keyed by page id, so independent pages fault,
// install and diff in parallel; incoming frames are dispatched onto
// handlerWorkers serialized queues keyed the same way, so all protocol
// work for one page is processed in arrival order while different pages
// proceed concurrently.
const (
	// pageShards is the stripe count of the per-page state lock table.
	pageShards = 64
	// handlerWorkers is the size of the per-node handler worker pool;
	// each worker owns one FIFO queue of dispatched frames.
	handlerWorkers = 8
	// workerQueueCap bounds each worker queue; a full queue backpressures
	// the dispatch loop (and through it the transport), exactly like the
	// old single handler goroutine falling behind.
	workerQueueCap = 1024
)

// Stats counts a node's protocol events. Which counters move depends on
// the engine: the lazy protocols create intervals and move diffs, the
// eager ones flush at releases, SC ships whole pages and transfers
// ownership.
type Stats struct {
	// AccessMisses counts application accesses that found their page's
	// copy invalid: one per fault, however many pages it brought current.
	// PagesAggregated counts the other pages an LI fault brought current in
	// the same round (its siblings, lazyEngine.fault). A lazy engine's
	// acquire-time and GC-epoch revalidations are no faults and count in
	// neither; ColdMisses counts every copy a miss found missing, a GC
	// epoch's materialization of a homed page included.
	AccessMisses     int64
	PagesAggregated  int64
	ColdMisses       int64
	DiffsApplied     int64
	DiffsFetched     int64
	IntervalsCreated int64
	PagesFetched     int64
	GCRuns           int64
	DiffsDiscarded   int64

	// Diff data plane: DiffsCreated counts MakeDiff executions (the eager
	// engines' at their flush points, and every land that lifts a live
	// twin's writes), the rest are the lazy engines': DiffsDeferred counts
	// the pages interval closes parked with their twin instead of diffing
	// (every one of them), DiffCacheHits counts
	// serves of a diff after its first (the body the first serve shipped
	// is reused as is), DiffsFlattened counts the diffs a creator merged
	// away answering range wants (members - 1 per merged serve),
	// DiffsFetched counts diff records received in answer to a request,
	// one per want whether it names one interval or a range (piggybacked
	// ones are not fetched; DiffsApplied counts the diffs a miss applied,
	// a merged range once), DiffsTrimmed counts deferred diffs materialized
	// by the twin budget rather than by demand (non-zero means laziness was
	// cut short to bound memory). TwinBytesLive gauges the bytes held in
	// live twins, lazy and eager (capture minus final release), with
	// TwinBytesPeak its high-water mark.
	DiffsCreated   int64
	DiffsDeferred  int64
	DiffCacheHits  int64
	DiffsFlattened int64
	DiffsTrimmed   int64
	TwinBytesLive  int64
	TwinBytesPeak  int64
	// TwinPoolMisses counts the twin captures the page pool had to allocate
	// for. The pool is the process's: every node reports the same figure.
	TwinPoolMisses int64

	// FlushedPages counts dirty pages pushed at eager release/barrier
	// flush points.
	FlushedPages int64
	// InvalsReceived counts invalidations applied to this node's copies
	// (EI and SC).
	InvalsReceived int64
	// UpdatesReceived counts release-time diffs applied to this node's
	// copies: a home's (EI, EU) and a cacher's (EU).
	UpdatesReceived int64
	// OwnershipMoves counts directory owner changes processed at this
	// node as a page home (SC).
	OwnershipMoves int64

	// Outbound traffic as the node's outbox handed it to the transport
	// (loopback excluded, matching the interconnect's accounting):
	// SentMsgs messages, each one frame, SentBytes of encoded payload in
	// total.
	SentMsgs int64
	// SentFrames equals SentMsgs. Kept for bench/lrcbench; ROADMAP item 1
	// removes it.
	SentFrames int64
	// SentBatches is always 0. Kept for bench/lrcbench; ROADMAP item 1
	// removes it.
	SentBatches int64
	SentBytes   int64
	// KindMsgs and KindBytes break the outbound traffic down by wire
	// message kind (indexed by wire.Kind): which protocol activity the
	// bytes actually are — diffs, page ships, invalidations, lock
	// grants.
	KindMsgs  [wire.NumKinds]int64
	KindBytes [wire.NumKinds]int64

	// Pages is always nil. Kept for bench/lrcbench; ROADMAP item 1
	// removes it.
	Pages []PageStat
}

// PageStat is the element type of Stats.Pages, which nothing fills.
// Kept for bench/lrcbench; ROADMAP item 1 removes it.
type PageStat struct {
	Page int
	Home int
}

// nodeStats is the node's live counter cell: every field is an atomic,
// so counters tick from any goroutine — application, shard worker or
// directory transaction — without touching any page shard lock, and a
// Stats snapshot never contends with (or tears against) an in-flight
// page transaction.
type nodeStats struct {
	accessMisses     atomic.Int64
	pagesAggregated  atomic.Int64
	coldMisses       atomic.Int64
	diffsApplied     atomic.Int64
	diffsFetched     atomic.Int64
	intervalsCreated atomic.Int64
	pagesFetched     atomic.Int64
	gcRuns           atomic.Int64
	diffsDiscarded   atomic.Int64
	diffsCreated     atomic.Int64
	diffsDeferred    atomic.Int64
	diffCacheHits    atomic.Int64
	diffsFlattened   atomic.Int64
	diffsTrimmed     atomic.Int64
	twinBytesLive    atomic.Int64
	twinBytesPeak    atomic.Int64
	flushedPages     atomic.Int64
	invalsReceived   atomic.Int64
	updatesReceived  atomic.Int64
	ownershipMoves   atomic.Int64

	sentMsgs  atomic.Int64
	sentBytes atomic.Int64
	kindMsgs  [wire.NumKinds]atomic.Int64
	kindBytes [wire.NumKinds]atomic.Int64
}

// countSent ticks the per-kind and total outbound counters for one
// encoded message of the given payload size (called by the outbox for
// remote destinations only).
func (s *nodeStats) countSent(k wire.Kind, bytes int) {
	s.sentMsgs.Add(1)
	s.sentBytes.Add(int64(bytes))
	s.kindMsgs[k].Add(1)
	s.kindBytes[k].Add(int64(bytes))
}

func (s *nodeStats) snapshot() Stats {
	st := Stats{
		AccessMisses:     s.accessMisses.Load(),
		PagesAggregated:  s.pagesAggregated.Load(),
		ColdMisses:       s.coldMisses.Load(),
		DiffsApplied:     s.diffsApplied.Load(),
		DiffsFetched:     s.diffsFetched.Load(),
		IntervalsCreated: s.intervalsCreated.Load(),
		PagesFetched:     s.pagesFetched.Load(),
		GCRuns:           s.gcRuns.Load(),
		DiffsDiscarded:   s.diffsDiscarded.Load(),
		DiffsCreated:     s.diffsCreated.Load(),
		DiffsDeferred:    s.diffsDeferred.Load(),
		DiffCacheHits:    s.diffCacheHits.Load(),
		DiffsFlattened:   s.diffsFlattened.Load(),
		DiffsTrimmed:     s.diffsTrimmed.Load(),
		TwinBytesLive:    s.twinBytesLive.Load(),
		TwinBytesPeak:    s.twinBytesPeak.Load(),
		FlushedPages:     s.flushedPages.Load(),
		InvalsReceived:   s.invalsReceived.Load(),
		UpdatesReceived:  s.updatesReceived.Load(),
		OwnershipMoves:   s.ownershipMoves.Load(),
		SentMsgs:         s.sentMsgs.Load(),
		SentBytes:        s.sentBytes.Load(),
	}
	st.SentFrames = st.SentMsgs
	_, st.TwinPoolMisses = page.PoolStats()
	for k := range s.kindMsgs {
		st.KindMsgs[k] = s.kindMsgs[k].Load()
		st.KindBytes[k] = s.kindBytes[k].Load()
	}
	return st
}

// lockLocal is a node's view of one lock.
type lockLocal struct {
	held      bool      // some local goroutine currently holds it
	acquiring bool      // a grant is in flight to us (we are next holder)
	cached    bool      // we were the last holder; reacquisition is local
	pending   *wire.Msg // a forwarded request awaiting our release
	// waiters are local goroutines parked until the holder releases: a
	// node-level handoff queue over the single distributed lock identity,
	// so N application goroutines can contend for the same lock without
	// extra protocol traffic (a local handoff is the cached-reacquire
	// fast path of §4.2).
	waiters []chan struct{}
}

// barEpisode is one local barrier rendezvous: with GoroutinesPerNode=k,
// the k-th arriver becomes the leader, performs the cluster barrier
// (engine hooks, master exchange, post-barrier episode work) on behalf
// of the node, and releases the others.
type barEpisode struct {
	id      mem.BarrierID
	arrived int
	done    chan struct{}
	err     error
}

// inFrame is one decoded incoming message queued for a handler worker.
type inFrame struct {
	m   *wire.Msg
	src mem.ProcID
}

// Node is one DSM processor. All exported methods are safe for
// concurrent use by multiple application goroutines (size the local
// rendezvous with Config.GoroutinesPerNode when more than one goroutine
// uses barriers); incoming protocol frames are served concurrently by a
// dispatch loop feeding a worker pool that serializes per-page work.
type Node struct {
	sys *System
	id  mem.ProcID
	ep  transport.Endpoint
	// e is the node's protocol engine, the one Config.Mode names.
	e engine
	// out is the outbound pipeline every protocol send goes through, and
	// the record of which destinations are dead. See outbox.
	out *outbox

	// pageMu is the striped page-state lock table: pageLock(pg) guards
	// the engine's per-page state (copy bytes, validity, twin, applied
	// clock, generation) and is never held across a blocking operation.
	pageMu [pageShards]sync.Mutex
	// missMu serializes miss service per page stripe: the holder may
	// block in RPCs while bringing the page current, so concurrent
	// faulting goroutines on the same page coalesce onto one protocol
	// transaction instead of racing fetches. Handler-side work never
	// takes a miss lock.
	missMu [pageShards]sync.Mutex

	// lockMu guards the distributed-lock local state machine and the
	// manager-side last-holder table. Engine payload hooks called under
	// it take only engine sync state (lock order: lockMu before engine
	// mutexes, never the reverse).
	lockMu  sync.Mutex
	locks   map[mem.LockID]*lockLocal
	mgrLast map[mem.LockID]mem.ProcID // manager-side last holder

	stats nodeStats

	// Barrier master state, fed by the dispatch loop (park): barrier
	// arrivals, and the readies of the post-barrier rendezvous rounds;
	// collected holds a round's messages (collectRound).
	barCh     chan *wire.Msg
	gcCh      chan *wire.Msg
	collected []*wire.Msg

	// barMu guards the local two-level barrier episode.
	barMu sync.Mutex
	bar   *barEpisode

	seqCtr   atomic.Uint64
	waiterMu sync.Mutex
	waiters  map[uint64]*rpcWaiter
	// freeWaiters recycles rpc waiters (register takes, await returns);
	// guarded by waiterMu.
	freeWaiters []*rpcWaiter
	// abandoned records seqs whose rpc gave up waiting (RPCTimeout), so
	// the late response — which may still arrive — classifies as an
	// expected race rather than a protocol error. It keeps the most recent
	// maxAbandoned, abandonedRing holding them in recording order, the
	// oldest at abandonedNext once it is full. Guarded by waiterMu.
	abandoned     map[uint64]struct{}
	abandonedRing []uint64
	abandonedNext int

	errMu   sync.Mutex
	errs    []error
	errSeen map[string]struct{}
	// races collects expected shutdown-race and late-response events,
	// classified away from System.Close's error (see noteRace).
	races []error

	// rpcHist, when metrics are configured, observes each rpc's
	// wall-clock wait (seconds). Nil otherwise — the nil check is the
	// entire hot-path cost. missHist and missPages, configured with it,
	// observe each application fault's service time (seconds) and the
	// pages it brought current (observeMiss); their one check sits on the
	// miss path, behind the hit check.
	rpcHist   *obs.Histogram
	missHist  *obs.Histogram
	missPages *obs.Histogram

	// queues feed the handler worker pool; closed (by the dispatch loop)
	// on shutdown. closedCh unblocks local waiters — lock queues and
	// barrier rendezvous — when the transport goes away.
	queues   []chan inFrame
	workerWG sync.WaitGroup
	closedCh chan struct{}
}

func newNode(s *System, id mem.ProcID) *Node {
	n := &Node{
		sys:      s,
		id:       id,
		ep:       s.tr.Endpoint(int(id)),
		locks:    make(map[mem.LockID]*lockLocal),
		mgrLast:  make(map[mem.LockID]mem.ProcID),
		barCh:    make(chan *wire.Msg, s.cfg.Procs),
		gcCh:     make(chan *wire.Msg, s.cfg.Procs),
		waiters:  make(map[uint64]*rpcWaiter),
		queues:   make([]chan inFrame, handlerWorkers),
		closedCh: make(chan struct{}),
	}
	for i := range n.queues {
		n.queues[i] = make(chan inFrame, workerQueueCap)
	}
	n.out = newOutbox(n)
	switch m := s.cfg.Mode; m {
	case LazyInvalidate, LazyUpdate:
		n.e = newLazyEngine(n, m == LazyUpdate)
	case EagerInvalidate, EagerUpdate:
		n.e = newEagerEngine(n, m == EagerUpdate)
	default:
		n.e = newSCEngine(n)
	}
	return n
}

// pageLock returns the stripe guarding page pg's state.
func (n *Node) pageLock(pg mem.PageID) *sync.Mutex {
	return &n.pageMu[uint32(pg)%pageShards]
}

// homeOf returns page pg's home node: the directory entry under the
// eager and SC engines, the cold-copy server under the lazy ones. Homes
// are the static interleave pg % Procs, the paper's page→manager map.
func (n *Node) homeOf(pg mem.PageID) mem.ProcID {
	return mem.ProcID(int(pg) % n.sys.cfg.Procs)
}

// missLock returns the stripe serializing miss service for page pg.
func (n *Node) missLock(pg mem.PageID) *sync.Mutex {
	return &n.missMu[uint32(pg)%pageShards]
}

// ID returns the node's processor id.
func (n *Node) ID() mem.ProcID { return n.id }

// Stats returns a snapshot of the node's protocol counters. Counters
// are atomics: the snapshot never blocks protocol work, and each field
// is internally consistent (the set as a whole is a moment-in-time read
// of monotone counters, not a transaction).
func (n *Node) Stats() Stats {
	return n.stats.snapshot()
}

// Clock returns a copy of the node's current vector clock (all zero
// entries under the eager and SC engines, which do not track causality).
func (n *Node) Clock() vc.VC {
	return n.e.clock()
}

// maxNotedErrs bounds each node's recorded error and race lists: under
// injected faults one dead stream can fail thousands of operations, and
// System.Close's joined error must stay readable (deduplication below
// already collapses repeats; the cap is the backstop for errors whose
// text varies).
const maxNotedErrs = 64

// noteErr records a handler-side protocol error so System.Close can
// surface it instead of letting it vanish (a dropped lock grant strands
// its requester). Expected shutdown errors are not recorded, and
// repeats of an already-recorded error text are collapsed (a broken
// destination fails every later send with the same sticky cause).
func (n *Node) noteErr(op string, err error) {
	if err == nil || errors.Is(err, ErrClosed) {
		return
	}
	e := fmt.Errorf("dsm: node %d: %s: %w", n.id, op, err)
	n.errMu.Lock()
	if n.errSeen == nil {
		n.errSeen = make(map[string]struct{})
	}
	if _, dup := n.errSeen[e.Error()]; !dup && len(n.errs) < maxNotedErrs {
		n.errSeen[e.Error()] = struct{}{}
		n.errs = append(n.errs, e)
	}
	n.errMu.Unlock()
}

// noteRace records an expected shutdown-race or late-response event —
// a response whose waiter timed out, a message racing a teardown —
// classified separately from real faults: chaos tests assert on
// System.Close's error for fault causes, and these would be false
// positives there. They remain observable via System.ShutdownRaces.
func (n *Node) noteRace(op string, err error) {
	if err == nil {
		return
	}
	n.errMu.Lock()
	if len(n.races) < maxNotedErrs {
		n.races = append(n.races, fmt.Errorf("dsm: node %d: %s: %w", n.id, op, err))
	}
	n.errMu.Unlock()
}

func (n *Node) takeErrs() []error {
	n.errMu.Lock()
	defer n.errMu.Unlock()
	errs := n.errs
	n.errs = nil
	return errs
}

func (n *Node) takeRaces() []error {
	n.errMu.Lock()
	defer n.errMu.Unlock()
	races := n.races
	n.races = nil
	return races
}

// validPage and validProc bound-check ids arriving in remote messages
// before they index per-page or per-destination state: the engines'
// page tables and directories are slices, so a remote peer's id fields
// are never trusted as indices. Handlers that reject an id record the
// cause with noteErr and drop the message.
func (n *Node) validPage(pg mem.PageID) bool {
	return pg >= 0 && int(pg) < n.sys.layout.NumPages()
}

func (n *Node) validProc(p mem.ProcID) bool {
	return p >= 0 && int(p) < n.sys.cfg.Procs
}

// --- request/response plumbing ---

// rpcWaiter is one parked rpc: its response channel (buffered, so a
// delivery never blocks) and the destination the request went to, so a
// send failure to that destination can fail exactly the waiters parked
// on it. Whoever takes a waiter out of Node.waiters delivers to it exactly
// once — a response, or nil for a failure (shutdown, dst's death, a
// rejected response) — and await recycles it through Node.freeWaiters once
// it has received that delivery; a waiter given up on is left to the
// garbage collector.
type rpcWaiter struct {
	ch   chan *wire.Msg
	dst  mem.ProcID
	want wire.Kind // the response kind the request takes
}

// maxAbandoned bounds Node.abandoned: a peer that never answers must not
// grow it without end.
const maxAbandoned = 1024

// freedWaiter marks a waiter on the free list (in its dst): releasing it
// again or delivering to it panics instead of corrupting its next rpc.
const freedWaiter = mem.ProcID(-1 << 31)

func (n *Node) nextSeq() uint64 { return n.seqCtr.Add(1) }

// register parks a waiter for the response to a request of kind req to dst.
func (n *Node) register(seq uint64, dst mem.ProcID, req wire.Kind) *rpcWaiter {
	n.waiterMu.Lock()
	var w *rpcWaiter
	if last := len(n.freeWaiters) - 1; last >= 0 {
		w, n.freeWaiters = n.freeWaiters[last], n.freeWaiters[:last]
	} else {
		w = &rpcWaiter{ch: make(chan *wire.Msg, 1)}
	}
	w.dst, w.want = dst, req+1 // every response kind follows its request's
	if req == wire.KLockReq {
		w.want = wire.KLockGrant // from the holder, past the manager's forward
	}
	n.waiters[seq] = w
	n.waiterMu.Unlock()
	return w
}

// deliver hands a waiter taken out of Node.waiters its one delivery.
func (w *rpcWaiter) deliver(m *wire.Msg) {
	if w.dst == freedWaiter {
		panic("dsm: delivery to a released rpc waiter")
	}
	w.ch <- m
}

// unregister takes seq's waiter out of Node.waiters — its request failed
// to leave, or timed out — and reports whether it was still there; false
// means someone else took it and its delivery is in the channel or
// instants away. After a timeout the seq is recorded as abandoned, so a
// late response classifies as benign; past maxAbandoned, recording one
// forgets the oldest.
func (n *Node) unregister(seq uint64, timedOut bool) bool {
	n.waiterMu.Lock()
	defer n.waiterMu.Unlock()
	if _, ok := n.waiters[seq]; !ok {
		return false
	}
	delete(n.waiters, seq)
	if !timedOut {
		return true
	}
	if n.abandoned == nil {
		n.abandoned = make(map[uint64]struct{})
	}
	if len(n.abandonedRing) < maxAbandoned {
		n.abandonedRing = append(n.abandonedRing, seq)
	} else {
		delete(n.abandoned, n.abandonedRing[n.abandonedNext])
		n.abandonedRing[n.abandonedNext] = seq
		n.abandonedNext = (n.abandonedNext + 1) % maxAbandoned
	}
	n.abandoned[seq] = struct{}{}
	return true
}

// freeWaiter recycles a waiter that has received its delivery.
func (n *Node) freeWaiter(w *rpcWaiter) {
	if w.dst == freedWaiter {
		panic("dsm: rpc waiter released twice")
	}
	w.dst = freedWaiter
	n.waiterMu.Lock()
	n.freeWaiters = append(n.freeWaiters, w)
	n.waiterMu.Unlock()
}

// await blocks for the response registered under seq, honoring the
// configured RPCTimeout. A nil delivery means the waiter was failed: by
// shutdown (ErrClosed), by dst's death (the recorded cause), or by the
// engine refusing the response (failWaiter). On
// timeout the waiter is abandoned — a response that still arrives is
// classified as an expected race, not a protocol error — and the error
// wraps ErrRPCTimeout, never ErrClosed, so callers and tests can tell a
// hung peer from a clean teardown.
func (n *Node) await(seq uint64, w *rpcWaiter) (*wire.Msg, error) {
	dst := w.dst
	m, _, timedOut := n.recvTimed(w.ch)
	if timedOut {
		if n.unregister(seq, true) {
			return nil, fmt.Errorf("dsm: node %d: rpc seq %d to node %d: no response within %v: %w",
				n.id, seq, dst, n.sys.cfg.RPCTimeout, ErrRPCTimeout)
		}
		// The response (or a failure) won the race.
		m = <-w.ch
	}
	n.freeWaiter(w)
	if m == nil {
		if cause := n.peerErr(dst); cause != nil {
			return nil, fmt.Errorf("dsm: node %d: rpc seq %d to node %d: peer unreachable: %w",
				n.id, seq, dst, cause)
		}
		select {
		case <-n.closedCh:
			return nil, fmt.Errorf("dsm: node %d: awaiting seq %d: %w", n.id, seq, ErrClosed)
		default:
			// failWaiter: the engine refused the response and recorded why.
			return nil, fmt.Errorf("dsm: node %d: rpc seq %d to node %d: response refused", n.id, seq, dst)
		}
	}
	return m, nil
}

// rpcTimers recycles the RPCTimeout timers, one per parked receive
// otherwise. go.mod's language version gives timers the Go 1.23
// semantics: nothing is delivered after Stop, so a recycled timer cannot
// fire a stale tick into its next user.
var rpcTimers sync.Pool

// recvTimed receives from ch, giving up after the configured RPCTimeout
// (never, when it is zero); timedOut reports that it gave up. A message
// already buffered is taken without arming a timer.
func (n *Node) recvTimed(ch chan *wire.Msg) (m *wire.Msg, ok, timedOut bool) {
	d := n.sys.cfg.RPCTimeout
	if d <= 0 {
		m, ok = <-ch
		return m, ok, false
	}
	select {
	case m, ok = <-ch:
		return m, ok, false
	default:
	}
	t, _ := rpcTimers.Get().(*time.Timer)
	if t == nil {
		t = time.NewTimer(d)
	} else {
		t.Reset(d)
	}
	select {
	case m, ok = <-ch:
	case <-t.C:
		timedOut = true
	}
	t.Stop()
	rpcTimers.Put(t)
	return m, ok, timedOut
}

// peerFailed fails every waiter parked on dst once the outbox found its
// stream broken (called by that send, under dst's outbox lock): the
// paper's fail-stop model, propagated — a node whose stream to a peer
// broke will never get its responses, so its parked rpcs learn
// immediately instead of waiting out the timeout. Shutdown errors are not
// peer deaths (every stream "fails" at Close).
func (n *Node) peerFailed(dst mem.ProcID, cause error) {
	if dst == n.id || errors.Is(cause, ErrClosed) {
		return
	}
	n.waiterMu.Lock()
	for seq, w := range n.waiters {
		if w.dst == dst {
			delete(n.waiters, seq)
			w.deliver(nil)
		}
	}
	n.waiterMu.Unlock()
	n.noteErr("peer liveness", fmt.Errorf("node %d unreachable: %v", dst, cause))
}

// peerErr returns the cause dst's stream broke with — the outbox's sticky
// error — or nil while dst is alive (or its stream only closed).
func (n *Node) peerErr(dst mem.ProcID) error {
	d := &n.out.dsts[dst]
	d.mu.Lock()
	defer d.mu.Unlock()
	if dst == n.id || errors.Is(d.broken, ErrClosed) {
		return nil
	}
	return d.broken
}

// failWaiter unblocks the rpc waiter parked on seq with a failure (its
// await returns an error) after the engine rejected the response it was
// waiting for; the detailed cause was recorded with noteErr for
// System.Close. Failing rather than stranding the waiter keeps the
// application live so the run can reach Close and surface the cause. A
// missing waiter is fine — the rejected response may not have matched
// any request to begin with.
func (n *Node) failWaiter(seq uint64) {
	n.waiterMu.Lock()
	w, ok := n.waiters[seq]
	if ok {
		delete(n.waiters, seq)
	}
	n.waiterMu.Unlock()
	if ok {
		w.deliver(nil)
	}
}

// answerWaiter wakes the waiter of a response its engine intercepted with
// the response once installed, and fails it over one the engine rejected
// (the cause is already in noteErr).
func (n *Node) answerWaiter(m *wire.Msg, installed bool) {
	if installed {
		n.deliverResponse(m)
	} else {
		n.failWaiter(m.Seq)
	}
}

// send encodes m for dst and sends it through the outbox; m is the
// caller's again when send returns.
func (n *Node) send(dst mem.ProcID, m *wire.Msg) error {
	return n.out.send(dst, m)
}

// rpc sends m to dst and blocks for the response with the same Seq,
// which the caller holds from then on (wire.Msg.Release when done with
// it): a group of one, so that rpcAll is the one send and await path. m
// is the caller's again as soon as it is sent. Any number of goroutines
// may have rpcs outstanding concurrently. A failed send surfaces to the
// requester directly.
func (n *Node) rpc(dst mem.ProcID, m *wire.Msg) (*wire.Msg, error) {
	req := [1]outMsg{{dst: dst, m: *m}}
	var resp [1]*wire.Msg
	got, err := n.rpcAll(req[:], resp[:0])
	if err != nil {
		return nil, err
	}
	return got[0], nil
}

// outMsg is one request of a grouped send: the message by value, so a
// group built in a local array never reaches the heap, and its destination.
// Nothing rpcAll reads out of a group leaks, so neither do the lists a
// request's slices point to (a miss's wants, a flush's diff record).
type outMsg struct {
	dst mem.ProcID
	m   wire.Msg
}

// rpcAll sends a group of requests, registering each one's waiter before
// its send, then blocks for all responses, which it appends to resps in
// request order (the caller holds them). A request whose send fails is
// withdrawn, and the first error is returned after the other requests'
// responses arrived and were released, so no response is ever orphaned.
// With metrics configured, each awaited request's wait, from the group's
// first send to its response, is one rpcHist observation.
func (n *Node) rpcAll(reqs []outMsg, resps []*wire.Msg) ([]*wire.Msg, error) {
	var start time.Time
	if n.rpcHist != nil {
		start = time.Now()
	}
	// The parked waiters, in request order, nil for a request that failed
	// to leave. Kept apart from reqs: a waiter read out of a request would
	// make everything the request points to escape with it.
	var waiterBuf [32]*rpcWaiter
	waiters := waiterBuf[:0]
	var firstErr error
	for i := range reqs {
		r := &reqs[i]
		w := n.register(r.m.Seq, r.dst, r.m.Kind)
		if err := n.out.send(r.dst, &r.m); err != nil {
			n.unregister(r.m.Seq, false)
			w = nil
			if firstErr == nil {
				firstErr = err
			}
		}
		waiters = append(waiters, w)
	}
	got := len(resps)
	for i := range reqs {
		if waiters[i] == nil {
			continue
		}
		m, err := n.await(reqs[i].m.Seq, waiters[i])
		if h := n.rpcHist; h != nil {
			h.Observe(time.Since(start).Seconds())
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		resps = append(resps, m)
	}
	if firstErr != nil {
		for _, m := range resps[got:] {
			m.Release()
		}
		return resps[:got], firstErr
	}
	return resps, nil
}

// deliverResponse hands a response message to the requester parked in
// rpc, which holds a reference to it from then on — next to the caller's
// own — and releases it once it has consumed the response (a caller that
// ignores its responses may leave that to the garbage collector).
// Engines that intercept their responses in handle (installs apply on
// the page's shard queue to stay in directory order) call this after
// processing. A response nobody waits
// for is a protocol error surfaced through System.Close — unless the
// node is shutting down, when a racing teardown legitimately abandons
// waiters.
func (n *Node) deliverResponse(m *wire.Msg) {
	n.waiterMu.Lock()
	w, ok := n.waiters[m.Seq]
	if ok {
		delete(n.waiters, m.Seq)
	}
	if ok && w.want != m.Kind {
		// A waiter is found by sequence number alone: a response of another
		// kind would wake it over a page never installed, an update never
		// landed. Once delivered to, the waiter is its rpc's again.
		want := w.want
		n.waiterMu.Unlock()
		w.deliver(nil)
		n.noteErr("response routing", fmt.Errorf("%v answers seq %d, which awaits %v", m.Kind, m.Seq, want))
		return
	}
	var late bool
	if !ok {
		if _, late = n.abandoned[m.Seq]; late {
			delete(n.abandoned, m.Seq)
		}
	}
	n.waiterMu.Unlock()
	if ok {
		m.Retain()
		w.deliver(m)
		return
	}
	if late {
		// The waiter timed out (RPCTimeout) before this response landed:
		// an expected race under a slow or faulty interconnect, recorded
		// apart from real protocol errors.
		n.noteRace("response routing",
			fmt.Errorf("response seq %d kind %v arrived after its rpc timed out", m.Seq, m.Kind))
		return
	}
	select {
	case <-n.closedCh:
		return
	default:
	}
	n.noteErr("response routing",
		fmt.Errorf("unexpected response seq %d kind %v", m.Seq, m.Kind))
}

// dispatchKey maps a frame to its serialization domain: page-keyed
// kinds serialize per page (the directory-order invariant: a page ship
// and the invalidation that follows it in transport FIFO order are
// processed in that order), lock kinds per lock, and diff traffic —
// payloads with no ordering dependence, an eager update's included (the
// engine lands one that a ship overtakes) — by sequence number for load
// spreading.
func dispatchKey(m *wire.Msg) uint32 {
	switch m.Kind {
	case wire.KLockReq, wire.KLockFwd, wire.KLockGrant:
		// Separate namespace from pages so lock i and page i do not
		// needlessly serialize.
		return uint32(m.A)*2 + 1
	case wire.KDiffReq, wire.KDiffResp, wire.KUpdate, wire.KUpdateAck:
		return uint32(m.Seq)
	case wire.KInval:
		// The first page's: an invalidation naming several (EI) may overtake
		// a later page's ship, which the engine sees to.
		if len(m.Wants) > 0 {
			return uint32(m.Wants[0].Page) * 2
		}
		return 0
	default:
		return uint32(m.A) * 2
	}
}

// dispatchLoop receives frames until the transport closes, decoding each
// into its one message and fanning them out to the worker pool in arrival
// order, so the per-page shard FIFO the directory invariants rely on is
// exactly the sender's send order. A decoded message is a recycled
// shell whose diffs borrow the frame (internal/wire's Ownership section);
// attachFrame ties the frame's lifetime to its. Barrier arrivals and the
// collective-exchange responses are handled inline (they only park on
// rendezvous channels or wake rpc waiters).
//
// A frame that fails to decode came off the wire from a remote peer,
// so it is not a local invariant violation: the error is recorded for
// System.Close and the frame dropped, rather than letting one corrupt
// or hostile peer panic the node.
func (n *Node) dispatchLoop() {
	for {
		src, payload, ok := n.ep.Recv()
		if !ok {
			n.shutdown()
			return
		}
		m, err := wire.Decode(payload)
		if err != nil {
			framebuf.Put(payload)
			n.noteErr("inbound frame", fmt.Errorf("undecodable frame from %d: %w", src, err))
			continue
		}
		attachFrame(payload, m)
		n.dispatchMsg(m, mem.ProcID(src))
	}
}

// attachFrame settles the lifetime of a received frame once its message
// is decoded: recycled at once when the message does not borrow it,
// otherwise held by one counted reference (Msg.Frame), which the message
// drops when its last holder releases it.
func attachFrame(payload []byte, m *wire.Msg) {
	if !m.HasDiffs() {
		framebuf.Put(payload)
		return
	}
	m.Frame = framebuf.NewRef(payload, 1)
}

// dispatchMsg routes one decoded message: rendezvous kinds inline — the
// collecting master holds an arrival from then on (park) — everything else
// onto its serialized shard queue, whose worker holds it.
func (n *Node) dispatchMsg(m *wire.Msg, src mem.ProcID) {
	if n.traceOn() {
		n.emit("recv", m.Kind.String(), int64(src))
	}
	if err := n.checkSender(m, src); err != nil {
		n.noteErr("sender identity", err)
		m.Release()
		return
	}
	switch m.Kind {
	case wire.KBarrierArrive:
		n.park(n.barCh, m, src)
	case wire.KGCReady:
		n.park(n.gcCh, m, src)
	case wire.KBarrierExit, wire.KGCDone:
		n.deliverResponse(m)
		m.Release()
	default:
		n.queues[dispatchKey(m)%handlerWorkers] <- inFrame{m: m, src: src}
	}
}

// checkSender holds a message's claimed identity to the endpoint it came
// from: a request that names its sender in B must come from that node, a
// barrier exit or GC go from the master, and a lock forward from the
// lock's manager. Everything after dispatch trusts these fields — a master
// counts an arrival by B, a manager grants and a home ships to B, a waiter
// wakes on whichever exit carries its seq. The check is only as good as
// the transport's src: simnet's is the sending endpoint, but TCP takes it
// from the stream's hello, which nothing authenticates, so over TCP it
// binds a message to the identity its stream claims.
func (n *Node) checkSender(m *wire.Msg, src mem.ProcID) error {
	switch m.Kind {
	case wire.KLockReq, wire.KBarrierArrive, wire.KGCReady, wire.KPageReq, wire.KWriteReq, wire.KFlushReq:
		if mem.ProcID(m.B) != src {
			return fmt.Errorf("%v claims node %d but came from %d", m.Kind, m.B, src)
		}
	case wire.KBarrierExit, wire.KGCDone:
		if src != master {
			return fmt.Errorf("%v from %d dropped: only the barrier master %d sends it", m.Kind, src, master)
		}
	case wire.KLockFwd:
		if mgr := n.sys.lockMgr(mem.LockID(m.A)); src != mgr {
			return fmt.Errorf("%v of lock %d from %d dropped: only its manager %d forwards it", m.Kind, m.A, src, mgr)
		}
	}
	return nil
}

// worker drains one serialized message queue. It lets go of a message as
// soon as its handler returns: what the handler sent is encoded already,
// and a handler that hands its message on — to an rpc waiter, to a
// serving goroutine, to a lock's pending slot — retained it for the new
// holder first.
func (n *Node) worker(q chan inFrame) {
	defer n.workerWG.Done()
	for f := range q {
		n.process(f.m, f.src)
		f.m.Release()
	}
}

// process handles one dispatched message on its shard worker.
func (n *Node) process(m *wire.Msg, src mem.ProcID) {
	switch {
	case n.e.handle(m, src):
		// Engine-specific request (or an intercepted response).
	case m.Kind.IsResponse():
		n.deliverResponse(m)
	case m.Kind == wire.KLockReq:
		n.handleLockReq(m)
	case m.Kind == wire.KLockFwd:
		n.handleLockFwd(m)
	default:
		// Remote peers choose the kind; an unhandled one is their bug (or
		// malice), not ours — record and drop instead of panicking.
		n.noteErr("dispatch", fmt.Errorf("unhandled message kind %v from %d", m.Kind, src))
	}
}

// start launches the node's worker pool (the dispatch loop is started
// by the System, which tracks it for Close).
func (n *Node) start() {
	for _, q := range n.queues {
		n.workerWG.Add(1)
		go n.worker(q)
	}
}

// shutdown runs on the dispatch loop when the transport closes: drain
// and stop the workers, then unblock every parked goroutine — rpc
// waiters, a master collecting arrivals, local lock and barrier queues.
func (n *Node) shutdown() {
	for _, q := range n.queues {
		close(q)
	}
	n.workerWG.Wait()
	close(n.closedCh)
	n.waiterMu.Lock()
	for seq, w := range n.waiters {
		delete(n.waiters, seq)
		w.deliver(nil)
	}
	n.waiterMu.Unlock()
	close(n.barCh)
	close(n.gcCh)
}

// --- application API: memory ---

// inSpace reports whether [addr, addr+size) lies inside [0, space). The
// end is never computed: addr+size wraps for addr near math.MaxInt64.
func inSpace(addr mem.Addr, size int, space mem.Addr) bool {
	return mem.Addr(size) <= space && addr >= 0 && addr <= space-mem.Addr(size)
}

// Write copies data into the shared address space at addr. Safe for
// concurrent use; writes to distinct pages proceed in parallel.
func (n *Node) Write(addr mem.Addr, data []byte) error {
	lay := n.sys.layout
	if !inSpace(addr, len(data), lay.SpaceSize()) {
		return fmt.Errorf("dsm: write of %d bytes at %d outside space [0,%d)", len(data), addr, lay.SpaceSize())
	}
	// Page by page, with no closure and through the engine's concrete type,
	// so that the caller's buffer can stay on its stack: a hit allocates
	// nothing.
	for len(data) > 0 {
		off := lay.Offset(addr)
		count := min(len(data), lay.PageSize()-off)
		if err := n.writePage(lay.PageOf(addr), off, data[:count]); err != nil {
			return err
		}
		addr, data = addr+mem.Addr(count), data[count:]
	}
	return nil
}

// Read copies len(buf) bytes of the shared address space at addr into
// buf. Safe for concurrent use; reads of distinct pages proceed in
// parallel.
func (n *Node) Read(buf []byte, addr mem.Addr) error {
	lay := n.sys.layout
	if !inSpace(addr, len(buf), lay.SpaceSize()) {
		return fmt.Errorf("dsm: read of %d bytes at %d outside space [0,%d)", len(buf), addr, lay.SpaceSize())
	}
	for len(buf) > 0 { // as in Write
		off := lay.Offset(addr)
		count := min(len(buf), lay.PageSize()-off)
		if err := n.readPage(lay.PageOf(addr), off, buf[:count]); err != nil {
			return err
		}
		addr, buf = addr+mem.Addr(count), buf[count:]
	}
	return nil
}

// readPage and writePage call the engine through its concrete type: an
// interface call would make the caller's buffer escape, and ReadUint64's
// eight bytes are the access hit path's only allocation.

func (n *Node) readPage(pg mem.PageID, off int, dst []byte) error {
	switch e := n.e.(type) {
	case *lazyEngine:
		return e.readPage(pg, off, dst)
	case *eagerEngine:
		return e.readPage(pg, off, dst)
	default:
		return e.(*scEngine).readPage(pg, off, dst)
	}
}

func (n *Node) writePage(pg mem.PageID, off int, src []byte) error {
	switch e := n.e.(type) {
	case *lazyEngine:
		return e.writePage(pg, off, src)
	case *eagerEngine:
		return e.writePage(pg, off, src)
	default:
		return e.(*scEngine).writePage(pg, off, src)
	}
}

// WriteUint64 stores a little-endian uint64 at addr.
func (n *Node) WriteUint64(addr mem.Addr, v uint64) error {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	return n.Write(addr, b[:])
}

// ReadUint64 loads a little-endian uint64 from addr.
func (n *Node) ReadUint64(addr mem.Addr) (uint64, error) {
	var b [8]byte
	if err := n.Read(b[:], addr); err != nil {
		return 0, err
	}
	var v uint64
	for i := range b {
		v |= uint64(b[i]) << (8 * i)
	}
	return v, nil
}
