package dsm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/transport"
	"repro/internal/vc"
	"repro/internal/wire"
)

// Message order, the one contract between a node's dispatch loop and its
// workers. The dispatch loop (dispatchLoop) decodes each frame into its one
// message and routes it (dispatchMsg): a barrier arrival or exit inline —
// it only parks on the master (park) or wakes an rpc waiter — and every
// other message onto the FIFO queue of its sender's worker, one of
// handlerWorkers, keyed by the sender's id modulo the pool size. A worker
// runs its queue one message at a time (process, the engine's handle
// first), so each peer's messages are handled in the order it sent them
// while different peers' proceed concurrently: a node takes a page's
// ships, grants, invalidations and fetches from its home alone, so they
// land in directory order, and an invalidation never overtakes a ship the
// home sent before it (TestEIInvalidationOvertakesShipRepro); only an EU
// writer's direct update may overtake a ship. A handler never blocks its
// worker: work that waits for responses (SC's directory transactions, an
// eager home's forwards and invalidations) runs on its own goroutine, and
// no handler waits on the application goroutine, so every queue drains. A
// full queue backpressures the dispatch loop, and through it the
// transport. A stopped node (fail) drops every frame.
//
// Page state is striped across pageShards mutexes keyed by page id, so
// independent pages fault, install and diff in parallel.
const (
	pageShards     = 64   // stripes of the page-state lock table
	handlerWorkers = 8    // workers, each with its queue, per node
	workerQueueCap = 1024 // messages a worker's queue holds
)

// Stats counts a node's protocol events. Which counters move depends on
// the engine: the lazy protocols create intervals and move diffs, the
// eager ones flush at releases, SC ships whole pages and transfers
// ownership.
type Stats struct {
	// AccessMisses counts application accesses that found their page's
	// copy invalid: one per fault, however many pages it brought current.
	// PagesAggregated counts the other pages an LI fault brought current in
	// the same round (its siblings, lazyEngine.fault: invalid copies whose
	// diffs the fault's own responders serve). A lazy engine's
	// acquire-time and GC-epoch revalidations are no faults and count in
	// neither; ColdMisses counts every copy a miss found missing.
	AccessMisses     int64
	PagesAggregated  int64
	ColdMisses       int64
	DiffsApplied     int64
	DiffsFetched     int64
	IntervalsCreated int64
	PagesFetched     int64
	// PageForwards counts the page requests this node, as the page's lazy
	// home, forwarded to the page's keeper: a modifier a GC epoch named to
	// hold the copy of a page the home never touched. KeptPages gauges the
	// pages it homes that have a keeper now.
	PageForwards int64
	KeptPages    int64
	// GCRuns counts completed GC epochs: discards, each of which runs at
	// the barrier after the one that validated its epoch.
	GCRuns         int64
	DiffsDiscarded int64

	// Diff data plane: DiffsCreated counts the diffs cut from write logs
	// (the lazy engines' at interval close, one per dirty page, the eager
	// engines' at their flush points), the rest are the lazy engines':
	// DiffCacheHits counts serves of a retained diff
	// after its first (the body the first serve shipped is reused as is; a
	// range want's merge is made fresh for each serve and never counts),
	// DiffsFlattened counts the diffs a creator merged away answering range
	// wants (members - 1 per merged serve),
	// DiffsFetched counts diff records received in answer to a request,
	// one per want whether it names one interval or a range (piggybacked
	// ones are not fetched, nor are wants a responder did not hold;
	// DiffsApplied counts the diffs a miss applied, a merged range once),
	// DiffFallbacks counts the wants a concurrent last modifier answered
	// "not held" and the miss asked their creator for again. TwinBytesLive
	// gauges the bytes of old values the node's write logs hold, lazy and
	// eager (first writes of words minus commits), with TwinBytesPeak its
	// high-water mark.
	DiffsCreated int64
	// DiffsDeferred is always 0: no diff waits for a serve, and nothing
	// counts one. Kept for bench/lrcbench; ROADMAP item 1 removes it.
	DiffsDeferred  int64
	DiffCacheHits  int64
	DiffsFlattened int64
	DiffFallbacks  int64
	TwinBytesLive  int64
	TwinBytesPeak  int64
	// TwinPoolMisses counts the leases — diffs, store body slabs — the page
	// pool had to allocate for. The pool is the process's: every node
	// reports the same figure.
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

	// Outbound traffic as the node handed it to the transport (loopback
	// excluded, matching the interconnect's accounting):
	// SentMsgs messages, each one frame, SentBytes of encoded payload in
	// total: the sums of KindMsgs and KindBytes.
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
// so counters tick from any goroutine — application, handler worker or
// directory transaction — without touching any page stripe, and a
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
	pageForwards     atomic.Int64
	keptPages        atomic.Int64
	gcRuns           atomic.Int64
	diffsDiscarded   atomic.Int64
	diffsCreated     atomic.Int64
	diffCacheHits    atomic.Int64
	diffsFlattened   atomic.Int64
	diffFallbacks    atomic.Int64
	twinBytesLive    atomic.Int64
	twinBytesPeak    atomic.Int64
	flushedPages     atomic.Int64
	invalsReceived   atomic.Int64
	updatesReceived  atomic.Int64
	ownershipMoves   atomic.Int64

	kindMsgs  [wire.NumKinds]atomic.Int64
	kindBytes [wire.NumKinds]atomic.Int64
}

// countSent ticks the per-kind outbound counters, whose sums are the
// totals, for one encoded message of the given payload size (called by
// Node.send for remote destinations only).
func (s *nodeStats) countSent(k wire.Kind, bytes int) {
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
		PageForwards:     s.pageForwards.Load(),
		KeptPages:        s.keptPages.Load(),
		GCRuns:           s.gcRuns.Load(),
		DiffsDiscarded:   s.diffsDiscarded.Load(),
		DiffsCreated:     s.diffsCreated.Load(),
		DiffCacheHits:    s.diffCacheHits.Load(),
		DiffsFlattened:   s.diffsFlattened.Load(),
		DiffFallbacks:    s.diffFallbacks.Load(),
		TwinBytesLive:    s.twinBytesLive.Load(),
		FlushedPages:     s.flushedPages.Load(),
		InvalsReceived:   s.invalsReceived.Load(),
		UpdatesReceived:  s.updatesReceived.Load(),
		OwnershipMoves:   s.ownershipMoves.Load(),
	}
	s.raisePeak(st.TwinBytesLive)
	st.TwinBytesPeak = s.twinBytesPeak.Load()
	_, st.TwinPoolMisses = page.PoolStats()
	for k := range s.kindMsgs {
		st.KindMsgs[k] = s.kindMsgs[k].Load()
		st.KindBytes[k] = s.kindBytes[k].Load()
		st.SentMsgs += st.KindMsgs[k]
		st.SentBytes += st.KindBytes[k]
	}
	st.SentFrames = st.SentMsgs
	return st
}

// lockLocal is a node's view of one lock.
type lockLocal struct {
	held      bool      // the node holds it
	acquiring bool      // a grant is in flight to us (we are next holder)
	cached    bool      // we were the last holder; reacquisition is local
	pending   *wire.Msg // a forwarded request awaiting our release
}

// inFrame is one decoded incoming message queued for a handler worker.
type inFrame struct {
	m   *wire.Msg
	src mem.ProcID
}

// Node is one DSM processor, driven by one application goroutine: Read,
// Write, Acquire, Release and Barrier (and the helpers built on them) are
// its calls, and one made while another goroutine's is in progress fails
// with a descriptive error instead of racing it. Stats, Clock and ID, like
// System.Status, are safe from any goroutine. Incoming protocol frames are
// served beside it, in Message order.
type Node struct {
	sys *System
	id  mem.ProcID
	ep  transport.Endpoint
	// e is the node's protocol engine, the one Config.Mode names.
	e engine
	// dsts is every destination's send state (send), and the record of
	// which destinations are dead.
	dsts []outDest

	// pageMu is the striped page-state lock table: pageLock(pg) guards
	// the engine's per-page state (copy bytes, validity, write log,
	// applied clock) and is never held across a blocking operation.
	pageMu [pageShards]sync.Mutex

	// busy is set while the application goroutine is in one of the node's
	// calls (enter).
	busy atomic.Bool

	// lockMu guards the distributed-lock local state machine and the
	// manager-side last-holder table. Engine payload hooks called under
	// it take only engine sync state (lock order: lockMu before engine
	// mutexes, never the reverse).
	lockMu  sync.Mutex
	locks   map[mem.LockID]*lockLocal
	mgrLast map[mem.LockID]mem.ProcID // manager-side last holder

	stats nodeStats

	// Barrier master state, fed by the dispatch loop (park): barrier
	// arrivals; collected holds a round's messages (collectRound).
	barCh     chan *wire.Msg
	collected []*wire.Msg

	waiterTable
	// failure is the timeout the node stopped on; stopped closes with it.
	failure atomic.Pointer[error]
	stopped chan struct{}

	errMu   sync.Mutex
	errs    []error
	errSeen map[string]struct{}

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
	// on shutdown. closedCh is closed once the transport has gone away.
	queues   []chan inFrame
	workerWG sync.WaitGroup
	closedCh chan struct{}
}

func newNode(s *System, id mem.ProcID) *Node {
	n := &Node{
		sys:         s,
		id:          id,
		ep:          s.tr.Endpoint(int(id)),
		locks:       make(map[mem.LockID]*lockLocal),
		mgrLast:     make(map[mem.LockID]mem.ProcID),
		barCh:       make(chan *wire.Msg, s.cfg.Procs),
		dsts:        make([]outDest, s.cfg.Procs),
		waiterTable: waiterTable{waiters: make(map[uint64]*rpcWaiter)},
		queues:      make([]chan inFrame, handlerWorkers),
		closedCh:    make(chan struct{}),
		stopped:     make(chan struct{}),
	}
	for i := range n.queues {
		n.queues[i] = make(chan inFrame, workerQueueCap)
	}
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

// enter claims the node for the application call op, or fails it once
// the node has stopped (fail) or while another goroutine's call is in
// progress: the node is one processor, and its engine keeps one miss, one
// flush and one round's scratch at a time. The caller releases the claim
// with leave.
func (n *Node) enter(op string) error {
	if err := n.failure.Load(); err != nil {
		return fmt.Errorf("dsm: node %d: %s on a stopped node: %w", n.id, op, *err)
	}
	if n.busy.CompareAndSwap(false, true) {
		return nil
	}
	return fmt.Errorf("dsm: node %d: %s while another goroutine is in a call on the node (one application goroutine per node)", n.id, op)
}

func (n *Node) leave() { n.busy.Store(false) }

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
	if e, lazy := n.e.(*lazyEngine); lazy {
		return e.clock()
	}
	return vc.New(n.sys.cfg.Procs)
}

// maxNotedErrs bounds each node's recorded error list: under
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

func (n *Node) takeErrs() []error {
	n.errMu.Lock()
	defer n.errMu.Unlock()
	errs := n.errs
	n.errs = nil
	return errs
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

// dispatchLoop receives frames until the transport closes, decoding each
// into its one message, which owns the frame from then on
// (wire.Msg.HoldFrame), and routes it in Message order.
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
		if n.failure.Load() != nil {
			framebuf.Put(payload)
			continue
		}
		m, err := wire.Decode(payload)
		if err != nil {
			framebuf.Put(payload)
			n.noteErr("inbound frame", fmt.Errorf("undecodable frame from %d: %w", src, err))
			continue
		}
		m.HoldFrame(payload)
		n.dispatchMsg(m, mem.ProcID(src))
	}
}

// dispatchMsg routes one decoded message (Message order): the collecting
// master holds an arrival from then on (park), a worker what it queues.
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
		n.park(m, src)
	case wire.KBarrierExit:
		n.deliverResponse(m)
		m.Release()
	default:
		n.queues[int(src)%handlerWorkers] <- inFrame{m: m, src: src}
	}
}

// checkSender holds a message's claimed identity to the endpoint it came
// from: a request that names its sender in B must come from that node —
// but a lazy page request from the page's home, which forwards it to the
// page's keeper with the requester in B — a barrier exit from the master,
// and a lock forward from the lock's manager. Everything after dispatch
// trusts these fields — a master counts an arrival by B, a manager grants
// and a home or keeper ships to B, a waiter wakes on whichever exit
// carries its seq. The check is only as good as
// the transport's src: simnet's is the sending endpoint, but TCP takes it
// from the stream's hello, which nothing authenticates, so over TCP it
// binds a message to the identity its stream claims.
func (n *Node) checkSender(m *wire.Msg, src mem.ProcID) error {
	switch m.Kind {
	case wire.KLockReq, wire.KBarrierArrive, wire.KPageReq, wire.KWriteReq:
		if mem.ProcID(m.B) != src && !n.homeForward(m, src) {
			return fmt.Errorf("%v claims node %d but came from %d", m.Kind, m.B, src)
		}
	case wire.KBarrierExit:
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

// homeForward reports whether m is a page request a lazy home forwarded
// from src: src homes m's page.
func (n *Node) homeForward(m *wire.Msg, src mem.ProcID) bool {
	_, lazy := n.e.(*lazyEngine)
	return lazy && m.Kind == wire.KPageReq && src == n.homeOf(mem.PageID(m.A))
}

// worker drains one message queue (Message order). It lets go of a
// message as soon as its handler returns: what the handler sent is encoded
// already, and a handler that hands its message on — to an rpc waiter, to
// a serving goroutine, to a lock's pending slot — retained it for the new
// holder first.
func (n *Node) worker(q chan inFrame) {
	defer n.workerWG.Done()
	for f := range q {
		n.process(f.m, f.src)
		f.m.Release()
	}
}

// process handles one dispatched message on its sender's worker.
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
// and stop the workers, then unblock every parked wait — rpc waiters and
// a master collecting arrivals.
func (n *Node) shutdown() {
	for _, q := range n.queues {
		close(q)
	}
	n.workerWG.Wait()
	close(n.closedCh)
	n.failWaiters(-1)
	close(n.barCh)
}

// --- application API: memory ---

// inSpace reports whether [addr, addr+size) lies inside [0, space). The
// end is never computed: addr+size wraps for addr near math.MaxInt64.
func inSpace(addr mem.Addr, size int, space mem.Addr) bool {
	return mem.Addr(size) <= space && addr >= 0 && addr <= space-mem.Addr(size)
}

// Write copies data into the shared address space at addr.
func (n *Node) Write(addr mem.Addr, data []byte) error {
	lay := n.sys.layout
	if !inSpace(addr, len(data), lay.SpaceSize()) {
		return fmt.Errorf("dsm: write of %d bytes at %d outside space [0,%d)", len(data), addr, lay.SpaceSize())
	}
	if err := n.enter("write"); err != nil {
		return err
	}
	defer n.leave()
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
// buf.
func (n *Node) Read(buf []byte, addr mem.Addr) error {
	lay := n.sys.layout
	if !inSpace(addr, len(buf), lay.SpaceSize()) {
		return fmt.Errorf("dsm: read of %d bytes at %d outside space [0,%d)", len(buf), addr, lay.SpaceSize())
	}
	if err := n.enter("read"); err != nil {
		return err
	}
	defer n.leave()
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
	binary.LittleEndian.PutUint64(b[:], v)
	return n.Write(addr, b[:])
}

// ReadUint64 loads a little-endian uint64 from addr.
func (n *Node) ReadUint64(addr mem.Addr) (uint64, error) {
	var b [8]byte
	if err := n.Read(b[:], addr); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(b[:]), nil
}
