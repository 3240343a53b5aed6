package dsm

import (
	"fmt"
	"sync"

	"repro/internal/mem"
	"repro/internal/page"
	"repro/internal/vc"
	"repro/internal/wire"
)

// eagerEngine implements eager release consistency in the style of
// Munin's write-shared protocol (paper §3): a processor buffers its
// modifications as twins until a release or barrier, then pushes them to
// every other cacher of each dirty page — invalidations (EI) or diffs
// (EU) — and blocks until all are acknowledged. Each page has a static
// directory at its home tracking the owner (the last flusher) and the
// copyset; access misses ship the whole page from the owner through the
// home.
//
// The home serializes all directory transactions for a page under a
// per-page mutex and sends every message of a transaction while holding
// it. The transport's FIFO order plus the receiver's per-page shard
// queue then guarantee a cacher observes a page ship before any
// invalidation or update that follows it. Page grants are installed by
// the shard worker as they arrive (installPage), never on the
// application goroutine after its rpc wakeup — so installs happen in
// directory order, are never abandoned, and the home's copyset always
// reflects what each node actually holds (the pre-refactor design
// installed application-side behind a generation guard; with several
// application goroutines an abandoned install left the node a copyset
// member holding stale data, which a later flush would promote to the
// owner copy).
//
// Concurrency: page copies, twins and generations are per-page state
// under the node's striped lock table; the write set and the
// in-flight flush bookkeeping live under small dedicated mutexes. With
// multiple application goroutines per node a flush point must cover not
// only the pages its own snapshot took but also every flush another
// local goroutine already has in flight (the twin is node-level, so a
// concurrent flusher may be carrying this goroutine's writes): flushes
// take a ticket on entry and a release completes only after every
// earlier-ticketed flush has been acknowledged. Two local flushes of
// the same page additionally serialize through a per-page slot so their
// diffs reach the home in write order (EU cachers apply them in arrival
// order).
type eagerEngine struct {
	n      *Node
	update bool // EU: push diffs; EI: push invalidations

	// pages[i] is guarded by n.pageLock(i).
	pages []*eagerPage

	// ws is the write set of the critical sections since the last flush
	// point; each flush drains it into its own cand.
	ws *writeSet

	// flightMu guards the flush bookkeeping: in-flight flush payloads by
	// request Seq (for the handler-side reconciliation), per-page flush
	// slots, and the ticket counters ordering concurrent flush points.
	flightMu sync.Mutex
	flightCv *sync.Cond
	inflight map[uint64]flushState
	flushing map[mem.PageID]chan struct{}
	// Ticket scheme: nextTicket numbers flush points in snapshot order;
	// doneTickets records finished ones; lowTicket is the first ticket
	// not yet known finished. A flush with ticket t may return once
	// lowTicket > t (every earlier flush — which may carry this
	// goroutine's writes — has been acknowledged).
	nextTicket  uint64
	lowTicket   uint64
	doneTickets map[uint64]bool

	dir []eagerDir // directory entries; used only for pages homed here
}

// eagerPage is a node's local copy of one page, guarded by its stripe.
type eagerPage struct {
	data  []byte
	valid bool
	twin  *page.Twin
}

type flushState struct {
	pg   mem.PageID
	diff *page.Diff
}

// eagerDir is one page's directory entry at its home.
type eagerDir struct {
	mu      sync.Mutex
	owner   mem.ProcID
	copyset uint64
}

func newEagerEngine(n *Node, update bool) *eagerEngine {
	e := &eagerEngine{
		n:           n,
		update:      update,
		pages:       make([]*eagerPage, n.sys.layout.NumPages()),
		ws:          newWriteSet(),
		inflight:    make(map[uint64]flushState),
		flushing:    make(map[mem.PageID]chan struct{}),
		doneTickets: make(map[uint64]bool),
		dir:         make([]eagerDir, n.sys.layout.NumPages()),
	}
	e.flightCv = sync.NewCond(&e.flightMu)
	for pg := range e.dir {
		e.dir[pg].owner = n.homeOf(mem.PageID(pg))
	}
	return e
}

func (e *eagerEngine) clock() vc.VC { return vc.New(e.n.sys.cfg.Procs) }

// --- accesses ---

// ensureValid obtains a copy of pg, fetching it from the owner through
// the home's directory on a miss. All misses go through the message
// path, including the home's own (loopback is free), so the directory
// transaction order is the single source of truth. Miss service
// serializes per page under the miss lock, and the granted page is
// installed by the page's shard worker as the response arrives — in
// directory order, never abandoned — so the home's copyset always
// matches what this node actually holds. An invalidation that lands
// directly behind the install leaves the copy invalid again; that is
// the same staleness window an eagerly-consistent access always had
// between validation and use, and the flush path reports it (see
// flushPages' needBase).
func (e *eagerEngine) ensureValid(pg mem.PageID) error {
	n := e.n
	pmu := n.pageLock(pg)
	pmu.Lock()
	pc := e.pages[pg]
	if pc != nil && pc.valid {
		pmu.Unlock()
		return nil
	}
	pmu.Unlock()

	mmu := n.missLock(pg)
	mmu.Lock()
	defer mmu.Unlock()

	pmu.Lock()
	pc = e.pages[pg]
	if pc != nil && pc.valid {
		pmu.Unlock()
		return nil
	}
	n.stats.accessMisses.Add(1)
	if pc == nil {
		n.stats.coldMisses.Add(1)
	}
	pmu.Unlock()

	// The response is intercepted in handle: by the time rpc returns,
	// the shard worker has installed the granted page.
	resp, err := n.rpc(n.homeOf(pg), &wire.Msg{
		Kind: wire.KPageReq, Seq: n.nextSeq(), A: int32(pg), B: int32(n.id),
	})
	resp.Release()
	return err
}

// installPage applies a granted page at the requester, on the page's
// shard worker, so the install happens in directory order: every
// invalidation or update the home sent before this ship has already
// been applied, and any sent after will be. If a concurrent local
// critical section is mid-flight on the stale copy, its uncommitted
// writes are lifted off and reinstated on top of the fetched data with
// the twin rebased beneath them — the words belong to locks that
// section holds, so no newer committed values for them can exist.
//
// Returns false (recording the cause) for a grant that cannot be
// installed — bad page id or wrong-size data — so the caller fails the
// waiter instead of delivering a response that installed nothing.
func (e *eagerEngine) installPage(m *wire.Msg) bool {
	n := e.n
	pg := mem.PageID(m.A)
	if !n.validPage(pg) || len(m.Data) != n.sys.layout.PageSize() {
		n.noteErr("page install",
			fmt.Errorf("bad page grant: page %d, %d data bytes", pg, len(m.Data)))
		return false
	}
	pmu := n.pageLock(pg)
	pmu.Lock()
	defer pmu.Unlock()
	pc := e.pages[pg]
	if pc == nil {
		pc = &eagerPage{}
		e.pages[pg] = pc
	}
	if pc.twin != nil {
		du, err := page.MakeDiff(pc.twin, pc.data)
		if err != nil {
			panic(fmt.Sprintf("dsm: node %d: lifting uncommitted writes off page %d: %v", n.id, pg, err))
		}
		n.stats.diffsCreated.Add(1)
		pc.twin.Release()
		pc.twin = page.NewTwin(m.Data)
		pc.data = m.Data
		if err := du.Apply(pc.data); err != nil {
			panic(fmt.Sprintf("dsm: node %d: reinstating uncommitted writes on page %d: %v", n.id, pg, err))
		}
		du.Release()
	} else {
		pc.data = m.Data
	}
	pc.valid = true
	n.stats.pagesFetched.Add(1)
	return true
}

func (e *eagerEngine) readPage(pg mem.PageID, off int, dst []byte) error {
	if err := e.ensureValid(pg); err != nil {
		return err
	}
	pmu := e.n.pageLock(pg)
	pmu.Lock()
	copy(dst, e.pages[pg].data[off:off+len(dst)])
	pmu.Unlock()
	return nil
}

func (e *eagerEngine) writePage(pg mem.PageID, off int, src []byte) error {
	if err := e.ensureValid(pg); err != nil {
		return err
	}
	pmu := e.n.pageLock(pg)
	pmu.Lock()
	pc := e.pages[pg]
	if pc.twin == nil {
		pc.twin = page.NewTwin(pc.data)
		e.ws.add(pg)
	}
	copy(pc.data[off:off+len(src)], src)
	pmu.Unlock()
	return nil
}

// --- flush: the release/barrier-time propagation of §3 ---

// flush commits this node's buffered modifications and pushes them
// through each dirty page's home to every other cacher, blocking until
// the home has invalidated (EI) or updated (EU) them all — and until
// every flush an earlier local flush point still has in flight is
// acknowledged too, so a release never completes while any write made
// on this node before it is still propagating. Called from an
// application goroutine without locks.
func (e *eagerEngine) flush() error {
	// Drain the write set and take a ticket atomically: every page a
	// local goroutine dirtied before this point is either in our
	// snapshot or owned by an earlier-ticketed flush we will wait for.
	e.flightMu.Lock()
	ticket := e.nextTicket
	e.nextTicket++
	cand := e.ws.drain(nil)
	e.flightMu.Unlock()
	e.ws.check(e.n, func(pg mem.PageID) bool { return e.pages[pg] != nil && e.pages[pg].twin != nil })

	err := e.flushPages(cand)
	e.finishTicket(ticket)
	if err != nil {
		return err // a burst abandoned mid-claim left twins behind: they stay claimed
	}
	e.ws.settle(cand)

	// Wait for every earlier-ticketed flush point to finish.
	e.flightMu.Lock()
	for e.lowTicket <= ticket {
		e.flightCv.Wait()
	}
	e.flightMu.Unlock()
	return nil
}

// finishTicket marks a flush point done and advances the low-water mark
// past every consecutively finished ticket.
func (e *eagerEngine) finishTicket(t uint64) {
	e.flightMu.Lock()
	e.doneTickets[t] = true
	for e.doneTickets[e.lowTicket] {
		delete(e.doneTickets, e.lowTicket)
		e.lowTicket++
	}
	e.flightCv.Broadcast()
	e.flightMu.Unlock()
}

// flushPages diffs and pushes every candidate page through its home as
// ONE grouped burst: each page's flush slot is claimed (pages in sorted
// order, so concurrent local flush points cannot deadlock on each
// other's slots), its diff taken while the slot is held, and then all
// KFlushReqs are staged before a single outbox flush — so a release
// that dirtied several pages with a common home sends them in one
// batch frame, and every home's directory transaction runs
// concurrently instead of one blocking round trip per page.
func (e *eagerEngine) flushPages(cand []mem.PageID) error {
	n := e.n
	type pend struct {
		fs   flushState
		slot chan struct{}
		req  wire.Msg
	}
	var pendBuf [4]pend // the burst's scratch lives in the frame; a fifth page spills
	var reqBuf [4]outMsg
	pends, reqs := pendBuf[:0], reqBuf[:0]
	// releaseSlots frees every claimed slot; called once whether the
	// burst succeeds, fails, or is abandoned mid-claim.
	releaseSlots := func() {
		e.flightMu.Lock()
		for _, p := range pends {
			delete(e.flushing, p.fs.pg)
		}
		e.flightMu.Unlock()
		for _, p := range pends {
			close(p.slot)
		}
	}

	for _, pg := range cand {
		// Claim the page's flush slot, waiting out any earlier local
		// flush of the same page so diffs reach the home in the order
		// they were taken.
		var slot chan struct{}
		for slot == nil {
			e.flightMu.Lock()
			if ch := e.flushing[pg]; ch != nil {
				e.flightMu.Unlock()
				select {
				case <-ch:
				case <-n.closedCh:
					releaseSlots()
					return fmt.Errorf("dsm: node %d: flush of page %d: %w", n.id, pg, ErrClosed)
				}
				continue
			}
			slot = make(chan struct{})
			e.flushing[pg] = slot
			e.flightMu.Unlock()
		}
		unclaim := func() {
			e.flightMu.Lock()
			delete(e.flushing, pg)
			e.flightMu.Unlock()
			close(slot)
		}

		// Take the diff under the slot. If our copy is invalid at flush
		// time (a critical section may keep writing through an
		// invalidation, exactly as in the single-threaded engine), the
		// reconciliation must carry a base: becoming owner with stale
		// data would silently revert other processors' committed words.
		// Shard-ordered installs keep the home's copyset equal to what
		// we actually hold, so the home's own check covers this too —
		// the explicit flag (a non-empty Data section on KFlushReq) is
		// defense in depth at one byte of cost.
		pmu := n.pageLock(pg)
		pmu.Lock()
		pc := e.pages[pg]
		if pc == nil || pc.twin == nil {
			pmu.Unlock()
			unclaim()
			continue
		}
		needBase := !pc.valid
		d, err := page.MakeDiff(pc.twin, pc.data)
		pc.twin.Release()
		pc.twin = nil
		pmu.Unlock()
		if err != nil {
			unclaim()
			releaseSlots()
			return err
		}
		n.stats.diffsCreated.Add(1)
		if d.Empty() {
			unclaim()
			continue
		}
		req := wire.Msg{Kind: wire.KFlushReq, Seq: n.nextSeq(), A: int32(pg), B: int32(n.id)}
		if needBase {
			req.Data = []byte{1}
		}
		if e.update {
			req.Diffs = []wire.DiffRec{{Page: pg, Diff: d}}
		}
		pends = append(pends, pend{fs: flushState{pg: pg, diff: d}, slot: slot, req: req})
	}
	if len(pends) == 0 {
		return nil
	}

	// Stage the whole burst, flush once, await every reconciliation.
	// The shard workers apply each KFlushDone payload (base data) before
	// delivering it here; by the time rpcAll returns, this node's copies
	// are the pages' authoritative state.
	e.flightMu.Lock()
	for _, p := range pends {
		e.inflight[p.req.Seq] = p.fs
		reqs = append(reqs, outMsg{dst: n.homeOf(p.fs.pg), m: p.req})
	}
	e.flightMu.Unlock()
	dones, err := n.rpcAll(reqs, nil)
	releaseAll(dones) // applyFlushDone consumed them on the shard worker
	if err != nil {
		// Unacknowledged flushes will never reconcile; drop their
		// in-flight entries (acknowledged ones were already consumed by
		// applyFlushDone, for which delete is a no-op).
		e.flightMu.Lock()
		for _, p := range pends {
			delete(e.inflight, p.req.Seq)
		}
		e.flightMu.Unlock()
	}
	releaseSlots()
	if err != nil {
		// The diffs stay with the collector: a late KFlushDone may read one.
		return err
	}
	for i := range pends {
		pends[i].fs.diff.Release() // every reconciliation has applied it
	}
	n.stats.flushedPages.Add(int64(len(pends)))
	return nil
}

// --- lock and barrier hooks: flush at every release point ---

func (e *eagerEngine) acquireStart(req *wire.Msg)    {}
func (e *eagerEngine) grant(req, grant *wire.Msg)    {}
func (e *eagerEngine) onGrant(grant *wire.Msg) error { return nil }
func (e *eagerEngine) preRelease() error             { return e.flush() }
func (e *eagerEngine) release()                      {}

// dropPage and adoptPage run only in the quiescent hand-off
// rendezvous: no flush, fetch or directory transaction for the page is
// in flight anywhere, so resetting the directory entry alongside the
// copy cannot strand a peer.
func (e *eagerEngine) dropPage(pg mem.PageID) {
	pmu := e.n.pageLock(pg)
	pmu.Lock()
	if pc := e.pages[pg]; pc != nil && pc.twin != nil {
		pc.twin.Release()
	}
	e.pages[pg] = nil
	pmu.Unlock()
	e.ws.drop(pg)
	d := &e.dir[pg]
	d.mu.Lock()
	d.owner = e.n.homeOf(pg)
	d.copyset = 0
	d.mu.Unlock()
}

func (e *eagerEngine) adoptPage(pg mem.PageID, data []byte) {
	d := &e.dir[pg]
	d.mu.Lock()
	d.owner = e.n.homeOf(pg)
	d.copyset = 0
	d.mu.Unlock()
	if data == nil {
		// Non-home: fault through the home's directory on first use.
		return
	}
	pmu := e.n.pageLock(pg)
	pmu.Lock()
	e.pages[pg] = &eagerPage{data: append([]byte(nil), data...), valid: true}
	pmu.Unlock()
	d.mu.Lock()
	d.copyset = 1 << uint(e.n.id)
	d.mu.Unlock()
}

func (e *eagerEngine) preBarrier() error                 { return e.flush() }
func (e *eagerEngine) barrierEntry()                     {}
func (e *eagerEngine) arrive(arrive *wire.Msg)           {}
func (e *eagerEngine) masterAbsorb(arrivals []*wire.Msg) {}
func (e *eagerEngine) exit(m, exit *wire.Msg)            {}
func (e *eagerEngine) onExit(exit *wire.Msg) error       { return nil }
func (e *eagerEngine) postBarrier(b mem.BarrierID) error { return nil }

// --- handler side ---

func (e *eagerEngine) handle(m *wire.Msg, src mem.ProcID) bool {
	switch m.Kind {
	case wire.KPageReq:
		// The transaction outlives this handler: it holds the request.
		m.Retain()
		go e.servePageReq(m)
	case wire.KFlushReq:
		m.Retain()
		go e.serveFlushReq(m)
	case wire.KFetch:
		e.serveFetch(m, src)
	case wire.KInval:
		e.applyInval(m, src)
	case wire.KUpdate:
		e.applyUpdate(m, src)
	case wire.KPageResp:
		// Intercepted response: install the granted page on the page's
		// shard worker, in directory order, then wake the faulting
		// application goroutine. A rejected grant fails the waiter
		// instead (the cause is already in noteErr).
		if e.installPage(m) {
			e.n.deliverResponse(m)
		} else {
			e.n.failWaiter(m.Seq)
		}
	case wire.KFlushDone:
		// Intercepted response: apply the home's reconciliation on the
		// page's shard worker so it is in place before any later
		// directory message for the page arrives, then wake the
		// flushing application goroutine.
		if e.applyFlushDone(m) {
			e.n.deliverResponse(m)
		} else {
			e.n.failWaiter(m.Seq)
		}
	default:
		return false
	}
	return true
}

// committedLocked returns a copy of this node's committed contents of
// pg: the twin if a critical section is mid-write, the page data
// otherwise. Caller holds the page stripe; the page must be present.
func (e *eagerEngine) committedLocked(pg mem.PageID) []byte {
	pc := e.pages[pg]
	if pc.twin != nil {
		return append([]byte(nil), pc.twin.Data()...)
	}
	return append([]byte(nil), pc.data...)
}

// ownerData obtains the committed contents of pg from its current owner
// via Node.fetchFromOwner (see there for the loopback ordering rule).
func (e *eagerEngine) ownerData(d *eagerDir, pg mem.PageID) ([]byte, error) {
	return e.n.fetchFromOwner(d.owner, pg)
}

// servePageReq runs the home's miss transaction on its own goroutine:
// owner data travels home -> requester, and the requester joins the
// copyset. The directory lock is held across the reply send so any
// later invalidation or update follows the page ship in FIFO order.
func (e *eagerEngine) servePageReq(m *wire.Msg) {
	defer m.Release()
	n := e.n
	pg := mem.PageID(m.A)
	requester := mem.ProcID(m.B)
	if !n.validPage(pg) || !n.validProc(requester) {
		n.noteErr("page request",
			fmt.Errorf("bad ids in request: page %d requester %d", pg, requester))
		return
	}
	d := &e.dir[pg]
	d.mu.Lock()
	defer d.mu.Unlock()
	data, err := e.ownerData(d, pg)
	if err != nil {
		n.noteErr(fmt.Sprintf("page %d owner fetch", pg), err)
		return
	}
	d.copyset |= 1 << uint(requester)
	resp := &wire.Msg{Kind: wire.KPageResp, Seq: m.Seq, A: m.A, Data: data}
	n.noteErr(fmt.Sprintf("page response to %d", requester), n.send(requester, resp))
}

// serveFlushReq runs the home's release transaction for one dirty page:
// every other copyset member is invalidated (EI) or updated (EU), the
// flusher becomes the owner, and the reply carries the reconciliation the
// flusher must apply. The directory lock is held across all of it.
func (e *eagerEngine) serveFlushReq(m *wire.Msg) {
	defer m.Release()
	n := e.n
	pg := mem.PageID(m.A)
	flusher := mem.ProcID(m.B)
	if !n.validPage(pg) || !n.validProc(flusher) {
		n.noteErr("flush request",
			fmt.Errorf("bad ids in request: page %d flusher %d", pg, flusher))
		return
	}
	d := &e.dir[pg]
	d.mu.Lock()
	defer d.mu.Unlock()

	done := &wire.Msg{Kind: wire.KFlushDone, Seq: m.Seq, A: m.A}
	if d.copyset&(1<<uint(flusher)) == 0 || len(m.Data) > 0 {
		// The flusher's copy cannot be trusted as the new owner copy:
		// either a concurrent flush of the same page invalidated it after
		// it snapshotted its modifications (EI false sharing, it dropped
		// out of the copyset), or the flusher itself reported the copy
		// invalid (a co-located goroutine's fetch joined the copyset but
		// its install was abandoned). Ship the current owner's data as a
		// base; the flusher re-applies its own diff on top and every
		// committed word survives.
		base, err := e.ownerData(d, pg)
		if err != nil {
			n.noteErr(fmt.Sprintf("flush %d base fetch", pg), err)
			return
		}
		done.Data = base
	}

	// Fan the invalidations (EI) or updates (EU) out as one grouped
	// burst: all requests staged before a single flush, all cachers
	// acknowledging concurrently — the directory lock is held across
	// the whole exchange either way, so the transaction's position in
	// each cacher's stream is unchanged.
	others := d.copyset &^ (1 << uint(flusher))
	var targetBuf [4]mem.ProcID // in the frame, like flushPages' burst
	var reqBuf [4]outMsg
	targets, reqs := targetBuf[:0], reqBuf[:0]
	for q := 0; others != 0; q++ {
		bit := uint64(1) << uint(q)
		if others&bit == 0 {
			continue
		}
		others &^= bit
		kind := wire.KInval
		var diffs []wire.DiffRec
		if e.update {
			kind = wire.KUpdate
			diffs = m.Diffs
		}
		targets = append(targets, mem.ProcID(q))
		reqs = append(reqs, outMsg{dst: mem.ProcID(q), m: wire.Msg{
			Kind: kind, Seq: n.nextSeq(), A: m.A, Diffs: diffs,
		}})
	}
	var acks []*wire.Msg
	if len(reqs) > 0 {
		var err error
		acks, err = n.rpcAll(reqs, nil)
		if err != nil {
			n.noteErr(fmt.Sprintf("flush fan-out for page %d", pg), err)
			return
		}
		if !e.update {
			for _, q := range targets {
				d.copyset &^= 1 << uint(q)
			}
		}
	}
	if d.owner != flusher {
		d.owner = flusher
		n.stats.ownershipMoves.Add(1)
	}
	d.copyset |= 1 << uint(flusher)
	n.noteErr(fmt.Sprintf("flush done to %d", flusher), n.send(flusher, done))
	releaseAll(acks)
}

// serveFetch answers the home's request for this owner's committed page
// contents. Runs inline on the page's shard worker (it never blocks).
func (e *eagerEngine) serveFetch(m *wire.Msg, src mem.ProcID) {
	n := e.n
	pg := mem.PageID(m.A)
	if !n.validPage(pg) {
		n.noteErr("owner fetch", fmt.Errorf("fetch of invalid page %d", pg))
		return
	}
	pmu := n.pageLock(pg)
	pmu.Lock()
	var data []byte
	switch {
	case e.pages[pg] == nil && n.homeOf(pg) == n.id:
		// We are the page's initial owner and nobody ever wrote it: the
		// committed state is the zero page.
		data = n.sys.zeroPage
	case e.pages[pg] == nil:
		// The home thinks we own a page we never held — its directory and
		// our state disagree, which only a misbehaving (or hostile) peer
		// can cause. Drop the fetch; the record surfaces via Close.
		pmu.Unlock()
		n.noteErr("owner fetch", fmt.Errorf("fetch of page %d this node never held", pg))
		return
	default:
		data = e.committedLocked(pg)
	}
	pmu.Unlock()
	n.stage(src, &wire.Msg{Kind: wire.KFetchResp, Seq: m.Seq, A: m.A, Data: data})
}

// applyInval invalidates this node's copy (EI). If a critical section
// has buffered modifications to the page, the twin stays, and with it
// this node's duty to flush those words at its own release: shipping them
// to the new owner on the ack instead (Munin's false-sharing write-back)
// does not order them before the lock hand-off — they would travel through
// the flusher's still-open transaction while the section's release,
// finding no twin, sent nothing, waited for nothing, and passed the lock
// to an acquirer that could still read the word from a copy the
// transaction had not yet invalidated or reconciled — a lost update. The
// release-time flush (needBase: the copy is invalid) runs as its own
// directory transaction, behind the one that invalidated us, so every
// copy is current or gone before the lock moves.
func (e *eagerEngine) applyInval(m *wire.Msg, src mem.ProcID) {
	n := e.n
	pg := mem.PageID(m.A)
	if !n.validPage(pg) {
		n.noteErr("invalidate", fmt.Errorf("invalidation of invalid page %d", pg))
		return
	}
	pmu := n.pageLock(pg)
	pmu.Lock()
	if pc := e.pages[pg]; pc != nil {
		pc.valid = false
	}
	pmu.Unlock()
	n.stats.invalsReceived.Add(1)
	n.stage(src, &wire.Msg{Kind: wire.KInvalAck, Seq: m.Seq, A: m.A})
}

// applyUpdate applies a releaser's diff to this node's copy (EU). The
// diff also lands on the twin, if one exists, so a concurrent critical
// section's own eventual diff carries only its own modifications.
func (e *eagerEngine) applyUpdate(m *wire.Msg, src mem.ProcID) {
	n := e.n
	pg := mem.PageID(m.A)
	if !n.validPage(pg) {
		n.noteErr("update", fmt.Errorf("update of invalid page %d", pg))
		return
	}
	pmu := n.pageLock(pg)
	pmu.Lock()
	pc := e.pages[pg]
	if pc == nil || !pc.valid {
		// Unreachable with shard-ordered installs (an EU copy in the
		// copyset is always installed before the home can send it an
		// update); tolerated defensively — the ack still flows.
	} else {
		for _, rec := range m.Diffs {
			// The diffs came off the wire: one that does not fit the page
			// is the sender's corruption, not our invariant — record it,
			// stop applying this update, and still ack so the releaser's
			// transaction completes.
			if err := rec.Diff.Apply(pc.data); err != nil {
				n.noteErr("update", fmt.Errorf("diff for page %d does not apply: %w", pg, err))
				break
			}
			if pc.twin != nil {
				// Land the diff on the twin too, so a concurrent critical
				// section's own eventual diff carries only its own
				// modifications (the update's words must not re-register
				// as ours).
				patched := append([]byte(nil), pc.twin.Data()...)
				if err := rec.Diff.Apply(patched); err != nil {
					n.noteErr("update", fmt.Errorf("diff for page %d twin does not apply: %w", pg, err))
					break
				}
				pc.twin.Release()
				pc.twin = page.NewTwin(patched)
			}
			n.stats.updatesReceived.Add(1)
		}
	}
	pmu.Unlock()
	n.stage(src, &wire.Msg{Kind: wire.KUpdateAck, Seq: m.Seq, A: m.A})
}

// applyFlushDone installs the home's reconciliation at the flusher: an
// optional fresh base (when a concurrent flush had invalidated this
// node's copy) and this node's own flushed diff on top.
//
// With multiple application goroutines another critical section may
// already have a fresh twin for the page when the reconciliation lands.
// Its uncommitted writes live only in pc.data, so they are lifted off
// as a diff first, the reconciliation builds the new committed state,
// and the uncommitted writes are reinstated on top with the twin
// rebased beneath them — otherwise a base copy would erase them.
// Returns false (recording the cause) for a reconciliation that matches
// no in-flight flush — a remote peer's stray or forged KFlushDone — so
// the caller fails rather than wakes any waiter on that seq.
func (e *eagerEngine) applyFlushDone(m *wire.Msg) bool {
	n := e.n
	e.flightMu.Lock()
	fs, ok := e.inflight[m.Seq]
	if !ok {
		e.flightMu.Unlock()
		n.noteErr("flush reconcile", fmt.Errorf("flush done for unknown seq %d", m.Seq))
		return false
	}
	delete(e.inflight, m.Seq)
	e.flightMu.Unlock()
	if m.Data != nil && len(m.Data) != n.sys.layout.PageSize() {
		n.noteErr("flush reconcile",
			fmt.Errorf("base for page %d is %d bytes, want a whole page", fs.pg, len(m.Data)))
		return false
	}

	pmu := n.pageLock(fs.pg)
	pmu.Lock()
	defer pmu.Unlock()
	pc := e.pages[fs.pg]

	fail := func(what string, err error) {
		panic(fmt.Sprintf("dsm: node %d: %s page %d: %v", n.id, what, fs.pg, err))
	}
	var uncommitted *page.Diff
	committed := pc.data
	if pc.twin != nil {
		// A concurrent critical section started after our flush snapshot:
		// its writes sit in pc.data, its twin holds the committed state
		// they started from (which already includes our flushed writes).
		du, err := page.MakeDiff(pc.twin, pc.data)
		if err != nil {
			fail("lifting uncommitted writes off", err)
		}
		n.stats.diffsCreated.Add(1)
		uncommitted = du
		committed = append([]byte(nil), pc.twin.Data()...)
	}
	if m.Data != nil {
		copy(committed, m.Data)
	}
	// Reassert the flushed diff unconditionally, not just over a fresh
	// base: our flush transaction is the latest directory event for
	// these words, but the local copy may have been replaced while the
	// flush was in flight — a co-located goroutine, invalidated by an
	// unrelated flush of the same page, can refetch and install
	// directory-older owner data that predates our (EI: never shipped)
	// modifications. Everything processed before this KFlushDone is
	// directory-ordered before our transaction, so putting our words
	// back is always correct — and without it they would be silently
	// lost.
	if err := fs.diff.Apply(committed); err != nil {
		fail("reapplying flushed diff to", err)
	}
	if pc.twin != nil {
		copy(pc.data, committed)
		if uncommitted != nil {
			if err := uncommitted.Apply(pc.data); err != nil {
				fail("reinstating uncommitted writes on", err)
			}
			uncommitted.Release()
		}
		pc.twin.Release()
		pc.twin = page.NewTwin(committed)
	}
	pc.valid = true
	return true
}
