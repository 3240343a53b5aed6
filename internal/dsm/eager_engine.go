package dsm

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/mem"
	"repro/internal/page"
	"repro/internal/vc"
	"repro/internal/wire"
)

// eagerEngine implements eager release consistency in the style of
// Munin's write-shared protocol (paper §3): a processor buffers its
// modifications as twins until a release or barrier, then pushes them to
// every other cacher of each dirty page — invalidations (EI) or diffs
// (EU) — and blocks until all are acknowledged. Each page's home keeps
// its directory entry (directory.go): the owner, which is the last
// flusher, and the copyset. An access miss ships the whole page from the
// owner through the home.
//
// Concurrency: page copies and twins are per-page state under the node's
// striped lock table, and the write set has its own leaf mutex. One flush
// is in flight per node (flushMu): a flush point holds it across drain,
// burst and acknowledgment, so a release never returns while a write made
// on its node before it is still propagating — another local goroutine's
// write is in this drain or in the flush that held the mutex before — and
// two flushes of one page reach its home in write order (EU cachers apply
// them in arrival order).
type eagerEngine struct {
	n      *Node
	update bool // EU: push diffs; EI: push invalidations
	dir    *directory

	// pages[i] is guarded by n.pageLock(i); its twin is present while a
	// critical section since the last flush wrote the page.
	pages []*pageCopy

	// ws is the write set of the critical sections since the last flush
	// point; each flush drains it.
	ws *writeSet

	// flushMu is held by the one flush in flight. Releases queued on it
	// group-commit: the next holder drains every page dirtied meanwhile.
	// cand, the pages it drained, and pends, its burst, are its scratch.
	flushMu sync.Mutex
	cand    []mem.PageID
	pends   []pend
	// flightMu guards inflight, the payloads of the flush in flight by
	// request Seq, for the handler-side reconciliation (applyFlushDone).
	flightMu sync.Mutex
	inflight map[uint64]flushState
}

// baseWanted is a KFlushReq's Data when the flusher's copy is invalid:
// any non-empty section asks the home for a reconciliation base.
var baseWanted = []byte{1}

type flushState struct {
	pg   mem.PageID
	diff *page.Diff
}

// pend is one page of a flush burst: its in-flight state, its request, and
// under EU the request's one diff record, which the request points to.
type pend struct {
	fs  flushState
	req wire.Msg
	rec [1]wire.DiffRec
}

func newEagerEngine(n *Node, update bool) *eagerEngine {
	e := &eagerEngine{
		n:        n,
		update:   update,
		pages:    make([]*pageCopy, n.sys.layout.NumPages()),
		ws:       newWriteSet(),
		inflight: make(map[uint64]flushState),
	}
	e.dir = newDirectory(n, e)
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
	var start time.Time
	if n.missHist != nil {
		start = time.Now()
	}

	// The response is intercepted in handle: by the time rpc returns,
	// the shard worker has installed the granted page — the one it names.
	resp, err := n.rpc(n.homeOf(pg), &wire.Msg{
		Kind: wire.KPageReq, Seq: n.nextSeq(), A: int32(pg), B: int32(n.id),
	})
	if err == nil && mem.PageID(resp.A) != pg {
		bad := fmt.Errorf("grant for page %d answers the miss of page %d", resp.A, pg)
		n.noteErr("page install", bad)
		err = fmt.Errorf("dsm: node %d: page install: %w", n.id, bad)
	}
	resp.Release()
	if err == nil && n.missHist != nil {
		n.observeMiss(start, 1)
	}
	return err
}

// installPage applies a granted page at the requester, on the page's
// shard worker, so the install happens in directory order: every
// invalidation or update the home sent before this ship has already
// been applied, and any sent after will be. The fetched data lands as the
// committed contents: a concurrent local critical section mid-flight on
// the stale copy keeps its uncommitted writes on top (pageCopy.land).
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
		pc = &pageCopy{}
		e.pages[pg] = pc
	}
	if err := pc.land(n, m.Data, nil); err != nil {
		panic(fmt.Sprintf("dsm: node %d: installing page %d: %v", n.id, pg, err))
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
	e.pages[pg].write(e.n, e.ws, pg, off, src)
	pmu.Unlock()
	return nil
}

// --- flush: the release/barrier-time propagation of §3 ---

// flush commits this node's buffered modifications and pushes them
// through each dirty page's home to every other cacher, blocking until
// the home has invalidated (EI) or updated (EU) them all. flushMu is
// held throughout, so a flush that finds the write set drained by the one
// before it still returns only once that one has been acknowledged.
// Called from an application goroutine without locks.
func (e *eagerEngine) flush() error {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	e.cand = e.ws.drain(e.cand)
	e.ws.check(e.n, func(pg mem.PageID) bool { return e.pages[pg] != nil && e.pages[pg].twinned() })
	if err := e.flushPages(e.cand); err != nil {
		return err // a burst abandoned mid-way left twins behind: they stay claimed
	}
	e.ws.settle(e.cand)
	return nil
}

// flushPages diffs and pushes every candidate page through its home as
// ONE grouped burst: all KFlushReqs are staged before a single outbox
// flush, so a release that dirtied several pages with a common home sends
// them in one batch frame, and every home's directory transaction runs
// concurrently instead of one blocking round trip per page.
func (e *eagerEngine) flushPages(cand []mem.PageID) error {
	n := e.n
	// The burst's requests and acknowledgements live in the frame, a fifth
	// page spilling; its pages, which the requests point into, in the
	// flush's scratch.
	var (
		reqBuf  [4]outMsg
		doneBuf [4]*wire.Msg
	)
	pends, reqs := e.pends[:0], reqBuf[:0]
	defer func() { e.pends = pends[:0] }()
	for _, pg := range cand {
		// If our copy is invalid at flush time (a critical section may keep
		// writing through an invalidation), the reconciliation must carry
		// a base: becoming owner with stale data would silently revert
		// other processors' committed words. Shard-ordered installs keep
		// the home's copyset equal to what we actually hold, so the home's
		// own check covers this too — the explicit flag (a non-empty Data
		// section on KFlushReq) is defense in depth at one byte of cost.
		pmu := n.pageLock(pg)
		pmu.Lock()
		pc := e.pages[pg]
		if pc == nil || !pc.twinned() {
			pmu.Unlock()
			continue
		}
		needBase := !pc.valid
		twin := pc.take()
		d, err := page.MakeDiff(twin, pc.data)
		n.releaseTwin(twin)
		pmu.Unlock()
		if err != nil {
			return err
		}
		n.stats.diffsCreated.Add(1)
		if d.Empty() {
			continue
		}
		req := wire.Msg{Kind: wire.KFlushReq, Seq: n.nextSeq(), A: int32(pg), B: int32(n.id)}
		if needBase {
			req.Data = baseWanted
		}
		pends = append(pends, pend{fs: flushState{pg: pg, diff: d}, req: req, rec: [1]wire.DiffRec{{Page: pg, Diff: d}}})
	}
	if len(pends) == 0 {
		return nil
	}

	// Stage the whole burst, flush once, await every reconciliation.
	// The shard workers apply each KFlushDone payload (base data) before
	// delivering it here; by the time rpcAll returns, this node's copies
	// are the pages' authoritative state.
	e.flightMu.Lock()
	for i := range pends {
		p := &pends[i]
		if e.update {
			p.req.Diffs = p.rec[:]
		}
		e.inflight[p.req.Seq] = p.fs
		reqs = append(reqs, outMsg{dst: n.homeOf(p.fs.pg), m: p.req})
	}
	e.flightMu.Unlock()
	dones, err := n.rpcAll(reqs, doneBuf[:0])
	releaseAll(dones) // applyFlushDone consumed them on the shard worker
	if err != nil {
		// Unacknowledged flushes will never reconcile; drop their
		// in-flight entries (acknowledged ones were already consumed by
		// applyFlushDone, for which delete is a no-op). The diffs stay
		// with the collector: a late KFlushDone may read one.
		e.flightMu.Lock()
		for _, p := range pends {
			delete(e.inflight, p.req.Seq)
		}
		e.flightMu.Unlock()
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
	if pc := e.pages[pg]; pc != nil {
		pc.drop(e.n)
	}
	e.pages[pg] = nil
	pmu.Unlock()
	e.ws.drop(pg)
}

func (e *eagerEngine) adoptPage(pg mem.PageID, data []byte) {
	e.dir.reset(pg, data != nil)
	if data == nil {
		// Non-home: fault through the home's directory on first use.
		return
	}
	pmu := e.n.pageLock(pg)
	pmu.Lock()
	e.pages[pg] = &pageCopy{data: append([]byte(nil), data...), valid: true}
	pmu.Unlock()
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
	case wire.KFlushReq:
		m.Retain() // the transaction outlives this handler
		go e.dir.serveOwnership(m, "flush request", wire.KFlushDone, e.update)
	case wire.KUpdate:
		e.applyUpdate(m, src)
	case wire.KPageResp:
		// Intercepted response: install the granted page on the page's
		// shard worker, in directory order, then wake the faulting
		// application goroutine.
		e.n.answerWaiter(m, e.installPage(m))
	case wire.KFlushDone:
		// Intercepted response: apply the home's reconciliation on the
		// page's shard worker so it is in place before any later
		// directory message for the page arrives, then wake the
		// application goroutine whose flush it answers.
		e.n.answerWaiter(m, e.applyFlushDone(m))
	default:
		return e.dir.handle(m, src)
	}
	return true
}

// committedLocked returns a view of this node's committed contents of pg,
// without the writes of a critical section still in flight.
func (e *eagerEngine) committedLocked(pg mem.PageID) ([]byte, bool) {
	if pc := e.pages[pg]; pc != nil {
		return pc.committed(), true
	}
	return nil, false
}

// invalidateLocked invalidates this node's copy (EI). If a critical
// section has buffered modifications to the page, the twin stays, and
// with it this node's duty to flush those words at its own release:
// shipping them to the new owner on the ack instead (Munin's
// false-sharing write-back) does not order them before the lock hand-off
// — they would travel through the flusher's still-open transaction while
// the section's release, finding no twin, sent nothing, waited for
// nothing, and passed the lock to an acquirer that could still read the
// word from a copy the transaction had not yet invalidated or reconciled
// — a lost update. The release-time flush (needBase: the copy is invalid)
// runs as its own directory transaction, behind the one that invalidated
// us, so every copy is current or gone before the lock moves.
func (e *eagerEngine) invalidateLocked(pg mem.PageID) {
	if pc := e.pages[pg]; pc != nil {
		pc.valid = false
	}
}

// applyUpdate lands a releaser's diffs on this node's committed contents
// (EU), so a concurrent critical section's own eventual diff carries only
// its own modifications: the update's words must not re-register as ours.
func (e *eagerEngine) applyUpdate(m *wire.Msg, src mem.ProcID) {
	n := e.n
	pg := mem.PageID(m.A)
	if !n.validPage(pg) {
		n.noteErr("update", fmt.Errorf("update of invalid page %d", pg))
		return
	}
	pmu := n.pageLock(pg)
	pmu.Lock()
	// A missing or invalid copy is unreachable with shard-ordered installs
	// (an EU copy in the copyset is installed before the home can update
	// it); tolerated defensively. A diff that does not fit the page is the
	// sender's corruption, recorded. Either way the ack still flows, so the
	// releaser's transaction completes.
	if pc := e.pages[pg]; pc != nil && pc.valid {
		if err := pc.land(n, nil, func(committed []byte) error {
			for _, rec := range m.Diffs {
				if err := rec.Diff.Apply(committed); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			n.noteErr("update", fmt.Errorf("diff for page %d does not apply: %w", pg, err))
		} else {
			n.stats.updatesReceived.Add(int64(len(m.Diffs)))
		}
	}
	pmu.Unlock()
	n.stage(src, &wire.Msg{Kind: wire.KUpdateAck, Seq: m.Seq, A: m.A})
}

// applyFlushDone installs the home's reconciliation at the flusher: an
// optional fresh base (when a concurrent flush had invalidated this
// node's copy) and this node's own flushed diff on top. Both land on the
// committed contents: another critical section that already has a fresh
// twin for the page keeps its uncommitted writes on top, where a base
// copied over the data would erase them. Returns false (recording the
// cause) for a reconciliation that matches no in-flight flush — a remote
// peer's stray or forged KFlushDone — so the caller fails rather than
// wakes any waiter on that seq.
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
	if err := pc.land(n, m.Data, fs.diff.Apply); err != nil {
		panic(fmt.Sprintf("dsm: node %d: reapplying flushed diff to page %d: %v", n.id, fs.pg, err))
	}
	pc.valid = true
	return true
}
