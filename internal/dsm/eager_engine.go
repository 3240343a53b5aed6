package dsm

import (
	"fmt"
	"math/bits"
	"slices"
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
// its directory entry (directory.go).
//
// EI runs a directory transaction per dirty page: the flush goes to the
// home, which invalidates the other copies and makes the flusher the
// owner; a miss ships the page from the owner through the home. EU merges
// a flush per destination, as Munin merges "all writes going to the same
// destination": every node it must reach — each dirty page's home, and
// the copies its hint names — gets one update carrying a diff for each of
// its pages and returns one acknowledgement. The home owns its pages: it
// lands each diff on its own copy, which its ships are served from,
// forwards the diff to the copies the writer's hint missed, and names
// them in its acknowledgement. A diff that reaches a copy before the
// copy's ship waits for the ship (parked).
//
// Concurrency: page copies, twins and the EU copy state are per-page state
// under the node's striped lock table, and the write set has its own leaf
// mutex. One flush is in flight per node (flushMu): a flush point holds it
// across drain, burst and acknowledgment, so a release never returns while
// a write made on its node before it is still propagating — another local
// goroutine's write is in this drain or in the flush that held the mutex
// before — and two flushes of one page reach every copy in write order.
type eagerEngine struct {
	n      *Node
	update bool // EU: push diffs; EI: push invalidations
	dir    *directory

	// pages[i] is guarded by n.pageLock(i); its twin is present while a
	// critical section since the last flush wrote the page.
	pages []*pageCopy

	// EU copy state, each entry under its page's stripe. hints[pg] is the
	// copies of pg this node knows of — the first ones to join pg's
	// copyset at its home, this node among them — learned from the home's
	// ship and acknowledgements; a flush sends them its diff directly.
	// fetching[pg] is set while a miss of pg awaits the ship, and
	// parked[pg] holds the diffs that reached the page meanwhile, in
	// arrival order, for the install to apply.
	hints    []uint64
	fetching []bool
	parked   [][]*page.Diff

	// ws is the write set of the critical sections since the last flush
	// point; each flush drains it.
	ws *writeSet

	// flushMu is held by the one flush in flight. Releases queued on it
	// group-commit: the next holder drains every page dirtied meanwhile.
	// cand, the pages it drained, pends, an EI burst, and out and made, an
	// EU burst's records by destination and its diffs, are its scratch.
	flushMu sync.Mutex
	cand    []mem.PageID
	pends   []pend
	out     [][]wire.DiffRec
	made    []*page.Diff
	// flightMu guards inflight, the payloads of the EI flush in flight by
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

// pend is one page of an EI flush burst: its in-flight state and its
// request.
type pend struct {
	fs  flushState
	req wire.Msg
}

func newEagerEngine(n *Node, update bool) *eagerEngine {
	numPages := n.sys.layout.NumPages()
	e := &eagerEngine{
		n:        n,
		update:   update,
		pages:    make([]*pageCopy, numPages),
		ws:       newWriteSet(),
		inflight: make(map[uint64]flushState),
	}
	if update {
		e.hints, e.fetching, e.parked = make([]uint64, numPages), make([]bool, numPages), make([][]*page.Diff, numPages)
		e.out = make([][]wire.DiffRec, n.sys.cfg.Procs)
	}
	e.dir = newDirectory(n, e, update)
	return e
}

func (e *eagerEngine) clock() vc.VC { return vc.New(e.n.sys.cfg.Procs) }

// --- accesses ---

// ensureValid obtains a copy of pg, fetching it from the owner through
// the home's directory on a miss. Under EI all misses go through the
// message path, including the home's own (loopback is free), so the
// directory transaction order is the single source of truth; under EU the
// home owns the page, and its first access makes its copy, the zero page.
// Miss service serializes per page under the miss lock, and the granted
// page is installed by the page's shard worker as the response arrives —
// in directory order, never abandoned — so the home's copyset always
// matches what this node actually holds. An invalidation that lands
// directly behind the install leaves the copy invalid again; that is the
// same staleness window an eagerly-consistent access always had between
// validation and use, and the flush path reports it (see flushPages'
// needBase).
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
	if e.update && n.homeOf(pg) == n.id {
		e.ownLocked(pg)
		pmu.Unlock()
		return nil
	}
	n.stats.accessMisses.Add(1)
	if pc == nil {
		n.stats.coldMisses.Add(1)
	}
	if e.update {
		e.fetching[pg] = true
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

// ownLocked returns the EU home's own copy of pg, made on first use: a
// page nobody has written is the zero page.
func (e *eagerEngine) ownLocked(pg mem.PageID) *pageCopy {
	pc := e.pages[pg]
	if pc == nil {
		pc = &pageCopy{data: make([]byte, e.n.sys.layout.PageSize()), valid: true}
		e.pages[pg] = pc
	}
	return pc
}

// installPage applies a granted page at the requester, on the page's
// shard worker. Under EI that is directory order: every invalidation the
// home sent before this ship has already been applied, and any sent after
// will be. Under EU the diffs that overtook the ship land on it in arrival
// order: the ship holds none of them (directory.absorb). The fetched data
// lands as the committed contents: a concurrent local critical section
// mid-flight on the stale copy keeps its uncommitted writes on top
// (pageCopy.land).
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
	if e.update {
		for _, d := range e.parked[pg] {
			if err := e.landLocked(pc, d); err != nil {
				n.noteErr("update", fmt.Errorf("parked diff for page %d does not apply: %w", pg, err))
			}
			d.Release()
		}
		e.parked[pg], e.fetching[pg] = nil, false
	}
	return true
}

// learn adds the copies an EU home's message m names in its Wants — a
// ship's copyset, or those an acknowledgement's update missed — to the
// hints of their pages, recording any want that names no page home homes
// or no node.
func (e *eagerEngine) learn(m *wire.Msg, home mem.ProcID) {
	n := e.n
	for _, w := range m.Wants {
		if !n.validPage(w.Page) || n.homeOf(w.Page) != home || w.Proc < 0 || int(w.Proc) >= n.sys.cfg.Procs {
			n.noteErr("copyset", fmt.Errorf("%v from %d names node %d a copy of page %d", m.Kind, home, w.Proc, w.Page))
			continue
		}
		pmu := n.pageLock(w.Page)
		pmu.Lock()
		e.hints[w.Page] |= 1 << uint(w.Proc)
		pmu.Unlock()
	}
}

// landLocked applies diff d to this node's copy pc, under its stripe.
func (e *eagerEngine) landLocked(pc *pageCopy, d *page.Diff) error {
	if err := pc.land(e.n, nil, d.Apply); err != nil {
		return err
	}
	e.n.stats.updatesReceived.Add(1)
	return nil
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

// flush commits this node's buffered modifications and pushes them to
// every other cacher, blocking until each is invalidated (EI) or updated
// (EU). flushMu is held throughout, so a flush that finds the write set
// drained by the one before it still returns only once that one has been
// acknowledged. Called from an application goroutine without locks.
func (e *eagerEngine) flush() error {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	e.cand = e.ws.drain(e.cand)
	e.ws.check(e.n, func(pg mem.PageID) bool { return e.pages[pg] != nil && e.pages[pg].twinned() })
	push := e.flushPages
	if e.update {
		push = e.pushUpdates
	}
	if err := push(e.cand); err != nil {
		return err // a burst abandoned mid-way left twins behind: they stay claimed
	}
	e.ws.settle(e.cand)
	return nil
}

// commit ends the uncommitted writes to pg at a flush point and returns
// their diff — nil when the page has none or they changed nothing — and,
// read with it, whether the copy was invalid and the page's hint (EU).
func (e *eagerEngine) commit(pg mem.PageID) (d *page.Diff, invalid bool, hint uint64, err error) {
	n := e.n
	pmu := n.pageLock(pg)
	pmu.Lock()
	pc := e.pages[pg]
	if pc == nil || !pc.twinned() {
		pmu.Unlock()
		return nil, false, 0, nil
	}
	invalid = !pc.valid
	if e.update {
		hint = e.hints[pg]
	}
	twin := pc.take()
	d, err = page.MakeDiff(twin, pc.data)
	n.releaseTwin(twin)
	pmu.Unlock()
	if err != nil {
		return nil, false, 0, err
	}
	n.stats.diffsCreated.Add(1)
	if d.Empty() {
		return nil, false, 0, nil
	}
	return d, invalid, hint, nil
}

// flushPages pushes every candidate page through its home (EI) as ONE
// grouped burst: all KFlushReqs are staged before a single outbox flush,
// so a release that dirtied several pages with a common home sends them in
// one batch frame, and every home's directory transaction runs
// concurrently instead of one blocking round trip per page.
func (e *eagerEngine) flushPages(cand []mem.PageID) error {
	n := e.n
	// The burst's requests and acknowledgements live in the frame, a fifth
	// page spilling; its pages in the flush's scratch.
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
		d, needBase, _, err := e.commit(pg)
		if err != nil {
			return err
		}
		if d == nil {
			continue
		}
		req := wire.Msg{Kind: wire.KFlushReq, Seq: n.nextSeq(), A: int32(pg), B: int32(n.id)}
		if needBase {
			req.Data = baseWanted
		}
		pends = append(pends, pend{fs: flushState{pg: pg, diff: d}, req: req})
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

// pushUpdates diffs every candidate page and sends each node it must reach
// ONE update (EU) carrying a record for every page it should see: a page's
// home, always, and every other copy its hint names. A record bound for
// the home carries in Index the number of copies the hint names, so the
// home forwards the diff to those that joined since and names them in its
// acknowledgement, which the next flush reaches directly. The burst is
// staged before a single flush and every acknowledgement awaited together.
func (e *eagerEngine) pushUpdates(cand []mem.PageID) error {
	n := e.n
	made := e.made[:0]
	defer func() {
		for j := range e.out {
			clear(e.out[j])
			e.out[j] = e.out[j][:0]
		}
		for _, d := range made {
			d.Release() // staging encoded every update that carries it
		}
		clear(made)
		e.made = made[:0]
	}()
	for _, pg := range cand {
		d, _, hint, err := e.commit(pg)
		if err != nil {
			return err
		}
		if d == nil {
			continue
		}
		made = append(made, d)
		home, known := n.homeOf(pg), int32(bits.OnesCount64(hint))
		if home == n.id {
			hint = e.dir.members(pg) // read after the diff: a later ship holds it
		}
		for rest := (hint | 1<<uint(home)) &^ (1 << uint(n.id)); rest != 0; rest &= rest - 1 {
			j := mem.ProcID(bits.TrailingZeros64(rest))
			rec := wire.DiffRec{Page: pg, Proc: n.id, Diff: d}
			if j == home {
				rec.Index = known
			}
			e.out[j] = append(e.out[j], rec)
		}
	}
	// One update and one acknowledgement per destination live in the frame,
	// a fifth destination spilling.
	var (
		reqBuf [4]outMsg
		ackBuf [4]*wire.Msg
	)
	reqs := e.updates(reqBuf[:0], e.out)
	acks, err := n.rpcAll(reqs, ackBuf[:0])
	if err != nil {
		return err
	}
	for i, ack := range acks {
		e.learn(ack, reqs[i].dst)
		ack.Release()
	}
	n.stats.flushedPages.Add(int64(len(made)))
	return nil
}

// updates appends to reqs one update to each node out has records for.
func (e *eagerEngine) updates(reqs []outMsg, out [][]wire.DiffRec) []outMsg {
	for j, recs := range out {
		if len(recs) > 0 {
			reqs = append(reqs, outMsg{dst: mem.ProcID(j), m: wire.Msg{Kind: wire.KUpdate, Seq: e.n.nextSeq(), Diffs: recs}})
		}
	}
	return reqs
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
// copy cannot strand a peer. The only time an EU copy leaves its copyset,
// it takes the page's hint along: the new home's copyset starts empty.
func (e *eagerEngine) dropPage(pg mem.PageID) {
	pmu := e.n.pageLock(pg)
	pmu.Lock()
	if pc := e.pages[pg]; pc != nil {
		pc.drop(e.n)
	}
	e.pages[pg] = nil
	if e.update {
		e.hints[pg], e.fetching[pg] = 0, false
	}
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
	switch {
	case m.Kind == wire.KPageResp:
		// Intercepted response: install the granted page on the page's
		// shard worker, then wake the faulting application goroutine.
		ok := e.installPage(m)
		if ok && e.update {
			e.learn(m, src)
		}
		e.n.answerWaiter(m, ok)
	case e.update && m.Kind == wire.KUpdate:
		e.applyUpdate(m, src)
	case !e.update && m.Kind == wire.KFlushReq:
		m.Retain() // the transaction outlives this handler
		go e.dir.serveOwnership(m, "flush request", wire.KFlushDone)
	case !e.update && m.Kind == wire.KFlushDone:
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

// applyUpdate lands a writer's merged update (EU) record by record and
// acknowledges it once. A record of a page this node homes lands on the
// home's copy, and the copies the writer's hint missed are sent it before
// the acknowledgement, which names them; that is the only case that waits,
// on a goroutine of its own. Any other record lands on this node's copy,
// or waits in parked for the ship of a page whose miss is in flight: a
// writer that knows this node as a copy may reach it before its ship
// does. Diffs land on the committed contents, so a concurrent critical
// section's own eventual diff carries only its own modifications.
func (e *eagerEngine) applyUpdate(m *wire.Msg, src mem.ProcID) {
	n := e.n
	var (
		missedBuf [8]wire.Want
		missed    = missedBuf[:0]
		fwd       [][]wire.DiffRec // by destination, made by the first forward
	)
	for _, rec := range m.Diffs {
		pg := rec.Page
		switch {
		case !n.validPage(pg):
			n.noteErr("update", fmt.Errorf("update of invalid page %d from %d", pg, src))
		case n.homeOf(pg) == n.id:
			later, err := e.dir.absorb(pg, rec.Index, func() error {
				pmu := n.pageLock(pg)
				pmu.Lock()
				defer pmu.Unlock()
				return e.landLocked(e.ownLocked(pg), rec.Diff)
			})
			if err != nil {
				n.noteErr("update", fmt.Errorf("update of page %d from %d: %w", pg, src, err))
				continue
			}
			for _, j := range later {
				missed = append(missed, wire.Want{Page: pg, Proc: j})
				if j == src {
					continue
				}
				if fwd == nil {
					fwd = make([][]wire.DiffRec, n.sys.cfg.Procs)
				}
				fwd[j] = append(fwd[j], wire.DiffRec{Page: pg, Proc: rec.Proc, Diff: rec.Diff})
			}
		default:
			e.landCopy(pg, rec.Diff, src)
		}
	}
	if fwd == nil {
		n.stage(src, &wire.Msg{Kind: wire.KUpdateAck, Seq: m.Seq, Wants: missed})
		return
	}
	m.Retain() // the forwards borrow its diffs
	go e.forward(m, src, fwd, slices.Clone(missed))
}

// landCopy lands diff d of pg from src on this node's copy of a page it
// does not home, or parks a clone of it while the page's ship is in
// flight. An update of a page this node neither holds nor fetches is the
// sender's error, recorded; the acknowledgement still flows.
func (e *eagerEngine) landCopy(pg mem.PageID, d *page.Diff, src mem.ProcID) {
	n := e.n
	pmu := n.pageLock(pg)
	pmu.Lock()
	defer pmu.Unlock()
	switch pc := e.pages[pg]; {
	case pc != nil && pc.valid:
		if err := e.landLocked(pc, d); err != nil {
			n.noteErr("update", fmt.Errorf("diff for page %d from %d does not apply: %w", pg, src, err))
		}
	case e.fetching[pg]:
		e.parked[pg] = append(e.parked[pg], d.Clone())
	default:
		n.noteErr("update", fmt.Errorf("update of page %d from %d, which this node neither holds nor fetches", pg, src))
	}
}

// forward sends the copies that update m's writer src missed what they
// missed, one merged update to each (fwd, by destination), and once all
// are acknowledged acknowledges m, naming them (missed).
func (e *eagerEngine) forward(m *wire.Msg, src mem.ProcID, fwd [][]wire.DiffRec, missed []wire.Want) {
	defer m.Release()
	n := e.n
	acks, err := n.rpcAll(e.updates(nil, fwd), nil)
	releaseAll(acks)
	if err != nil {
		n.noteErr("update forward", err) // unacknowledged: the writer's flush fails
		return
	}
	if err := n.send(src, &wire.Msg{Kind: wire.KUpdateAck, Seq: m.Seq, Wants: missed}); err != nil {
		n.noteErr(fmt.Sprintf("update ack to %d", src), err)
	}
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
