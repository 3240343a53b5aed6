package dsm

import (
	"fmt"
	"math/bits"
	"slices"
	"time"

	"repro/internal/mem"
	"repro/internal/page"
	"repro/internal/wire"
)

// eagerEngine implements eager release consistency in the style of
// Munin's write-shared protocol (paper §3): a processor buffers its
// modifications as twins until a release or barrier, then pushes them to
// every other cacher of each dirty page — invalidations (EI) or diffs
// (EU) — and blocks until all are acknowledged.
//
// Each page's home keeps its directory entry (directory.go) and owns the
// page: every miss is shipped from its copy, and every diff lands there.
// A flush merges its traffic per destination, as Munin merges "all writes
// going to the same destination": one update per node, a diff for each of
// its pages, one acknowledgement back. Under EI the nodes are the dirty
// pages' homes, which invalidate every other copy before they
// acknowledge; under EU also the copies the writer's hint names, and a
// home forwards the diff to those the hint missed.
//
// Concurrency: page copies, twins and the per-page copy state are under
// the node's striped lock table; the write set is the application
// goroutine's alone. Misses and flushes are that goroutine's, one at a
// time, so a release returns only once every write its node made before it
// has been acknowledged, and two flushes of one page reach every copy in
// write order.
type eagerEngine struct {
	noPayload
	n      *Node
	update bool // EU: push diffs; EI: push invalidations
	dir    *directory

	// pages[i] is guarded by n.pageLock(i); its twin is present while a
	// critical section since the last flush wrote the page.
	pages []*pageCopy

	// Copy state, each entry under its page's stripe. Under EU
	// fetching[pg] is set while a miss of pg awaits the ship, hints[pg] is
	// the copies of pg this node knows of — the first ones to join pg's
	// copyset at its home, this node among them — learned from the home's
	// ship and acknowledgements; a flush sends them its diff directly.
	// parked[pg] holds the diffs that reached the page while it was
	// fetched, in arrival order, for the install to apply: a writer's
	// update travels on its own link, so it can overtake the home's ship.
	fetching []bool
	hints    []uint64
	parked   [][]*page.Diff

	// ws is the write set of the critical sections since the last flush
	// point; each flush drains it.
	ws *writeSet

	// The flush's scratch: cand, the pages it drained, and out and made,
	// its records by destination and its diffs.
	cand []mem.PageID
	out  [][]wire.DiffRec
	made []*page.Diff
}

func newEagerEngine(n *Node, update bool) *eagerEngine {
	numPages := n.sys.layout.NumPages()
	e := &eagerEngine{
		n:      n,
		update: update,
		pages:  make([]*pageCopy, numPages),
		ws:     newWriteSet(),
		out:    make([][]wire.DiffRec, n.sys.cfg.Procs),
	}
	if update {
		e.fetching, e.hints, e.parked = make([]bool, numPages), make([]uint64, numPages), make([][]*page.Diff, numPages)
	}
	e.dir = newDirectory(n, e)
	return e
}

// --- accesses ---

// ensureValid obtains a copy of pg: the home's own, made on its first
// access, or a ship from the home's. The ship is installed by the home's
// worker as it arrives, in directory order, so the home's copyset always
// matches what this node actually holds. None lands while this node's own
// update of the page is unacknowledged: the one application goroutine's
// misses and flushes take turns, and a miss that gave up waiting stopped
// the node (Node.fail), which installs nothing after. An invalidation
// right behind the install leaves the copy invalid again, the window an
// eagerly-consistent access always had between validation and use; a
// write through it still reaches the home as a diff of its words.
func (e *eagerEngine) ensureValid(pg mem.PageID) error {
	n := e.n
	pmu := n.pageLock(pg)
	pmu.Lock()
	pc := e.pages[pg]
	if pc != nil && pc.valid {
		pmu.Unlock()
		return nil
	}
	if n.homeOf(pg) == n.id {
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
	// the home's worker has installed the granted page — the one it names.
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

// ownLocked returns the home's own copy of pg, made on first use.
func (e *eagerEngine) ownLocked(pg mem.PageID) *pageCopy {
	pc := e.pages[pg]
	if pc == nil {
		pc = &pageCopy{data: make([]byte, e.n.sys.layout.PageSize()), valid: true}
		e.pages[pg] = pc
	}
	return pc
}

// installPage applies a page granted by src at the requester, on src's
// worker, in directory order: every invalidation the home sent before this
// ship has already been applied, and any sent after will be. The data
// lands as the committed contents, under EU followed by the diffs that
// overtook the ship; a local critical section mid-flight on the stale
// copy keeps its uncommitted writes on top (pageCopy.land). The ship holds
// every diff this node flushed: the one application goroutine's flushes
// and misses take turns, and a miss that gave up stopped the node
// (ensureValid).
//
// Returns false (recording the cause) for a grant that cannot be
// installed — bad page id, wrong-size data, or a sender that does not home
// the page — so the caller fails the waiter instead of delivering a
// response that installed nothing.
func (e *eagerEngine) installPage(m *wire.Msg, src mem.ProcID) bool {
	n := e.n
	pg := mem.PageID(m.A)
	if !n.validPage(pg) || len(m.Data) != n.sys.layout.PageSize() {
		n.noteErr("page install",
			fmt.Errorf("bad page grant: page %d, %d data bytes", pg, len(m.Data)))
		return false
	}
	if !e.dir.fromHome(m, pg, src) {
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
		e.fetching[pg] = false
		for _, d := range e.parked[pg] {
			if err := e.landLocked(pc, d); err != nil {
				n.noteErr("update", fmt.Errorf("parked diff for page %d does not apply: %w", pg, err))
			}
			d.Release()
		}
		e.parked[pg] = nil
	}
	return true
}

// learn adds the copies an EU home's message m names in its Wants — a
// ship's copyset, or those an acknowledgement's update missed — to the
// hints of their pages, recording any want that names no page home homes
// or no node, and under EI, which keeps no hints, every want.
func (e *eagerEngine) learn(m *wire.Msg, home mem.ProcID) {
	n := e.n
	for _, w := range m.Wants {
		if !e.update || !n.validPage(w.Page) || n.homeOf(w.Page) != home || w.Proc < 0 || int(w.Proc) >= n.sys.cfg.Procs {
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

// commit ends the uncommitted writes to pg at a flush point and returns
// their diff — nil when the page has none or they changed nothing — and,
// read with it, the page's hint (EU).
func (e *eagerEngine) commit(pg mem.PageID) (d *page.Diff, hint uint64, err error) {
	n := e.n
	pmu := n.pageLock(pg)
	pmu.Lock()
	pc := e.pages[pg]
	if pc == nil || !pc.twinned() {
		pmu.Unlock()
		return nil, 0, nil
	}
	if e.update {
		hint = e.hints[pg]
	}
	twin := pc.take()
	d, err = page.MakeDiff(twin, pc.data)
	n.releaseTwin(twin)
	pmu.Unlock()
	if err != nil {
		return nil, 0, err
	}
	n.stats.diffsCreated.Add(1)
	if d.Empty() {
		return nil, 0, nil
	}
	return d, hint, nil
}

// flush commits this node's buffered modifications and pushes them to
// every other cacher, blocking until each is invalidated (EI) or updated
// (EU). Called from the application goroutine without locks.
//
// It diffs every drained page and sends each node it must reach ONE
// update carrying a record for every page it should see: a page's home,
// always, and under EU every other copy its hint names. An EU record bound
// for the home carries in Index the number of copies the hint names, so
// the home forwards the diff to those that joined since and names them in
// its acknowledgement, which the next flush reaches directly. The diff of
// a page this node homes is in the home's copy already: the flush sends
// it to every member (EU) or invalidates them (EI) itself. A flush that
// fails mid-way leaves its twins claimed.
func (e *eagerEngine) flush() error {
	n := e.n
	cand := e.ws.drain(e.cand)
	e.cand = cand
	e.ws.check(n, func(pg mem.PageID) bool { return e.pages[pg] != nil && e.pages[pg].twinned() })
	made := e.made[:0]
	var own revocation // EI: the copies of the pages this node homes
	defer func() {
		for j := range e.out {
			clear(e.out[j])
			e.out[j] = e.out[j][:0]
		}
		for _, d := range made {
			d.Release() // sending encoded every update that carries it
		}
		clear(made)
		e.made = made[:0]
	}()
	for _, pg := range cand {
		d, hint, err := e.commit(pg)
		if err != nil {
			return err
		}
		if d == nil {
			continue
		}
		made = append(made, d)
		home, known := n.homeOf(pg), int32(bits.OnesCount64(hint))
		to := (hint | 1<<uint(home)) &^ (1 << uint(n.id))
		// A copyset read after the diff: a later ship holds it. With nothing
		// to land and no hint, absorb cannot fail.
		switch {
		case home != n.id:
		case e.update:
			to, _ = e.dir.absorb(pg, n.id, 0, nil, nil)
		default:
			_, _ = e.dir.absorb(pg, n.id, 0, &own, nil)
		}
		for rest := to; rest != 0; rest &= rest - 1 {
			j := mem.ProcID(bits.TrailingZeros64(rest))
			rec := wire.DiffRec{Page: pg, Proc: n.id, Diff: d}
			if j == home {
				rec.Index = known
			}
			e.out[j] = append(e.out[j], rec)
		}
	}
	// The pages this node homes go first, their round ended before any
	// update is awaited: open on another home's acknowledgement, it could
	// wait, through that home's rounds, on itself.
	acks, err := n.rpcAll(own.invals, nil)
	releaseAll(acks)
	own.end()
	if err != nil {
		return err
	}
	// One update and one acknowledgement per destination live in the frame,
	// a fifth destination spilling.
	var (
		reqBuf [4]outMsg
		ackBuf [4]*wire.Msg
	)
	reqs := e.updates(reqBuf[:0], e.out)
	if acks, err = n.rpcAll(reqs, ackBuf[:0]); err != nil {
		return err
	}
	for i, ack := range acks {
		e.learn(ack, reqs[i].dst)
		ack.Release()
	}
	n.stats.flushedPages.Add(int64(len(made)))
	e.ws.settle(cand)
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

func (e *eagerEngine) release() error { return e.flush() }

// --- handler side ---

func (e *eagerEngine) handle(m *wire.Msg, src mem.ProcID) bool {
	switch m.Kind {
	case wire.KPageReq:
		e.dir.shipOwn(m, e.update)
	case wire.KPageResp:
		// Intercepted response: install the granted page on the home's
		// worker, then wake the faulting application goroutine.
		ok := e.installPage(m, src)
		if ok {
			e.learn(m, src)
		}
		e.n.answerWaiter(m, ok)
	case wire.KUpdate:
		e.applyUpdate(m, src)
	case wire.KInval:
		e.dir.serveInval(m, src)
	default:
		return false
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

// invalidateLocked invalidates this node's copy (EI). A twin stays, and
// with it the duty to flush its section's words at its own release: their
// diff against the stale copy lands on the home's, which holds the rest.
func (e *eagerEngine) invalidateLocked(pg mem.PageID) {
	if pc := e.pages[pg]; pc != nil {
		pc.valid = false
	}
}

// applyUpdate lands a writer's merged update record by record and
// acknowledges it once. A record of a page this node homes lands on the
// home's copy, and the copies it leaves stale are sent, before the
// acknowledgement, the diff (EU: those the writer's hint missed, which the
// acknowledgement names) or an invalidation (EI: all but the writer's):
// the only case that waits, on a goroutine of its own. Under EU any other
// record lands on this node's copy, or waits in parked for the ship of a
// page whose miss is in flight. Diffs land on the committed contents, so a
// concurrent critical section's eventual diff carries only its own words.
func (e *eagerEngine) applyUpdate(m *wire.Msg, src mem.ProcID) {
	n := e.n
	var (
		missedBuf [8]wire.Want
		missed    = missedBuf[:0]
		fwd       [][]wire.DiffRec // EU, by destination, made by the first forward
		r         revocation       // EI
	)
	for _, rec := range m.Diffs {
		pg := rec.Page
		land := func() error {
			pmu := n.pageLock(pg)
			pmu.Lock()
			defer pmu.Unlock()
			return e.landLocked(e.ownLocked(pg), rec.Diff)
		}
		switch {
		case !n.validPage(pg):
			n.noteErr("update", fmt.Errorf("update of invalid page %d from %d", pg, src))
		case n.homeOf(pg) != n.id && !e.update:
			n.noteErr("update", fmt.Errorf("update of page %d from %d, which this node does not home", pg, src))
		case n.homeOf(pg) != n.id:
			e.landCopy(pg, rec.Diff, src)
		default:
			known, rp := rec.Index, &r
			if e.update {
				rp = nil
			} else if known != 0 {
				n.noteErr("update", fmt.Errorf("update of page %d from %d claims %d known copies; EI keeps no hints", pg, src, known))
				known = 0
			}
			stale, err := e.dir.absorb(pg, src, known, rp, land)
			if err != nil {
				n.noteErr("update", fmt.Errorf("update of page %d from %d: %w", pg, src, err))
			}
			for ; e.update && stale != 0; stale &= stale - 1 {
				j := mem.ProcID(bits.TrailingZeros64(stale))
				missed = append(missed, wire.Want{Page: pg, Proc: j})
				if j == src {
					continue
				}
				if fwd == nil {
					fwd = make([][]wire.DiffRec, n.sys.cfg.Procs)
				}
				fwd[j] = append(fwd[j], wire.DiffRec{Page: pg, Proc: rec.Proc, Diff: rec.Diff})
			}
		}
	}
	reqs := r.invals
	if fwd != nil {
		reqs = e.updates(nil, fwd)
	}
	if len(reqs) == 0 && len(r.after) == 0 {
		n.noteErr("update ack", n.send(src, &wire.Msg{Kind: wire.KUpdateAck, Seq: m.Seq, Wants: missed}))
		return
	}
	m.Retain() // the forwards borrow its diffs
	go e.settle(m, src, reqs, slices.Clone(missed), r)
}

// landCopy lands diff d of pg from src on this node's copy of a page it
// does not home (EU), or parks a clone of it while the page's ship is in
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

// settle sends what update m from src left stale — reqs, the forwards
// (EU) or r's invalidations (EI) — and once all are acknowledged, and r's
// earlier rounds have ended, acknowledges m, naming missed.
func (e *eagerEngine) settle(m *wire.Msg, src mem.ProcID, reqs []outMsg, missed []wire.Want, r revocation) {
	defer m.Release()
	n := e.n
	acks, err := n.rpcAll(reqs, nil)
	releaseAll(acks)
	r.end()
	if err != nil {
		n.noteErr("update", err) // unacknowledged: the writer's flush fails
		return
	}
	if err := n.send(src, &wire.Msg{Kind: wire.KUpdateAck, Seq: m.Seq, Wants: missed}); err != nil {
		n.noteErr(fmt.Sprintf("update ack to %d", src), err)
	}
}
