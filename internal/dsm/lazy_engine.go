package dsm

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/page"
	"repro/internal/vc"
	"repro/internal/wire"
)

// lazyEngine implements lazy release consistency (§4): intervals, twins,
// diffs and vector clocks. Write notices ride lock grants and barrier
// messages; diffs are fetched from the concurrent last modifiers of a page
// (§4.3.2) at access misses (LI) or acquire time (LU). Fetching is by
// round, not by page: a round — an LI fault, an LU revalidation, the GC
// epoch's bulk validation — plans every page it brings current first and
// sends each responder one KDiffReq for all of them. An LI fault brings
// with its page every other page the node holds an invalid copy of whose
// diffs the same responders serve, so a reader of a writer's several pages
// asks it once, where the paper's per-page fetch asks once per page.
//
// Concurrency: the node's one application goroutine runs every access,
// round, synchronization hook and GC epoch; handlers serve page and diff
// requests and build lock grants beside it. Page copies and their twins
// are per-page state under the node's striped lock table, which a handler
// takes to ship a copy or make a deferred diff out of it; the interval
// machinery — vector clock, interval log, retained-diff store — stays
// under one engine mutex (mu), which a handler takes to serve diffs and
// grants. Only the application goroutine learns intervals, so a round
// plans each page once: nothing can add to a plan while the round fetches
// its diffs. Which pages the current interval dirtied is tracked in the
// write set (twin creation registers the page) so closing an interval does
// not need to sweep every page.
//
// Lock order: node.lockMu < e.mu < node.pageMu stripe.
type lazyEngine struct {
	n      *Node
	update bool // LU: bring cached copies up to date at acquire time

	// mu guards the ledger and the scratch below that says so.
	mu sync.Mutex
	ledger
	gcState
	// stale lists, under LI, the pages whose copies invalidateForLocked
	// made invalid and no fault has planned since: a fault's candidate
	// siblings (planFaultLocked), which prunes the copies it plans or finds
	// valid. A GC epoch validates every invalid copy and empties it. The
	// application goroutine's alone.
	stale []mem.PageID
	// trimFrom is this node's oldest interval trimTwinsLocked may still
	// find deferred slots in: its cursor, raised past the log's floor at GC.
	trimFrom int32
	// round is the scratch that faults, revalidations and the GC epoch's
	// bulk validation plan into: the application goroutine's alone.
	round round
	// Scratch: under mu, closeIntervalLocked's sorted dirty pages; the
	// application goroutine's alone, the pages the intervals an acquire or
	// a barrier absorbed notice (filled under mu; no acquire runs inside a
	// barrier) and the floor of the arrival it sends next. The records a
	// grant, arrival or exit exports are its message's
	// (intervalsSinceLocked).
	cand     []mem.PageID
	noticed  []mem.PageID
	barFloor vc.VC
	// Under mu: absorbIntervalsLocked's records that arrived ahead of
	// their causal past, scratch kept across calls, and mergedLocked's diffs
	// of a range.
	pending []*wire.IntervalRec
	merging []*page.Diff

	// ws is the current interval's write set; closeIntervalLocked drains
	// it into cand.
	ws *writeSet

	// pages[i] is guarded by n.pageLock(i).
	pages []*lazyPage
}

// lazyPage is a node's local copy of one page, guarded by its stripe; its
// twin is present while the current interval has writes.
type lazyPage struct {
	pageCopy
	applied vc.VC // modifications reflected in data
	// pending is the deferred diff slot of this node's latest closed
	// interval on the page, while its post-interval contents still live
	// in data (no snapshot taken yet). The next twin capture or any
	// mutation of data resolves it — see materializeSlot.
	pending *diffSlot
}

func newLazyEngine(n *Node, update bool) *lazyEngine {
	procs, pages := n.sys.cfg.Procs, n.sys.layout.NumPages()
	return &lazyEngine{
		n:      n,
		update: update,
		ledger: newLedger(n.id, procs),
		gcState: gcState{
			lastEpoch: vc.New(procs),
			keepers:   slices.Repeat([]mem.ProcID{-1}, (pages+procs-1)/procs),
		},
		ws:    newWriteSet(),
		pages: make([]*lazyPage, pages),
	}
}

func (e *lazyEngine) clock() vc.VC {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.v.Clone()
}

// --- interval management ---

// closeIntervalLocked ends the current interval: each dirtied page's
// twin becomes a retained diff-store entry and the interval record with
// its write notices enters the log. The diff itself is not computed
// here — the slot keeps the twin as its base and the diff is
// materialized on the first serve, or when the twin budget trims the
// slot, or never: a covered slot whose diff nobody fetched is discarded
// at GC twin and all, which is the lazy-creation win. Caller holds e.mu.
func (e *lazyEngine) closeIntervalLocked() {
	n := e.n
	e.cand = e.ws.drain(e.cand)
	e.ws.check(n, func(pg mem.PageID) bool { return e.pages[pg] != nil && e.pages[pg].twinned() })
	if len(e.cand) == 0 {
		return
	}

	// The slots are the store's next ones for the interval's index:
	// pending pointers point into them. The pages that had a twin move to
	// the front of cand, in order: the interval's page list.
	k, held := e.v[n.id]+1, 0
	for i, pg := range e.cand {
		pmu := n.pageLock(pg)
		pmu.Lock()
		pc := e.pages[pg]
		if pc == nil || !pc.twinned() {
			pmu.Unlock()
			continue
		}
		// The page table's twin reference transfers to the slot as the
		// diff base; the post-interval contents stay live in pc.data
		// until the next twin capture snapshots them (pending). The copy
		// now reflects interval k, which a page with a twin makes sure
		// exists: keep the applied clock faithful so page-home responses
		// advertise the right coverage.
		slot := e.store.slot(n.id, k, held)
		*slot = diffSlot{base: pc.take()}
		pc.pending = slot
		if pc.applied[n.id] < k {
			pc.applied[n.id] = k
		}
		n.stats.diffsDeferred.Add(1)
		pmu.Unlock()
		e.cand[i], e.cand[held] = e.cand[held], pg
		held++
	}
	pages := e.cand[:held]
	e.ws.settle(e.cand)
	if held == 0 {
		return // the slots stay free, for the next interval
	}
	e.store.hold(n.id, k, held)
	e.v.Tick(int(n.id))
	// No Mods: byte ranges size the simulator's diffs; these are real. The
	// log copies the clock and the page scratch in.
	e.log.Append(core.Interval{ID: core.IntervalID{Proc: n.id, Index: k}, VC: e.v, Pages: pages})
	n.stats.intervalsCreated.Add(1)
	e.trimTwinsLocked()
}

// absorbIntervalsLocked merges a batch of received interval record lists
// into the log, skipping already-known records, and appends the pages the
// genuinely new records notice to fresh. A record that extends its
// processor's run goes straight into the log; only one that arrived ahead
// of its causal past waits, pointed to from pending. Nothing of the lists is
// kept: they may die with the messages they came in. Caller holds e.mu.
func (e *lazyEngine) absorbIntervalsLocked(fresh []mem.PageID, batch ...[]wire.IntervalRec) []mem.PageID {
	// The records came off the wire: validate before touching the log. A
	// processor id outside the cluster, a clock of another width or a page
	// outside the space is the sender's corruption, so record it and skip
	// the record rather than panic, before the log absorbs it.
	pending := e.pending[:0]
	for _, recs := range batch {
		for i := range recs {
			rec := &recs[i]
			if !e.validProc(rec.Proc) {
				e.n.noteErr("interval absorb",
					fmt.Errorf("interval record for invalid processor %d", rec.Proc))
				continue
			}
			if len(rec.VC) != len(e.v) {
				// The log stores clocks at a fixed stride and panics on any
				// other length, so reject it at the wire boundary.
				e.n.noteErr("interval absorb",
					fmt.Errorf("interval record p%d/%d carries a %d-entry clock (cluster has %d)",
						rec.Proc, rec.Index, len(rec.VC), len(e.v)))
				continue
			}
			if bad := invalidPageIn(e.n, rec.Pages); bad != nil {
				e.n.noteErr("interval absorb",
					fmt.Errorf("interval record p%d/%d names invalid page %d", rec.Proc, rec.Index, *bad))
				continue
			}
			switch {
			case e.v.Covers(int(rec.Proc), rec.Index): // known
			case e.extends(rec):
				fresh = e.appendLocked(fresh, rec)
			default:
				pending = core.AppendDoubling(pending, rec)
			}
		}
	}
	// Per-processor index order is required by the log, and NoticesBetween
	// emits records in it. A record goes in once it extends its processor's
	// run and the node knows everything else its clock names, so the log
	// stays closed under happened-before; an honest batch is, and goes in
	// whole, most of it as it is read.
	if !slices.IsSortedFunc(pending, byProcIndex) {
		slices.SortFunc(pending, byProcIndex)
	}
	gathered := len(pending)
	for progress := true; progress; {
		progress = false
		kept := pending[:0]
		for _, rec := range pending {
			if !e.extends(rec) {
				kept = append(kept, rec)
				continue
			}
			fresh = e.appendLocked(fresh, rec)
			progress = true
		}
		pending = kept
	}
	for _, rec := range pending {
		switch {
		case e.v.Covers(int(rec.Proc), rec.Index): // a duplicate
		case rec.Index != e.v[rec.Proc]+1:
			e.n.noteErr("interval absorb",
				fmt.Errorf("interval gap for p%d: have %d, got %d", rec.Proc, e.v[rec.Proc], rec.Index))
		default:
			e.n.noteErr("interval absorb",
				fmt.Errorf("interval record p%d/%d is stamped %v, past what its batch and the node know (%v)",
					rec.Proc, rec.Index, rec.VC, e.v))
		}
	}
	clear(pending[:gathered]) // the records are their messages' slabs
	e.pending = pending[:0]
	return fresh
}

// extends reports whether rec is the next interval of its processor and the
// node knows every other interval its clock names: whether the log may take
// it now. Caller holds e.mu.
func (e *lazyEngine) extends(rec *wire.IntervalRec) bool {
	if rec.Index != e.v[rec.Proc]+1 || rec.VC[rec.Proc] != rec.Index {
		return false
	}
	for q, k := range rec.VC {
		if q != int(rec.Proc) && k > e.v[q] {
			return false
		}
	}
	return true
}

// appendLocked logs rec, which extends its processor's run, and returns
// fresh with the pages it notices. Caller holds e.mu.
func (e *lazyEngine) appendLocked(fresh []mem.PageID, rec *wire.IntervalRec) []mem.PageID {
	// The log copies the decoded clock and page list: they go back to the
	// slab pool when the message is released.
	e.log.Append(core.Interval{ID: core.IntervalID{Proc: rec.Proc, Index: rec.Index}, VC: rec.VC, Pages: rec.Pages})
	// Covers and extends read e.v: advance it per record, so that the next
	// index of the processor extends it and a duplicate is known.
	e.v[rec.Proc] = rec.Index
	return append(fresh, rec.Pages...)
}

// byProcIndex orders interval records as the log takes them.
func byProcIndex(a, b *wire.IntervalRec) int {
	return cmp.Or(cmp.Compare(a.Proc, b.Proc), cmp.Compare(a.Index, b.Index))
}

// invalidPageIn returns the first page id in pages that is not a valid
// index into the node's page tables, or nil when all are in range (the
// slices arrive in remote interval records, so they are never trusted
// as indices).
func invalidPageIn(n *Node, pages []mem.PageID) *mem.PageID {
	for i := range pages {
		if !n.validPage(pages[i]) {
			return &pages[i]
		}
	}
	return nil
}

// intervalsSinceLocked returns a wire record for every interval (r, k) the
// log holds with k > floor[r], in records m takes from the wire slab pool:
// they go back when m, encoded by then, is released. Caller holds e.mu.
func (e *lazyEngine) intervalsSinceLocked(m *wire.Msg, floor vc.VC) []wire.IntervalRec {
	if len(floor) != len(e.v) || slices.Min(floor) < -1 {
		// A legitimate acquirer always stamps its full clock; a missing,
		// short or below-empty one is a forged request. Treat the sender as
		// knowing nothing — over-granting is safe, indexing with a forged
		// clock is not.
		floor = vc.New(len(e.v))
	} else {
		for q, k := range floor {
			if k < e.log.Floor(mem.ProcID(q)) {
				// Every node's clock covers the last GC epoch once it has left
				// the barrier that ran it, so one that does not is forged. The
				// log answers from its floor.
				e.n.noteErr("interval export", fmt.Errorf("forged clock %v lies below the collected floor %d of processor %d",
					floor, e.log.Floor(mem.ProcID(q)), q))
				break
			}
		}
	}
	count, _ := e.log.NoticesBetween(floor, e.v, nil)
	recs := m.TakeIntervals(count)[:0]
	e.log.NoticesBetween(floor, e.v, func(iv core.Interval) {
		recs = append(recs, wire.IntervalRec{Proc: iv.ID.Proc, Index: iv.ID.Index, VC: iv.VC, Pages: iv.Pages})
	})
	return recs
}

// invalidateForLocked applies LI semantics for freshly learned intervals,
// given the pages they notice (absorbIntervalsLocked's list, which it
// sorts and reuses): cached valid copies of noticed pages become invalid
// (data retained as the diff target). It returns the affected cached
// pages, ascending, in e.noticed's storage, which only the application
// goroutine fills, so LU revalidates them out of it after e.mu is released,
// before that goroutine's next acquire or barrier. Under LI they join
// e.stale. Caller holds e.mu.
func (e *lazyEngine) invalidateForLocked(noticed []mem.PageID) []mem.PageID {
	slices.Sort(noticed)
	noticed = slices.Compact(noticed)
	affected := noticed[:0]
	for _, pg := range noticed {
		pmu := e.n.pageLock(pg)
		pmu.Lock()
		if pc := e.pages[pg]; pc != nil && pc.valid {
			pc.valid = false
			affected = append(affected, pg)
		}
		pmu.Unlock()
	}
	if !e.update {
		e.stale = append(e.stale, affected...)
	}
	return affected
}

// --- engine interface: accesses ---

// validate brings page pg's local copy up to date; the valid-copy check
// is the access hit path, and a miss is a fault, which brings pg's
// siblings current with it. Callers must hold no engine or stripe locks.
func (e *lazyEngine) validate(pg mem.PageID) error {
	if e.isValid(pg) {
		return nil
	}
	return e.fault(pg)
}

func (e *lazyEngine) readPage(pg mem.PageID, off int, dst []byte) error {
	if err := e.validate(pg); err != nil {
		return err
	}
	pmu := e.n.pageLock(pg)
	pmu.Lock()
	copy(dst, e.pages[pg].data[off:off+len(dst)])
	pmu.Unlock()
	return nil
}

func (e *lazyEngine) writePage(pg mem.PageID, off int, src []byte) error {
	if err := e.validate(pg); err != nil {
		return err
	}
	pmu := e.n.pageLock(pg)
	pmu.Lock()
	pc := e.pages[pg]
	if t := pc.write(e.n, e.ws, pg, off, src); t != nil && pc.pending != nil {
		// The fresh twin is a snapshot of the page exactly as the pending
		// interval left it: it becomes the deferred diff's target (shared
		// with the page table — twins are immutable), deferring the diff
		// past this new interval for free.
		pc.pending.target = t.Retain()
		pc.pending = nil
	}
	pmu.Unlock()
	return nil
}

// --- engine interface: locks ---

func (e *lazyEngine) acquireStart(req *wire.Msg) {
	e.mu.Lock()
	e.closeIntervalLocked()
	req.SetClock(e.v)
	e.mu.Unlock()
}

func (e *lazyEngine) grant(req, grant *wire.Msg) {
	e.mu.Lock()
	defer e.mu.Unlock()
	grant.Intervals = e.intervalsSinceLocked(grant, req.VC)
	grant.SetClock(e.v)
	if e.update {
		// Piggyback every retained diff for the noticed intervals — the
		// releaser supplies what it has (Figure 4's "l and x in a single
		// message"); the acquirer fetches any remainder from responders.
		// Deferred local diffs materialize here (the piggyback is their
		// first serve). The records come from the wire slab pool, as many
		// as the notices name pages at most.
		n := 0
		for _, rec := range grant.Intervals {
			n += len(rec.Pages)
		}
		grant.Diffs = grant.TakeDiffs(n)[:0]
		for _, rec := range grant.Intervals {
			id := core.IntervalID{Proc: rec.Proc, Index: rec.Index}
			for _, pg := range rec.Pages {
				if d := e.serveSlotLocked(id, pg); d != nil {
					grant.Diffs = append(grant.Diffs, wire.DiffRec{
						Page: pg, Proc: id.Proc, Index: id.Index, Diff: d, // sendGrant releases
					})
				}
			}
		}
	}
}

func (e *lazyEngine) onGrant(grant *wire.Msg) error {
	e.mu.Lock()
	e.noticed = e.absorbIntervalsLocked(e.noticed[:0], grant.Intervals)
	if e.update {
		// Piggybacked diffs enter the retained-diff store; the revalidation
		// below then fetches only what is still missing. (An LI grant
		// carries none: LI keeps only the diffs its misses fetch.)
		e.storeDiffRecsLocked(grant.Diffs)
	}
	affected := e.invalidateForLocked(e.noticed)
	e.mu.Unlock()

	if e.update {
		return e.revalidate(affected)
	}
	return nil
}

// release closes the interval a critical section, or a barrier's
// episode, wrote: at a lock release before the lock can pass on, and at a
// barrier before the arrival ships it.
func (e *lazyEngine) release() error {
	e.mu.Lock()
	e.closeIntervalLocked()
	e.mu.Unlock()
	return nil
}

// --- engine interface: barriers ---

// arrive ships this node's clock and its OWN intervals since the last
// barrier. Every interval has one creator and every creator arrives, so
// the master still receives the union — once, not once per node that
// learned of it through a lock chain.
func (e *lazyEngine) arrive(arrive *wire.Msg) {
	e.mu.Lock()
	arrive.SetClock(e.v)
	e.barFloor = append(e.barFloor[:0], e.v...)
	e.barFloor[e.n.id] = e.lastEpoch[e.n.id]
	arrive.Intervals = e.intervalsSinceLocked(arrive, e.barFloor)
	e.mu.Unlock()
}

// masterAbsorb absorbs every arrival as one batch, in one critical
// section. An own-only arrival is not closed under happened-before — it can
// carry (p,k) while the (q,j) its clock covers rides q's arrival — so the
// log must not be observable between two of them: a grant built from it
// then would export (p,k) alone, and the acquirer would later apply
// (q,j)'s older diff over (p,k)'s bytes. The batch, like a grant's, is.
func (e *lazyEngine) masterAbsorb(arrivals []*wire.Msg) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var buf [16][]wire.IntervalRec // each arrival's own records
	batch := buf[:0]
	for _, m := range arrivals {
		arriver := mem.ProcID(m.B)
		batch = append(batch, slices.DeleteFunc(m.Intervals, func(rec wire.IntervalRec) bool {
			if rec.Proc == arriver {
				return false
			}
			// Only the creator ships an interval; anything else is forged.
			e.n.noteErr("barrier arrival", fmt.Errorf("arrival of node %d carries interval p%d/%d of another processor",
				arriver, rec.Proc, rec.Index))
			return true
		}))
	}
	e.noticed = e.absorbIntervalsLocked(e.noticed[:0], batch...)
}

func (e *lazyEngine) exit(m, exit *wire.Msg) {
	e.mu.Lock()
	exit.SetClock(e.v)
	exit.Intervals = e.intervalsSinceLocked(exit, m.VC)
	e.mu.Unlock()
}

func (e *lazyEngine) onExit(exit *wire.Msg) error {
	e.mu.Lock()
	e.noticed = e.absorbIntervalsLocked(e.noticed[:0], exit.Intervals)
	e.mu.Unlock()
	return nil
}

func (e *lazyEngine) postBarrier() error {
	n := e.n
	e.mu.Lock()
	if e.gcDue {
		// Every node has left the barrier that validated the epoch — the
		// master holds all of this barrier's arrivals, and any other node
		// the exit the master sent once it held them — so none will plan a
		// step at or below it again.
		e.discardLocked(e.gcEpoch)
		e.gcDue = false
		n.stats.gcRuns.Add(1)
	}
	affected := e.invalidateForLocked(e.noticed)
	e.lastEpoch = append(e.lastEpoch[:0], e.v...)
	e.episodes++
	gcDue := n.sys.cfg.GCEveryBarriers > 0 && e.episodes%n.sys.cfg.GCEveryBarriers == 0
	e.mu.Unlock()

	if e.update {
		if err := e.revalidate(affected); err != nil {
			return err
		}
	}
	if gcDue {
		return e.runGC()
	}
	return nil
}

// --- engine interface: handler-side requests ---

func (e *lazyEngine) handle(m *wire.Msg, src mem.ProcID) bool {
	switch m.Kind {
	case wire.KDiffReq:
		e.handleDiffReq(m, src)
	case wire.KPageReq:
		e.handlePageReq(m)
	default:
		return false
	}
	return true
}

// handlePageReq answers a page request with the committed contents of
// this node's copy and the clock of what they reflect. A home without a
// copy makes the zero page, or forwards the request unchanged to the
// page's keeper, which answers the requester in B. A node that neither
// homes nor holds the page is asked only by a faulty home: it records that
// and answers nothing, never the zero page.
func (e *lazyEngine) handlePageReq(m *wire.Msg) {
	n := e.n
	pg := mem.PageID(m.A)
	requester := mem.ProcID(m.B) // its sender, or the home's when forwarded (checkSender)
	if !n.validPage(pg) {
		n.noteErr("page request", fmt.Errorf("request for invalid page %d from %d", pg, requester))
		return
	}
	pmu := n.pageLock(pg)
	pmu.Lock()
	defer pmu.Unlock()
	resp := wire.Msg{Kind: wire.KPageResp, Seq: m.Seq, A: m.A}
	pc := e.pages[pg]
	switch keeper := e.keeperLocked(pg); {
	case pc != nil:
		resp.Data, resp.VC = pc.committed(), pc.applied
	case n.homeOf(pg) != n.id:
		n.noteErr("page request", fmt.Errorf("request for page %d from %d, which this node neither homes nor holds", pg, requester))
		return
	case keeper >= 0:
		n.stats.pageForwards.Add(1)
		n.noteErr("page forward", n.send(keeper, &wire.Msg{Kind: wire.KPageReq, Seq: m.Seq, A: m.A, B: m.B}))
		return
	default:
		// Nothing wrote the page before the last GC epoch, or this home
		// would hold a copy or name a keeper: the committed state is the
		// zero page, and no clock says nothing was applied to it.
		resp.Data = n.sys.zeroPage
	}
	// Sending encodes: the copy's bytes go straight into the frame, under
	// the stripe that keeps them still (the destination lock is a leaf).
	n.noteErr("page response", n.send(requester, &resp))
}
