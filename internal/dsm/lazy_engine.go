package dsm

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/vc"
	"repro/internal/wire"
)

// lazyEngine implements lazy release consistency (§4): intervals, twins,
// diffs and vector clocks. Write notices ride lock grants and barrier
// messages; diffs are fetched from their creators at access misses (LI)
// or acquire time (LU). Fetching is by round, not by page: a round — an
// LI fault, an LU revalidation, the GC epoch's bulk validation — plans
// every page it brings current first and sends each creator one KDiffReq
// for all of them. An LI fault brings with its page the siblings its
// outstanding intervals also wrote, when they need no other creator, so a
// reader of a creator's several pages asks it once, where the paper's
// per-page fetch asks once per page.
//
// Concurrency: page copies and their twins are per-page state under the
// node's striped lock table, so independent pages are read, written and
// validated in parallel; the interval machinery — vector clock, interval
// log, retained-diff store — stays under one engine mutex (mu), taken
// only at synchronization points and when a validation plans or applies
// outstanding diffs. Which pages the current interval dirtied is
// tracked in the write set (twin creation registers the page) so closing
// an interval does not need to sweep every page. A per-page generation
// counter closes the plan/apply race: if fresh write notices for the
// page land while a validation is fetching diffs, the apply step
// observes the bumped generation and replans.
//
// Lock order: node.lockMu < e.mu < node.pageMu stripe < e.ws.mu.
type lazyEngine struct {
	n      *Node
	update bool // LU: bring cached copies up to date at acquire time

	// mu guards the interval machinery below.
	mu  sync.Mutex
	v   vc.VC
	log *core.Log
	// store is the retained-diff store, one ring per processor
	// (slotRing): an interval's slots, parallel to its sorted page list in
	// the log (slotLocked); an LU entry for a foreign interval has blank
	// slots where no diff was received.
	store     []slotRing
	lastEpoch vc.VC
	episodes  int
	// flat caches the merged diffs handleDiffReq built for range wants,
	// keyed by the range, so repeat requesters reuse one merge. Dropped
	// wholesale when GC discards diffs.
	flat map[flatKey]flatEntry
	// fresh accumulates the pages noticed by the intervals learned during
	// the current barrier rendezvous, for postBarrier's invalidation step.
	fresh []mem.PageID
	// trimFrom is this node's oldest interval trimTwinsLocked may still
	// find deferred slots in: its cursor, raised past the log's floor at GC.
	trimFrom int32
	// missWants[s] is the want list of the miss holding miss lock s.
	missWants [pageShards][]wire.Want
	// spare is the free list of round scratch (takePrefetch): faults,
	// revalidations and the GC epoch's bulk validation plan into it.
	spare chan *prefetch
	// Scratch whose consumer finishes under the lock that filled it: under
	// mu, closeIntervalLocked's sorted dirty pages and the pages the
	// intervals an acquire absorbed notice; under the node's lockMu, held
	// from grant until the grant is encoded, its clock and records; and the
	// barrier leader's alone, the floor and records of the arrival or exit
	// it sends next, and the GC epoch's clock and pages to validate.
	cand       []mem.PageID
	noticed    []mem.PageID
	grantClock vc.VC
	grantRecs  []wire.IntervalRec
	barFloor   vc.VC
	barRecs    []wire.IntervalRec
	gcEpoch    vc.VC
	gcPages    []mem.PageID
	// Under mu: absorbIntervalsLocked's records waiting for their causal
	// past, scratch kept across calls.
	pending []wire.IntervalRec

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
	applied vc.VC  // modifications reflected in data
	gen     uint64 // bumped whenever fresh notices target this page
	// pending is the deferred diff slot of this node's latest closed
	// interval on the page, while its post-interval contents still live
	// in data (no snapshot taken yet). The next twin capture or any
	// mutation of data resolves it — see materializeSlot.
	pending *diffSlot
}

func newLazyEngine(n *Node, update bool) *lazyEngine {
	return &lazyEngine{
		n:         n,
		update:    update,
		v:         vc.New(n.sys.cfg.Procs),
		log:       core.NewLog(n.sys.cfg.Procs),
		store:     make([]slotRing, n.sys.cfg.Procs),
		lastEpoch: vc.New(n.sys.cfg.Procs),
		flat:      make(map[flatKey]flatEntry),
		spare:     make(chan *prefetch, spareRounds),
		ws:        newWriteSet(),
		pages:     make([]*lazyPage, n.sys.layout.NumPages()),
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
// With multiple application goroutines the node's interval contains
// every local goroutine's writes since the last synchronization point —
// the node is one processor to the protocol, exactly as a multi-threaded
// processor is to the paper's model.
func (e *lazyEngine) closeIntervalLocked() {
	n := e.n
	e.cand = e.ws.drain(e.cand)
	e.ws.check(n, func(pg mem.PageID) bool { return e.pages[pg] != nil && e.pages[pg].twinned() })
	if len(e.cand) == 0 {
		return
	}

	// The slots go to the store's cell for the interval's index, sized
	// once: pending pointers point into them. The pages that had a twin
	// move to the front of cand, in order: the interval's page list.
	cell := e.store[n.id].cell(e.v[n.id]+1, e.log.Floor(n.id))
	slots := occupy(*cell, len(e.cand))[:0]
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
		// until the next twin capture snapshots them (pending).
		slots = append(slots, diffSlot{held: true, base: pc.take()})
		pc.pending = &slots[len(slots)-1]
		n.stats.diffsDeferred.Add(1)
		pmu.Unlock()
		e.cand[i], e.cand[len(slots)-1] = e.cand[len(slots)-1], pg
	}
	pages := e.cand[:len(slots)]
	e.ws.settle(e.cand)
	*cell = slots
	if len(pages) == 0 {
		return // the cell stays vacant, for the next interval
	}
	idx := e.v.Tick(int(n.id))
	id := core.IntervalID{Proc: n.id, Index: idx}
	for _, pg := range pages {
		// The local copy now reflects this interval: keep the applied
		// clock faithful so page-home responses advertise the right
		// coverage and GC validation sees own pages as current.
		pmu := n.pageLock(pg)
		pmu.Lock()
		if pc := e.pages[pg]; pc != nil && pc.applied[n.id] < idx {
			pc.applied[n.id] = idx
		}
		pmu.Unlock()
	}
	// No Mods: byte ranges size the simulator's diffs; these are real. The
	// log copies the clock and the page scratch in.
	e.log.Append(core.Interval{ID: id, VC: e.v, Pages: pages})
	n.stats.intervalsCreated.Add(1)
	e.trimTwinsLocked()
}

// absorbIntervalsLocked merges a batch of received interval record lists
// into the log, skipping already-known records, and appends the pages the
// genuinely new records notice to fresh. Nothing of the lists is kept: they
// may die with the messages they came in. Caller holds e.mu.
func (e *lazyEngine) absorbIntervalsLocked(fresh []mem.PageID, batch ...[]wire.IntervalRec) []mem.PageID {
	// The records came off the wire: validate before touching the log. A
	// processor id outside the cluster, a clock of another width or a page
	// outside the space is the sender's corruption, so record it and skip
	// the record rather than panic, before the log absorbs it.
	pending := e.pending[:0]
	for _, recs := range batch {
		for _, rec := range recs {
			if rec.Proc < 0 || int(rec.Proc) >= len(e.v) {
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
			if !e.v.Covers(int(rec.Proc), rec.Index) {
				pending = append(pending, rec)
			}
		}
	}
	// Per-processor index order is required by the log, and NoticesBetween
	// emits records in it. A record goes in once it extends its processor's
	// run and the node knows everything else its clock names, so the log
	// stays closed under happened-before; an honest batch is, and goes in
	// whole, most of it on the first pass.
	if !slices.IsSortedFunc(pending, byProcIndex) {
		slices.SortFunc(pending, byProcIndex)
	}
	gathered := len(pending)
	for progress := true; progress; {
		progress = false
		kept := pending[:0]
		for _, rec := range pending {
			if rec.Index != e.v[rec.Proc]+1 || rec.VC[rec.Proc] != rec.Index || !e.knowsBesides(rec) {
				kept = append(kept, rec)
				continue
			}
			// The log copies the decoded clock and page list: they go back to
			// the message's shell when it is released.
			e.log.Append(core.Interval{
				ID:    core.IntervalID{Proc: rec.Proc, Index: rec.Index},
				VC:    rec.VC,
				Pages: rec.Pages,
			})
			// Track per-processor high-water mark in our clock: Covers uses
			// e.v, so advance it per record to keep the dedupe correct for
			// consecutive indices.
			e.v[rec.Proc] = rec.Index
			fresh = append(fresh, rec.Pages...)
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
	clear(pending[:gathered]) // the records point into their messages' slabs
	e.pending = pending[:0]
	return fresh
}

// knowsBesides reports whether the node knows every interval rec's clock
// names but rec's own. Caller holds e.mu.
func (e *lazyEngine) knowsBesides(rec wire.IntervalRec) bool {
	for q, k := range rec.VC {
		if q != int(rec.Proc) && k > e.v[q] {
			return false
		}
	}
	return true
}

// byProcIndex orders interval records as the log takes them.
func byProcIndex(a, b wire.IntervalRec) int {
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

// intervalsSinceLocked appends to recs a wire record for every interval
// (r, k) the log holds with k > floor[r]. Caller holds e.mu.
func (e *lazyEngine) intervalsSinceLocked(recs []wire.IntervalRec, floor vc.VC) []wire.IntervalRec {
	if len(floor) != len(e.v) || slices.Min(floor) < -1 {
		// A legitimate acquirer always stamps its full clock; a missing,
		// short or below-empty one is a forged request. Treat the sender as
		// knowing nothing — over-granting is safe, indexing with a forged
		// clock is not.
		floor = vc.New(len(e.v))
	} else if q := e.belowFloorLocked(floor); q >= 0 {
		// Every node's clock covers the last GC epoch once it has left the
		// barrier that ran it, so one that does not is forged. The log
		// answers from its floor.
		e.n.noteErr("interval export", fmt.Errorf("forged clock %v lies below the collected floor %d of processor %d",
			floor, e.log.Floor(mem.ProcID(q)), q))
	}
	count, _ := e.log.NoticesBetween(floor, e.v, nil)
	recs = slices.Grow(recs, count)
	e.log.NoticesBetween(floor, e.v, func(iv core.Interval) {
		recs = append(recs, wire.IntervalRec{
			Proc:  iv.ID.Proc,
			Index: iv.ID.Index,
			VC:    iv.VC,
			Pages: iv.Pages,
		})
	})
	return recs
}

// belowFloorLocked returns a processor whose entry in clock v lies below
// the log's floor, or -1 if v covers every swept interval. Caller holds
// e.mu.
func (e *lazyEngine) belowFloorLocked(v vc.VC) int {
	for q, k := range v {
		if k < e.log.Floor(mem.ProcID(q)) {
			return q
		}
	}
	return -1
}

// invalidateForLocked applies LI semantics for freshly learned intervals,
// given the pages they notice (absorbIntervalsLocked's list, which it
// sorts and reuses): cached valid copies of noticed pages become invalid
// (data retained as the diff target), and every materialized copy's
// generation is bumped so an in-flight validation replans against the
// now-larger log. It returns the affected cached pages, ascending: to LI,
// which only drops them, in the caller's scratch, good until e.mu is
// released; to LU, which revalidates them after that, as a copy. Caller
// holds e.mu.
func (e *lazyEngine) invalidateForLocked(noticed []mem.PageID) []mem.PageID {
	slices.Sort(noticed)
	noticed = slices.Compact(noticed)
	affected := noticed[:0]
	for _, pg := range noticed {
		pmu := e.n.pageLock(pg)
		pmu.Lock()
		if pc := e.pages[pg]; pc != nil {
			pc.gen++
			if pc.valid {
				pc.valid = false
				affected = append(affected, pg)
			}
		}
		pmu.Unlock()
	}
	if e.update {
		return slices.Clone(affected)
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
	// The caller encodes the grant before it lets go of lockMu.
	e.grantRecs = e.intervalsSinceLocked(e.grantRecs[:0], req.VC)
	e.grantClock = append(e.grantClock[:0], e.v...)
	grant.VC, grant.Intervals = e.grantClock, e.grantRecs
	if e.update {
		// Piggyback every retained diff for the noticed intervals — the
		// releaser supplies what it has (Figure 4's "l and x in a single
		// message"); the acquirer fetches any remainder from creators.
		// Deferred local diffs materialize here (the piggyback is their
		// first serve).
		for _, rec := range grant.Intervals {
			id := core.IntervalID{Proc: rec.Proc, Index: rec.Index}
			for _, pg := range rec.Pages {
				slot := e.slotLocked(id, pg)
				if slot == nil {
					continue
				}
				d := e.diffOf(slot, pg)
				e.noteServe(&slot.served)
				grant.Diffs = append(grant.Diffs, wire.DiffRec{
					Page: pg, Proc: id.Proc, Index: id.Index, Diff: d.Retain(), // sendGrant releases
				})
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
		// carries none, and LI keeps none.)
		e.storeDiffRecsLocked(grant.Diffs)
	}
	affected := e.invalidateForLocked(e.noticed)
	e.mu.Unlock()

	if e.update {
		return e.revalidate(affected)
	}
	return nil
}

func (e *lazyEngine) preRelease() error { return nil }

func (e *lazyEngine) release() {
	e.mu.Lock()
	e.closeIntervalLocked()
	e.mu.Unlock()
}

// --- engine interface: barriers ---

func (e *lazyEngine) barrierEntry() error {
	e.mu.Lock()
	e.closeIntervalLocked()
	e.fresh = e.fresh[:0]
	e.mu.Unlock()
	return nil
}

// arrive ships this node's clock and its OWN intervals since the last
// barrier. Every interval has one creator and every creator arrives, so
// the master still receives the union — once, not once per node that
// learned of it through a lock chain.
func (e *lazyEngine) arrive(arrive *wire.Msg) {
	e.mu.Lock()
	arrive.SetClock(e.v)
	e.barFloor = append(e.barFloor[:0], e.v...)
	e.barFloor[e.n.id] = e.lastEpoch[e.n.id]
	e.barRecs = e.intervalsSinceLocked(e.barRecs[:0], e.barFloor)
	arrive.Intervals = e.barRecs
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
	e.fresh = e.absorbIntervalsLocked(e.fresh, batch...)
}

func (e *lazyEngine) exit(m, exit *wire.Msg) {
	e.mu.Lock()
	exit.SetClock(e.v)
	e.barRecs = e.intervalsSinceLocked(e.barRecs[:0], m.VC)
	exit.Intervals = e.barRecs
	e.mu.Unlock()
}

func (e *lazyEngine) onExit(exit *wire.Msg) error {
	e.mu.Lock()
	e.fresh = e.absorbIntervalsLocked(e.fresh[:0], exit.Intervals)
	e.mu.Unlock()
	return nil
}

func (e *lazyEngine) postBarrier(b mem.BarrierID) error {
	n := e.n
	e.mu.Lock()
	affected := e.invalidateForLocked(e.fresh)
	e.fresh = e.fresh[:0]
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
		return e.runGC(b)
	}
	return nil
}

// runGC is the barrier-time garbage collection epoch: every node brings
// each page it caches fully up to the epoch (and, as a page's home,
// materializes pages with modification history so later cold misses can
// be served without pre-epoch diffs), confirms readiness through the
// master, then discards the diffs of every interval the epoch clock
// covers and sweeps their records out of the log, whose floor rises to
// the epoch: what a node keeps is bounded by the history since the last
// epoch, not the run.
//
// runGC runs on the barrier leader while the node's other application
// goroutines are parked in the local barrier rendezvous, so the only
// concurrent page activity is handler-side serving.
//
// The barrier rendezvous that precedes runGC is what pushes every write
// notice to every node — the master absorbs all arrivals before building
// exits, so each home's log lists every modifier of its pages since the
// last epoch. Validation must therefore leave every copy this node serves —
// its own caches and its homed pages — with an applied clock that
// dominates the epoch: any copy served with a smaller clock would send a
// later requester to a creator for diffs the epoch discarded (the creator
// refuses such requests as collected history), and would plan from
// records the sweep removed. checkGCInvariant enforces this before any
// diff is dropped, turning a would-be remote failure into a local
// descriptive error.
func (e *lazyEngine) runGC(b mem.BarrierID) error {
	n := e.n
	e.mu.Lock()
	e.gcEpoch = append(e.gcEpoch[:0], e.lastEpoch...)
	epoch, toValidate := e.gcEpoch, e.gcPages[:0]
	for pg := range e.pages {
		pgid := mem.PageID(pg)
		pmu := n.pageLock(pgid)
		pmu.Lock()
		pc := e.pages[pg]
		switch {
		case pc != nil && !pc.valid:
			toValidate = append(toValidate, pgid)
		case pc == nil && n.homeOf(pgid) == n.id && len(e.log.ModifiersOf(pgid)) > 0:
			// A home that never touched its page materializes it now:
			// after the discard no one could reconstruct it from diffs.
			// The log only knows modifiers since its floor, which is
			// enough: a home whose page has swept history materialized it
			// at the epoch that swept it.
			toValidate = append(toValidate, pgid)
		case pc != nil && pc.valid && !pc.applied.Dominates(epoch):
			// Valid but stamped before the epoch: force a refresh so the
			// advertised clock covers the epoch. Without the
			// invalidation validate would return immediately and leave
			// the stale stamp in place.
			pc.valid = false
			pc.gen++
			toValidate = append(toValidate, pgid)
		}
		pmu.Unlock()
	}
	e.gcPages = toValidate
	e.mu.Unlock()

	if err := e.revalidate(toValidate); err != nil {
		return err
	}
	if err := e.checkGCInvariant(epoch); err != nil {
		return err
	}

	// Readiness round through the master, so no node truncates while
	// another still needs pre-epoch diffs.
	if err := n.rendezvous(b, "GC round"); err != nil {
		return err
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	e.discardLocked(epoch)
	n.stats.gcRuns.Add(1)
	return nil
}

// checkGCInvariant verifies, before this node signals GC
// readiness, that every copy it can later be asked to serve covers the
// epoch: its cached copies are valid with dominating clocks, and every
// page it homes with modification history is materialized. A violation
// means a later cold miss would chase discarded diffs.
func (e *lazyEngine) checkGCInvariant(epoch vc.VC) error {
	n := e.n
	e.mu.Lock()
	defer e.mu.Unlock()
	for pg := range e.pages {
		pgid := mem.PageID(pg)
		pmu := n.pageLock(pgid)
		pmu.Lock()
		pc := e.pages[pg]
		if pc == nil {
			if n.homeOf(pgid) == n.id && len(e.log.ModifiersOf(pgid)) > 0 {
				pmu.Unlock()
				return fmt.Errorf("dsm: node %d: GC invariant: homed page %d has modification history but no materialized copy", n.id, pgid)
			}
			pmu.Unlock()
			continue
		}
		if !pc.valid || !pc.applied.Dominates(epoch) {
			err := fmt.Errorf("dsm: node %d: GC invariant: page %d copy not validated through the epoch (valid=%t applied=%v epoch=%v)",
				n.id, pgid, pc.valid, pc.applied, epoch)
			pmu.Unlock()
			return err
		}
		pmu.Unlock()
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

func (e *lazyEngine) handlePageReq(m *wire.Msg) {
	n := e.n
	pg := mem.PageID(m.A)
	requester := mem.ProcID(m.B) // its sender (checkSender)
	if !n.validPage(pg) {
		n.noteErr("page request", fmt.Errorf("request for invalid page %d from %d", pg, requester))
		return
	}
	pmu := n.pageLock(pg)
	pmu.Lock()
	resp := wire.Msg{Kind: wire.KPageResp, Seq: m.Seq, A: m.A}
	if pc := e.pages[pg]; pc != nil {
		resp.Data, resp.VC = pc.committed(), pc.applied
	} else {
		// Never materialized here: the committed state is the zero page,
		// and no clock says nothing was applied to it.
		resp.Data = n.sys.zeroPage
	}
	// Sending encodes: the copy's bytes go straight into the frame, under
	// the stripe that keeps them still (the destination lock is a leaf).
	n.noteErr("page response", n.send(requester, &resp))
	pmu.Unlock()
}
