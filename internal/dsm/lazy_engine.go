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
// messages; diffs are fetched from their creators at access misses (LI)
// or acquire time (LU).
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
	// diffs is the retained-diff store: an interval's slots, parallel to
	// its sorted page list in the log (slotLocked); an LU entry for a
	// foreign interval has empty slots where no diff was received.
	diffs     map[core.IntervalID][]diffSlot
	lastEpoch vc.VC
	episodes  int
	// flat caches flattened diffs built by handleDiffReq, keyed by the
	// merged index range, so repeat requesters reuse one merge. Dropped
	// wholesale when GC discards diffs.
	flat map[flatKey]*flatEntry
	// fresh accumulates the interval records learned during the current
	// barrier rendezvous, for postBarrier's invalidation step.
	fresh []wire.IntervalRec
	// parked queues deferred slots oldest first for trimTwinsLocked.
	// Entries whose slot was since served or collected are swept out at
	// GC and when the queue reaches parkedSweep, so its length follows the
	// slots still holding twins, not the run.
	parked      []parkedSlot
	parkedSweep int
	// Scratch whose consumer finishes under the lock that filled it: under
	// mu, closeIntervalLocked's sorted dirty pages, the records an acquire
	// absorbed and the pages they notice; under the node's lockMu, held
	// from grant until the grant is encoded, its clock and records; and the
	// barrier leader's alone, the records of the arrival or exit it sends
	// next.
	cand       []mem.PageID
	absorbed   []wire.IntervalRec
	noticed    []mem.PageID
	grantClock vc.VC
	grantRecs  []wire.IntervalRec
	barRecs    []wire.IntervalRec

	// ws is the current interval's write set; closeIntervalLocked drains
	// it into cand.
	ws *writeSet

	// pages[i] is guarded by n.pageLock(i).
	pages []*lazyPage
}

// lazyPage is a node's local copy of one page, guarded by its stripe.
type lazyPage struct {
	data    []byte
	valid   bool
	applied vc.VC      // modifications reflected in data
	twin    *page.Twin // present while the current interval has writes
	gen     uint64     // bumped whenever fresh notices target this page
	// pending is the deferred diff slot of this node's latest closed
	// interval on the page, while its post-interval contents still live
	// in data (no snapshot taken yet). The next twin capture or any
	// mutation of data resolves it — see materializeSlot.
	pending *diffSlot
}

// diffSlot is one retained diff in the store: either materialized (d set)
// or deferred (base twin captured, diff not yet computed). A deferred
// slot's target contents are the target twin if set, else the live page
// data (the slot is then the page's pending slot). The store holds this
// node's own intervals' diffs and, under LU only, clones of the foreign
// diffs it received — what a later lock grant piggybacks; LI applies a
// fetched diff out of its response and keeps nothing. Fields are guarded
// by the slot's page stripe unless noted; the store map itself is under
// e.mu.
type diffSlot struct {
	d      *page.Diff
	base   *page.Twin
	target *page.Twin
	// held says the store has this slot's diff, made or deferred: an LU
	// entry for a foreign interval has blank slots for the pages whose diff
	// never arrived. Set with the slot, under e.mu.
	held bool
	// served is set by the slot's first serve (Stats.DiffCacheHits counts
	// the later ones). Guarded by e.mu.
	served bool
	// flat marks a slot received as part of a flattened response group.
	// Its diff is positionally entangled with the rest of the group
	// (the head carries every member's bytes, the members are empty),
	// so it is applied locally but never forwarded: not piggybacked on
	// LU grants and never served to a peer.
	flat bool
}

// parkedSlot is one entry of the deferred-slot queue.
type parkedSlot struct {
	pg   mem.PageID
	slot *diffSlot
}

// twinBudget bounds the bytes of twins a node keeps parked in deferred
// slots: past it, interval close materializes the oldest deferred diffs
// (a sparse MakeDiff each) so memory follows the working set since the
// last GC epoch instead of the run length. Below it nothing changes:
// diffs are still made on demand only, or never when GC covers them. The
// page pool retains as many bytes, so what a GC epoch releases is what
// the next one captures.
const twinBudget = page.PoolBytes

// flatKey identifies a flattened serve group: this node's own intervals
// on one page with indices in [first, last]. FlattenSafe only passes
// when the group contains every own interval on the page in that range,
// so the range determines the members.
type flatKey struct {
	pg          mem.PageID
	first, last int32
}

// flatEntry is one cached flattened diff with its served flag (see
// diffSlot.served).
type flatEntry struct {
	d      *page.Diff
	served bool
}

// flatCacheMax caps e.flat: each entry pins a merged diff (up to a page
// of body), and runs whose barrier GC is disabled would otherwise grow
// the cache by one entry per distinct served range for the life of the
// process.
const flatCacheMax = 256

func newLazyEngine(n *Node, update bool) *lazyEngine {
	return &lazyEngine{
		n:         n,
		update:    update,
		v:         vc.New(n.sys.cfg.Procs),
		log:       core.NewLog(n.sys.cfg.Procs),
		diffs:     make(map[core.IntervalID][]diffSlot),
		lastEpoch: vc.New(n.sys.cfg.Procs),
		flat:      make(map[flatKey]*flatEntry),
		ws:        newWriteSet(),
		pages:     make([]*lazyPage, n.sys.layout.NumPages()),
	}
}

// newTwin and releaseTwin wrap twin capture and release with the
// TwinBytesLive gauge: the gauge rises at capture and falls at the last
// release, when the buffer returns to the page pool.
func (e *lazyEngine) newTwin(contents []byte) *page.Twin {
	t := page.NewTwin(contents)
	st := &e.n.stats
	live := st.twinBytesLive.Add(int64(t.Len()))
	for {
		peak := st.twinBytesPeak.Load()
		if live <= peak || st.twinBytesPeak.CompareAndSwap(peak, live) {
			return t
		}
	}
}

func (e *lazyEngine) releaseTwin(t *page.Twin) {
	size := int64(t.Len())
	if t.Release() {
		e.n.stats.twinBytesLive.Add(-size)
	}
}

// materializeSlot computes a deferred slot's diff. Caller holds the
// slot's page stripe; pc is the page's current copy (nil only if the
// page was dropped, which materializes first, so a deferred slot always
// still has its target contents). The base and any target twin are
// released once the diff exists.
func (e *lazyEngine) materializeSlot(pc *lazyPage, slot *diffSlot, pg mem.PageID) {
	if slot.d != nil {
		return
	}
	var cur []byte
	switch {
	case slot.target != nil:
		cur = slot.target.Data()
	case pc != nil:
		cur = pc.data
	default:
		panic(fmt.Sprintf("dsm: node %d: deferred diff for page %d lost its target contents", e.n.id, pg))
	}
	d, err := page.MakeDiff(slot.base, cur)
	if err != nil {
		panic(fmt.Sprintf("dsm: node %d: diffing page %d: %v", e.n.id, pg, err))
	}
	slot.d = d
	e.releaseTwin(slot.base)
	slot.base = nil
	if slot.target != nil {
		e.releaseTwin(slot.target)
		slot.target = nil
	} else if pc != nil && pc.pending == slot {
		pc.pending = nil
	}
	e.n.stats.diffsCreated.Add(1)
}

// noteServe counts one serve of a diff towards Stats.DiffCacheHits:
// every serve after the first reuses the body the first one shipped —
// a diff is its wire body, so there is nothing to rebuild. served is the
// diff's flag in its store or cache entry. Caller holds e.mu.
func (e *lazyEngine) noteServe(served *bool) {
	if *served {
		e.n.stats.diffCacheHits.Add(1)
	}
	*served = true
}

// slotLocked returns the store's slot for interval id's diff of page pg,
// or nil when it holds none. Caller holds e.mu.
func (e *lazyEngine) slotLocked(id core.IntervalID, pg mem.PageID) *diffSlot {
	slots := e.diffs[id]
	if slots == nil {
		return nil
	}
	// A store entry's interval is in the log (own intervals are logged as
	// they are stored, storeDiffRecsLocked checks).
	i, ok := slices.BinarySearch(e.log.Get(id).Pages, pg)
	if !ok || !slots[i].held {
		return nil
	}
	return &slots[i]
}

// emptyDiff is the shared placeholder for the merged members of a
// flattened response (the head rec carries their bytes).
var emptyDiff = &page.Diff{}

func (e *lazyEngine) clock() vc.VC {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.v.Clone()
}

// modeID is the engine's routing identity: a node can host LI and LU
// side by side, and diff requests carry this tag so each reaches the
// store that retains its diffs.
func (e *lazyEngine) modeID() Mode {
	if e.update {
		return LazyUpdate
	}
	return LazyInvalidate
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
	e.ws.check(n, func(pg mem.PageID) bool { return e.pages[pg] != nil && e.pages[pg].twin != nil })
	if len(e.cand) == 0 {
		return
	}

	// Sized once: parked entries point into slots.
	slots := make([]diffSlot, 0, len(e.cand))
	pages := make([]mem.PageID, 0, len(e.cand))
	for _, pg := range e.cand {
		pmu := n.pageLock(pg)
		pmu.Lock()
		pc := e.pages[pg]
		if pc == nil || pc.twin == nil {
			pmu.Unlock()
			continue
		}
		// The page table's twin reference transfers to the slot as the
		// diff base; the post-interval contents stay live in pc.data
		// until the next twin capture snapshots them (pending).
		slots = append(slots, diffSlot{held: true, base: pc.twin})
		slot := &slots[len(slots)-1]
		pc.twin = nil
		pc.pending = slot
		e.parked = append(e.parked, parkedSlot{pg, slot})
		n.stats.diffsDeferred.Add(1)
		pmu.Unlock()
		pages = append(pages, pg)
	}
	e.ws.settle(e.cand)
	if len(pages) == 0 {
		return
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
	e.diffs[id] = slots
	// No Mods: byte ranges size the simulator's diffs; these are real.
	e.log.Append(&core.Interval{ID: id, VC: e.v.Clone(), Pages: pages})
	n.stats.intervalsCreated.Add(1)
	e.trimTwinsLocked()
}

// trimTwinsLocked enforces twinBudget once an interval is logged: while
// the node holds more twin bytes than the budget, the oldest parked slot
// that is still deferred is materialized, one at a time so each twin
// goes back to the page pool as the next capture needs one. A trimmed
// slot serves the same diff demand would have made (its target contents
// are fixed from the moment it is parked), so no message changes. Caller
// holds e.mu; stripes are taken under it, as handleDiffReq does.
func (e *lazyEngine) trimTwinsLocked() {
	n := e.n
	i := 0
	for ; i < len(e.parked) && n.stats.twinBytesLive.Load() > twinBudget; i++ {
		p := e.parked[i]
		e.parked[i] = parkedSlot{}
		pmu := n.pageLock(p.pg)
		pmu.Lock()
		if p.slot.base != nil {
			e.materializeSlot(e.pages[p.pg], p.slot, p.pg)
			n.stats.diffsTrimmed.Add(1)
		}
		pmu.Unlock()
	}
	e.parked = e.parked[i:]
	if len(e.parked) >= e.parkedSweep {
		e.sweepParkedLocked()
	}
}

// sweepParkedLocked drops queue entries whose slot no longer holds a
// twin (served on demand, or collected). Caller holds e.mu.
func (e *lazyEngine) sweepParkedLocked() {
	live := e.parked[:0]
	for _, p := range e.parked {
		pmu := e.n.pageLock(p.pg)
		pmu.Lock()
		if p.slot.base != nil {
			live = append(live, p)
		}
		pmu.Unlock()
	}
	clear(e.parked[len(live):])
	e.parked = live
	e.parkedSweep = 2*len(live) + 64
}

// absorbIntervalsLocked merges received interval records into the log,
// skipping already-known ones, and appends the genuinely new records to
// fresh. Caller holds e.mu.
func (e *lazyEngine) absorbIntervalsLocked(fresh, recs []wire.IntervalRec) []wire.IntervalRec {
	// Per-processor index order is required by the log. NoticesBetween
	// emits records in that order already, so only a foreign sender's
	// unordered list pays for a copy and a sort.
	byProcIndex := func(a, b wire.IntervalRec) int {
		return cmp.Or(cmp.Compare(a.Proc, b.Proc), cmp.Compare(a.Index, b.Index))
	}
	sorted := recs
	if !slices.IsSortedFunc(recs, byProcIndex) {
		sorted = slices.Clone(recs)
		slices.SortFunc(sorted, byProcIndex)
	}
	for _, rec := range sorted {
		// The records came off the wire: validate before touching the log.
		// A processor id outside the cluster or an index that does not
		// extend our high-water mark contiguously is the sender's
		// corruption (the protocol always ships complete notice sets), so
		// record it and skip the record rather than panic — and crucially
		// before the log absorbs it, so a rejected record leaves no trace.
		if rec.Proc < 0 || int(rec.Proc) >= len(e.v) {
			e.n.noteErr("interval absorb",
				fmt.Errorf("interval record for invalid processor %d", rec.Proc))
			continue
		}
		if len(rec.VC) != len(e.v) {
			// The record's clock is stored and later compared entrywise
			// (GC covers checks, diff ordering): a wrong-length clock
			// would panic there, so reject it at the wire boundary.
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
		if e.v.Covers(int(rec.Proc), rec.Index) {
			continue // already known
		}
		if e.v[rec.Proc] != rec.Index-1 {
			e.n.noteErr("interval absorb",
				fmt.Errorf("interval gap for p%d: have %d, got %d",
					rec.Proc, e.v[rec.Proc], rec.Index))
			continue
		}
		// The decoded clock and page list belong to the log from here on:
		// the message they arrived in is dropped after absorption.
		e.log.Append(&core.Interval{
			ID:    core.IntervalID{Proc: rec.Proc, Index: rec.Index},
			VC:    rec.VC,
			Pages: rec.Pages,
		})
		// Track per-processor high-water mark in our clock: Covers uses
		// e.v, so advance it per record to keep the dedupe correct for
		// consecutive indices.
		e.v[rec.Proc] = rec.Index
		fresh = append(fresh, rec)
	}
	return fresh
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

// intervalsSinceLocked appends to recs a wire record for every known
// interval (r, k) with k > floor[r]. Caller holds e.mu.
func (e *lazyEngine) intervalsSinceLocked(recs []wire.IntervalRec, floor vc.VC) []wire.IntervalRec {
	if len(floor) != len(e.v) || slices.Min(floor) < -1 {
		// A legitimate acquirer always stamps its full clock; a missing,
		// short or below-empty one is a forged request. Treat the sender as
		// knowing nothing — over-granting is safe, indexing with a forged
		// clock is not.
		floor = vc.New(len(e.v))
	}
	count, _ := e.log.NoticesBetween(floor, e.v, nil)
	recs = slices.Grow(recs, count)
	e.log.NoticesBetween(floor, e.v, func(iv *core.Interval) {
		recs = append(recs, wire.IntervalRec{
			Proc:  iv.ID.Proc,
			Index: iv.ID.Index,
			VC:    iv.VC,
			Pages: iv.Pages,
		})
	})
	return recs
}

// invalidateForLocked applies LI semantics for freshly learned intervals:
// cached valid copies of noticed pages become invalid (data retained as
// the diff target), and every materialized copy's generation is bumped
// so an in-flight validation replans against the now-larger log. It
// returns the affected cached pages, ascending: to LI, which only drops
// them, in scratch good until e.mu is released; to LU, which revalidates
// them after that, as a copy. Caller holds e.mu.
func (e *lazyEngine) invalidateForLocked(fresh []wire.IntervalRec) []mem.PageID {
	e.noticed = e.noticed[:0]
	for _, rec := range fresh {
		e.noticed = append(e.noticed, rec.Pages...)
	}
	slices.Sort(e.noticed)
	e.noticed = slices.Compact(e.noticed)
	affected := e.noticed[:0]
	for _, pg := range e.noticed {
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

// --- data movement ---

// fetchedDiffs is the diff responses a miss holds while it brings its
// page current. Their diffs borrow the responses' frames, so a plan's
// steps are applied straight out of the receive buffers — across
// replans, which only fetch what the held responses and the retained
// store still lack — and the frames are released when the miss
// completes.
type fetchedDiffs []*wire.Msg

// find returns the held diff of interval id on page pg, or nil.
func (f fetchedDiffs) find(pg mem.PageID, id core.IntervalID) *page.Diff {
	for _, resp := range f {
		for i := range resp.Diffs {
			if r := &resp.Diffs[i]; r.Page == pg && r.Proc == id.Proc && r.Index == id.Index {
				return r.Diff
			}
		}
	}
	return nil
}

// releaseAll releases every message of a list its caller holds.
func releaseAll(msgs []*wire.Msg) {
	for _, m := range msgs {
		m.Release()
	}
}

// releaseSteps drops a plan's counts on its steps.
func releaseSteps(steps []*page.Diff) {
	for _, d := range steps {
		d.Release()
	}
}

// releaseDiffs drops the counts the builder of m took on the diffs it
// names, flat or in a section, once m is encoded.
func releaseDiffs(m *wire.Msg) {
	for _, r := range m.Diffs {
		r.Diff.Release()
	}
	for i := range m.Sections {
		for _, r := range m.Sections[i].Diffs {
			r.Diff.Release()
		}
	}
}

// validate brings page pg's local copy up to date; the valid-copy check
// is the access hit path. Callers must hold no engine or stripe locks.
func (e *lazyEngine) validate(pg mem.PageID) error {
	pmu := e.n.pageLock(pg)
	pmu.Lock()
	if pc := e.pages[pg]; pc != nil && pc.valid {
		pmu.Unlock()
		return nil
	}
	pmu.Unlock()
	return e.serviceMiss(pg, nil)
}

// serviceMiss is validate's miss path: a cold copy is fetched from the
// page's home, then every outstanding diff is collected — from held (what
// a prefetch already fetched for this page; serviceMiss owns and releases
// it), from the retained store, or from its creator — and applied in
// happened-before order (§4.3.3). Miss service serializes per page under
// the miss lock; concurrent faulting goroutines coalesce onto one
// transaction.
func (e *lazyEngine) serviceMiss(pg mem.PageID, held fetchedDiffs) error {
	n := e.n
	// The miss's transients live in its frame; a plan too big for them
	// spills to the heap.
	var (
		clockBuf [2][maxProcs]int32
		reqBuf   [4]outMsg
		stepBuf  [8]*page.Diff
		heldBuf  [4]*wire.Msg
	)
	if held == nil {
		held = heldBuf[:0]
	}
	// A plan step out of the store is applied after e.mu is dropped, on a
	// count of its own (one out of a held response borrows, and counts nothing).
	steps := stepBuf[:0]
	defer func() { releaseAll(held); releaseSteps(steps) }()
	pmu := n.pageLock(pg)
	mmu := n.missLock(pg)
	mmu.Lock()
	defer mmu.Unlock()

	pmu.Lock()
	if pc := e.pages[pg]; pc != nil && pc.valid {
		pmu.Unlock()
		return nil
	}
	pmu.Unlock()
	// One application access, one miss — the replan loop below may run
	// several plan/apply rounds for it.
	n.stats.accessMisses.Add(1)

	for {
		pmu.Lock()
		pc := e.pages[pg]
		if pc != nil && pc.valid {
			pmu.Unlock()
			return nil
		}
		cold := pc == nil
		pmu.Unlock()

		if cold {
			n.stats.coldMisses.Add(1)
			if home := n.homeOf(pg); home == n.id {
				pmu.Lock()
				if e.pages[pg] == nil {
					e.pages[pg] = &lazyPage{
						data:    make([]byte, n.sys.layout.PageSize()),
						applied: vc.New(n.sys.cfg.Procs),
					}
				}
				pmu.Unlock()
			} else {
				resp, err := n.rpc(home, &wire.Msg{
					Kind: wire.KPageReq, Seq: n.nextSeq(), A: int32(pg), B: int32(n.id),
				})
				if err != nil {
					return err
				}
				// rpc matches a response on its sequence number alone, and the
				// sender chose the expanded length: nothing but this check
				// keeps a faulty home's short page out of the page table,
				// where the next access would slice past its end.
				if resp.Kind != wire.KPageResp || len(resp.Data) != n.sys.layout.PageSize() ||
					(resp.VC != nil && len(resp.VC) != n.sys.cfg.Procs) {
					bad := fmt.Errorf("bad page grant from %d: %v for page %d, %d data bytes, %d-entry clock",
						home, resp.Kind, pg, len(resp.Data), len(resp.VC))
					resp.Release()
					n.noteErr("page install", bad)
					return fmt.Errorf("dsm: node %d: page install: %w", n.id, bad)
				}
				// The decoded page and clock are the copy's from here on.
				applied := resp.VC
				if applied == nil {
					applied = vc.New(n.sys.cfg.Procs)
				}
				pmu.Lock()
				if e.pages[pg] == nil {
					e.pages[pg] = &lazyPage{data: resp.Data, applied: applied}
				}
				pmu.Unlock()
				resp.Release()
				n.stats.pagesFetched.Add(1)
			}
		}

		// Plan: what is outstanding between the copy's applied clock and
		// the node's current knowledge?
		e.mu.Lock()
		pmu.Lock()
		pc = e.pages[pg]
		appliedSnap := append(vc.VC(clockBuf[0][:0]), pc.applied...)
		genSnap := pc.gen
		pmu.Unlock()
		vSnap := append(vc.VC(clockBuf[1][:0]), e.v...)
		out := e.log.Outstanding(pg, appliedSnap, e.v, n.id)
		// Apply in a linear extension of happened-before: interval clock
		// sums strictly increase along hb1 chains, and concurrent
		// intervals touch disjoint words in properly-labeled programs.
		slices.SortFunc(out, func(a, b core.IntervalID) int {
			return cmp.Or(
				cmp.Compare(clockSum(e.log.Get(a).VC), clockSum(e.log.Get(b).VC)),
				cmp.Compare(a.Proc, b.Proc),
				cmp.Compare(a.Index, b.Index))
		})
		reqs := e.missingDiffReqsLocked(reqBuf[:0], pg, out, held)
		e.mu.Unlock()

		// Fetch missing diffs from their creators (no locks held): all
		// creators at once, one round trip instead of one per creator.
		if len(reqs) > 0 {
			fetched := len(held)
			var err error
			if held, err = n.rpcAll(reqs, held); err != nil {
				return err
			}
			e.noteFetched(held[fetched:])
		}

		// Resolve the plan's steps. A held response wins over the store:
		// it carries exactly what this miss asked for, and a flattened
		// group in it must be applied whole (see storeDiffRecsLocked) even
		// if a plain diff of one member reached the store meanwhile.
		// Outstanding excludes this node's own intervals, so a step from
		// the store is a received diff — always materialized.
		releaseSteps(steps)
		steps = steps[:0]
		e.mu.Lock()
		for _, id := range out {
			d := held.find(pg, id)
			if slot := e.slotLocked(id, pg); d == nil && slot != nil {
				d = slot.d
			}
			if d == nil {
				e.mu.Unlock()
				return fmt.Errorf("dsm: node %d: diff %v for page %d unavailable", n.id, id, pg)
			}
			steps = append(steps, d.Retain())
		}
		e.mu.Unlock()

		// Apply. If fresh notices for this page landed while we were
		// fetching (generation moved), the plan is stale: replan.
		pmu.Lock()
		pc = e.pages[pg]
		if pc.gen != genSnap {
			pmu.Unlock()
			continue
		}
		// A deferred diff of the latest local interval still reads its
		// target contents out of pc.data; the remote diffs about to land
		// there would be misattributed to it. Snapshot it now.
		if pc.pending != nil && len(steps) > 0 {
			e.materializeSlot(pc, pc.pending, pg)
		}
		// A concurrent local critical section may hold a live twin for
		// this page (it kept writing through the invalidation, which is
		// impossible at one goroutine per node: acquireStart's
		// closeInterval would have consumed the twin first). The remote
		// diffs must land on the twin too, or the section's eventual
		// interval would re-register the remote words as its own — and a
		// concurrent re-write by their true owner (reacquiring its lock
		// through the cached local fast path, so it never learns of our
		// interval) could then be reverted by the mis-attributed copy.
		// The twin patch also keeps handlePageReq's committed view
		// consistent with the applied clock stamped below. Proper
		// programs guarantee the remote diffs and the section's own
		// uncommitted words are disjoint.
		var patched []byte
		if pc.twin != nil && len(steps) > 0 {
			patched = append([]byte(nil), pc.twin.Data()...)
		}
		for _, d := range steps {
			if err := d.Apply(pc.data); err != nil {
				pmu.Unlock()
				return err
			}
			if patched != nil {
				if err := d.Apply(patched); err != nil {
					pmu.Unlock()
					return err
				}
			}
			n.stats.diffsApplied.Add(1)
		}
		if patched != nil {
			e.releaseTwin(pc.twin)
			pc.twin = e.newTwin(patched)
		}
		pc.valid = true
		pc.applied.Max(vSnap)
		pmu.Unlock()
		return nil
	}
}

// noteFetched accounts a burst of diff responses. LI is done with a
// fetched diff once the miss holding its response has applied it; under
// LU the diffs also enter the retained store, cloned, because later lock
// grants piggyback them.
func (e *lazyEngine) noteFetched(resps []*wire.Msg) {
	if !e.update {
		for _, resp := range resps {
			e.n.stats.diffsFetched.Add(int64(len(resp.Diffs)))
		}
		return
	}
	e.mu.Lock()
	for _, resp := range resps {
		e.storeDiffRecsLocked(resp.Diffs, true)
	}
	e.mu.Unlock()
}

func clockSum(v vc.VC) int64 {
	var s int64
	for _, x := range v {
		s += int64(x)
	}
	return s
}

// missingDiffReqsLocked appends to reqs one KDiffReq per creator for the
// diffs of page pg's outstanding intervals that neither the retained
// store nor the held responses supply, creators ascending, each creator's
// wants in the order of out. Caller holds e.mu.
func (e *lazyEngine) missingDiffReqsLocked(reqs []outMsg, pg mem.PageID, out []core.IntervalID, held fetchedDiffs) []outMsg {
	var wants []wire.Want
	for _, id := range out {
		if e.slotLocked(id, pg) == nil && held.find(pg, id) == nil {
			wants = append(wants, wire.Want{Page: pg, Proc: id.Proc, Index: id.Index})
		}
	}
	slices.SortStableFunc(wants, func(a, b wire.Want) int { return cmp.Compare(a.Proc, b.Proc) })
	for len(wants) > 0 {
		k := 1
		for k < len(wants) && wants[k].Proc == wants[0].Proc {
			k++
		}
		reqs = append(reqs, outMsg{dst: wants[0].Proc, m: wire.Msg{
			Kind: wire.KDiffReq, Seq: e.n.nextSeq(), A: int32(e.n.id), B: int32(e.modeID()), Wants: wants[:k:k],
		}})
		wants = wants[k:]
	}
	return reqs
}

// storeDiffRecsLocked enters received diff records into LU's retained
// store, as clones: the records borrow a frame that is released long
// before a later grant piggybacks them. Caller holds e.mu; fetched counts
// the records as wire fetches (false for piggybacks).
//
// Flattened response groups are detected here so their slots are marked
// unforwardable: a flattened serve is a run of records for one (page,
// creator) where the head carries the merged bytes and the members are
// empty. A legitimate unflattened response can also carry an empty diff
// (an interval whose writes restored the original bytes), so the
// heuristic can over-mark — that only costs a peer a direct fetch from
// the creator, never correctness.
//
// A record outside a detected group never replaces an existing slot
// (crucially not a local deferred one). A flattened group's records are
// different: the group is positionally entangled — the head carries
// every member's bytes — so if any of its slots already exists (the
// interval's plain diff landed via an LU piggyback between the
// requester's plan and this store), keeping the old slot would mix plain
// and flat records: a kept plain head drops the merged members' bytes, a
// kept plain member re-applies its stale bytes over the head's merge.
// Such slots are replaced wholesale, so the stored group is exactly the
// group served — sound whether the run is a true flattened serve or an
// over-marked plain one (plain records are individually correct).
// Records claiming this node's own intervals are exempt (the protocol
// never returns them; a forged group must not clobber deferred local
// slots). Remote slots are immutable after insertion and only ever read
// under e.mu, so the swap here is ordered with every reader.
func (e *lazyEngine) storeDiffRecsLocked(recs []wire.DiffRec, fetched bool) {
	flat := make([]bool, len(recs))
	for i := 0; i < len(recs); {
		j := i + 1
		for j < len(recs) && recs[j].Page == recs[i].Page && recs[j].Proc == recs[i].Proc {
			j++
		}
		if j-i >= 2 {
			for k := i + 1; k < j; k++ {
				if recs[k].Diff.Empty() {
					for m := i; m < j; m++ {
						flat[m] = true
					}
					break
				}
			}
		}
		i = j
	}
	for i, rec := range recs {
		if !e.n.validPage(rec.Page) {
			// The page id indexes the stripe table when the slot is later
			// piggybacked; an out-of-range one is the sender's corruption.
			e.n.noteErr("diff store",
				fmt.Errorf("diff record for invalid page %d", rec.Page))
			continue
		}
		id := core.IntervalID{Proc: rec.Proc, Index: rec.Index}
		// Every diff the protocol sends answers a plan made from the log,
		// or rides the grant that carried its interval.
		k, ok := 0, e.n.validProc(id.Proc) && id.Index >= 0 && e.v.Covers(int(id.Proc), id.Index)
		if ok {
			k, ok = slices.BinarySearch(e.log.Get(id).Pages, rec.Page)
		}
		if !ok {
			e.n.noteErr("diff store",
				fmt.Errorf("diff record %v for page %d matches no logged write notice", id, rec.Page))
			continue
		}
		slots := e.diffs[id]
		if slots == nil {
			slots = make([]diffSlot, len(e.log.Get(id).Pages))
			e.diffs[id] = slots
		}
		switch existing := &slots[k]; {
		case !existing.held:
			slots[k] = diffSlot{held: true, d: rec.Diff.Clone(), flat: flat[i]}
			if fetched {
				e.n.stats.diffsFetched.Add(1)
			}
		case flat[i] && rec.Proc != e.n.id && existing.d != nil:
			existing.d.Release()
			slots[k] = diffSlot{held: true, d: rec.Diff.Clone(), flat: true}
		}
	}
}

// revalidate brings a list of pages current (LU's acquire/barrier-time
// update step and the GC epoch's bulk validation). With more than one
// page the outstanding diffs are prefetched first as one grouped burst,
// so the per-page requests to each creator leave in one batch frame
// instead of one frame per page; each page's miss is then handed the
// responses fetched for it.
func (e *lazyEngine) revalidate(pages []mem.PageID) error {
	var pre map[mem.PageID]fetchedDiffs
	if len(pages) > 1 {
		var err error
		if pre, err = e.prefetchDiffs(pages); err != nil {
			return err
		}
	}
	for _, pg := range pages {
		held := pre[pg]
		delete(pre, pg)
		if err := e.serviceMiss(pg, held); err != nil {
			for _, rest := range pre {
				releaseAll(rest)
			}
			return err
		}
	}
	return nil
}

// prefetchDiffs batch-fetches the outstanding diffs for a set of pages
// about to be revalidated: one KDiffReq per (page, creator) — exactly
// the requests sequential validation would send, so message counts are
// unchanged — staged together through the outbox, so all requests to
// one creator coalesce into one frame and all creators answer
// concurrently. The responses are returned by page; each page's miss
// then finds its diffs in them and re-plans authoritatively (fresh
// notices landing meanwhile just make it fetch the remainder as usual).
// Cold pages are skipped: their plan depends on the applied clock the
// home's copy arrives with.
func (e *lazyEngine) prefetchDiffs(pages []mem.PageID) (map[mem.PageID]fetchedDiffs, error) {
	n := e.n
	var reqs []outMsg
	e.mu.Lock()
	for _, pg := range pages {
		pmu := n.pageLock(pg)
		pmu.Lock()
		pc := e.pages[pg]
		if pc == nil || pc.valid {
			pmu.Unlock()
			continue
		}
		appliedSnap := pc.applied.Clone()
		pmu.Unlock()
		reqs = e.missingDiffReqsLocked(reqs, pg, e.log.Outstanding(pg, appliedSnap, e.v, n.id), nil)
	}
	e.mu.Unlock()
	if len(reqs) == 0 {
		return nil, nil
	}
	resps, err := n.rpcAll(reqs, nil)
	if err != nil {
		return nil, err
	}
	e.noteFetched(resps)
	pre := make(map[mem.PageID]fetchedDiffs)
	for i, resp := range resps {
		pg := reqs[i].m.Wants[0].Page
		pre[pg] = append(pre[pg], resp)
	}
	return pre, nil
}

// --- engine interface: accesses ---

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
	if pc.twin == nil {
		pc.twin = e.newTwin(pc.data)
		if pc.pending != nil {
			// The fresh twin is a snapshot of the page exactly as the
			// pending interval left it: it becomes the deferred diff's
			// target (shared with the page table — twins are immutable),
			// deferring the diff past this new interval for free.
			pc.pending.target = pc.twin.Retain()
			pc.pending = nil
		}
		e.ws.add(pg)
	}
	copy(pc.data[off:off+len(src)], src)
	pmu.Unlock()
	return nil
}

// --- engine interface: locks ---

func (e *lazyEngine) acquireStart(req *wire.Msg) {
	e.mu.Lock()
	e.closeIntervalLocked()
	req.VC = e.v.Clone()
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
		// first serve); flat slots are skipped — their contents are only
		// meaningful inside the response group they arrived in, so the
		// acquirer fetches those intervals from the creator instead.
		for _, rec := range grant.Intervals {
			id := core.IntervalID{Proc: rec.Proc, Index: rec.Index}
			for _, pg := range rec.Pages {
				slot := e.slotLocked(id, pg)
				if slot == nil {
					continue
				}
				pmu := e.n.pageLock(pg)
				pmu.Lock()
				if slot.flat {
					pmu.Unlock()
					continue
				}
				if slot.d == nil {
					e.materializeSlot(e.pages[pg], slot, pg)
				}
				d := slot.d
				pmu.Unlock()
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
	e.absorbed = e.absorbIntervalsLocked(e.absorbed[:0], grant.Intervals)
	if e.update {
		// Piggybacked diffs enter the retained-diff store; the revalidation
		// below then fetches only what is still missing. (An LI grant
		// carries none, and LI keeps none.)
		e.storeDiffRecsLocked(grant.Diffs, false)
	}
	affected := e.invalidateForLocked(e.absorbed)
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

func (e *lazyEngine) preBarrier() error { return nil }

func (e *lazyEngine) barrierEntry() {
	e.mu.Lock()
	e.closeIntervalLocked()
	e.fresh = e.fresh[:0]
	e.mu.Unlock()
}

// arrive ships this node's clock and its OWN intervals since the last
// barrier. Every interval has one creator and every creator arrives, so
// the master still receives the union — once, not once per node that
// learned of it through a lock chain.
func (e *lazyEngine) arrive(arrive *wire.Msg) {
	e.mu.Lock()
	arrive.VC = e.v.Clone()
	floor := e.v.Clone()
	floor[e.n.id] = e.lastEpoch[e.n.id]
	e.barRecs = e.intervalsSinceLocked(e.barRecs[:0], floor)
	arrive.Intervals = e.barRecs
	e.mu.Unlock()
}

// masterAbsorb absorbs every arrival in one critical section. An own-only
// arrival is not closed under happened-before — it can carry (p,k) while
// the (q,j) its clock covers rides q's arrival — so the log must not be
// observable between two of them: a grant built from it then would export
// (p,k) alone, and the acquirer would later apply (q,j)'s older diff over
// (p,k)'s bytes.
func (e *lazyEngine) masterAbsorb(arrivals []*wire.Msg) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, m := range arrivals {
		arriver := mem.ProcID(m.B)
		own := slices.DeleteFunc(m.Intervals, func(rec wire.IntervalRec) bool {
			if rec.Proc == arriver {
				return false
			}
			// Only the creator ships an interval; anything else is forged.
			e.n.noteErr("barrier arrival", fmt.Errorf("arrival of node %d carries interval p%d/%d of another processor",
				arriver, rec.Proc, rec.Index))
			return true
		})
		e.fresh = e.absorbIntervalsLocked(e.fresh, own)
	}
}

func (e *lazyEngine) exit(m, exit *wire.Msg) {
	e.mu.Lock()
	exit.VC = e.v.Clone()
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
	clear(e.fresh)
	e.fresh = e.fresh[:0]
	e.lastEpoch = e.v.Clone()
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
// covers. Interval records are retained (they are small); diff payloads
// are the memory that matters.
//
// runGC runs on the barrier leader while the node's other application
// goroutines are parked in the local barrier rendezvous, so the only
// concurrent page activity is handler-side serving.
//
// The barrier rendezvous that precedes runGC is what pushes every write
// notice to every node — the master absorbs all arrivals before building
// exits, so each home's log lists every pre-epoch modifier of its pages.
// Validation must therefore leave every copy this node serves — its own
// caches and its homed pages — with an applied clock that dominates the
// epoch: any copy served with a smaller clock would send a later
// requester to a creator for diffs the epoch discarded (the creator
// panics on such requests, by design). checkGCInvariant enforces
// this before any diff is dropped, turning a would-be remote panic into
// a local descriptive error.
func (e *lazyEngine) runGC(b mem.BarrierID) error {
	n := e.n
	e.mu.Lock()
	epoch := e.lastEpoch.Clone()
	var toValidate []mem.PageID
	for pg := range e.pages {
		pgid := mem.PageID(pg)
		if n.rt.modeOf(pgid) != e.modeID() {
			// Routed to another protocol: nothing of it lives here.
			continue
		}
		pmu := n.pageLock(pgid)
		pmu.Lock()
		pc := e.pages[pg]
		switch {
		case pc != nil && !pc.valid:
			toValidate = append(toValidate, pgid)
		case pc == nil && n.homeOf(pgid) == n.id && len(e.log.ModifiersOf(pgid)) > 0:
			// A home that never touched its page materializes it now:
			// after the discard no one could reconstruct it from diffs.
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
	e.mu.Unlock()

	if err := e.revalidate(toValidate); err != nil {
		return err
	}
	if err := e.checkGCInvariant(epoch); err != nil {
		return err
	}

	// Readiness round through the master, so no node truncates while
	// another still needs pre-epoch diffs.
	const master = mem.ProcID(0)
	if n.id == master {
		readies := make([]*wire.Msg, 0, n.sys.cfg.Procs-1)
		for len(readies) < n.sys.cfg.Procs-1 {
			m, err := n.collect(n.gcCh, "master: GC round")
			if err != nil {
				return err
			}
			if mem.BarrierID(m.A) != b {
				return fmt.Errorf("dsm: master: GC ready for barrier %d during %d", m.A, b)
			}
			readies = append(readies, m)
		}
		for _, m := range readies {
			err := n.send(mem.ProcID(m.B), &wire.Msg{Kind: wire.KGCDone, Seq: m.Seq, A: int32(b)})
			m.Release()
			if err != nil {
				return err
			}
		}
	} else {
		done, err := n.rpc(master, &wire.Msg{Kind: wire.KGCReady, Seq: n.nextSeq(), A: int32(b), B: int32(n.id)})
		if err != nil {
			return err
		}
		done.Release()
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	for id := range e.diffs {
		if !epoch.Covers(int(id.Proc), id.Index) {
			continue
		}
		slots := e.diffs[id]
		for i, pg := range e.log.Get(id).Pages {
			slot := &slots[i]
			if !slot.held {
				continue
			}
			n.stats.diffsDiscarded.Add(1)
			pmu := n.pageLock(pg)
			pmu.Lock()
			if slot.d == nil {
				// A covered slot whose diff was never fetched: drop the
				// twins without ever computing it — the deferred work the
				// lazy pipeline saves outright.
				e.releaseTwin(slot.base)
				slot.base = nil
				if slot.target != nil {
					e.releaseTwin(slot.target)
					slot.target = nil
				} else if pc := e.pages[pg]; pc != nil && pc.pending == slot {
					pc.pending = nil
				}
			} else {
				slot.d.Release() // the store's count; a serve in flight has its own
			}
			pmu.Unlock()
		}
		delete(e.diffs, id)
	}
	// Flattened serves merge only pre-epoch intervals their requesters
	// still needed; the epoch retires them with the diffs they merged.
	for _, flat := range e.flat {
		flat.d.Release()
	}
	clear(e.flat)
	e.sweepParkedLocked()
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
		if n.rt.modeOf(pgid) != e.modeID() {
			continue
		}
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

// --- engine interface: page migration ---

func (e *lazyEngine) dropPage(pg mem.PageID) {
	// The hand-off runs after barrierEntry closed the interval,
	// so no live twin exists; any retained diffs stay for GC to discard.
	// A deferred diff still reading its target out of this copy's data
	// must be materialized before the data goes away.
	pmu := e.n.pageLock(pg)
	pmu.Lock()
	if pc := e.pages[pg]; pc != nil && pc.pending != nil {
		e.materializeSlot(pc, pc.pending, pg)
	}
	e.pages[pg] = nil
	pmu.Unlock()
	e.ws.drop(pg)
}

func (e *lazyEngine) adoptPage(pg mem.PageID, data []byte) {
	if data == nil {
		// Non-home: start cold and fault the page from its home on first
		// use, like any never-touched page.
		return
	}
	// The post-barrier clock covers every pre-hand-off interval, so a
	// copy stamped with it has nothing outstanding.
	e.mu.Lock()
	applied := e.v.Clone()
	e.mu.Unlock()
	pmu := e.n.pageLock(pg)
	pmu.Lock()
	if old := e.pages[pg]; old != nil && old.pending != nil {
		e.materializeSlot(old, old.pending, pg)
	}
	e.pages[pg] = &lazyPage{
		data:    append([]byte(nil), data...),
		valid:   true,
		applied: applied,
	}
	pmu.Unlock()
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

func (e *lazyEngine) handleDiffReq(m *wire.Msg, src mem.ProcID) {
	n := e.n
	e.mu.Lock()
	// Resolve every want before answering any: a request for a diff we
	// never made (or already garbage collected out from under a peer
	// that should have known), or for one we only hold as a flattened
	// fragment, is the requester's bug or malice: record it and drop the
	// whole request — a partial answer would install a torn page.
	// Deferred local slots materialize here, on first serve.
	var (
		diffBuf [8]*page.Diff
		slotBuf [8]*diffSlot
		recBuf  [8]wire.DiffRec
	)
	diffs, slots := diffBuf[:0], slotBuf[:0]
	for _, w := range m.Wants {
		id := core.IntervalID{Proc: w.Proc, Index: w.Index}
		if !n.validPage(w.Page) {
			e.mu.Unlock()
			n.noteErr("diff request",
				fmt.Errorf("asked for diff %v on invalid page %d", id, w.Page))
			return
		}
		slot := e.slotLocked(id, w.Page)
		if slot == nil {
			e.mu.Unlock()
			n.noteErr("diff request",
				fmt.Errorf("asked for diff %v page %d this node does not hold", id, w.Page))
			return
		}
		pmu := n.pageLock(w.Page)
		pmu.Lock()
		if slot.flat {
			pmu.Unlock()
			e.mu.Unlock()
			n.noteErr("diff request",
				fmt.Errorf("asked for diff %v page %d held only as a flattened fragment", id, w.Page))
			return
		}
		if slot.d == nil {
			e.materializeSlot(e.pages[w.Page], slot, w.Page)
		}
		diffs, slots = append(diffs, slot.d), append(slots, slot)
		pmu.Unlock()
	}

	// Serve, flattening where sound: a run of wants for several of this
	// node's own intervals on one page merges into a single diff applied
	// at the first interval's plan position, when FlattenSafe proves no
	// interval the requester might order between the members writes the
	// same page. The head record carries the merged bytes; the merged
	// members ride along as empty records so the requester's plan stays
	// complete (and marks them unforwardable, see storeDiffRecsLocked).
	resp := wire.Msg{Kind: wire.KDiffResp, Seq: m.Seq, Diffs: recBuf[:0]}
	for i := 0; i < len(m.Wants); {
		w := m.Wants[i]
		j := i + 1
		for j < len(m.Wants) && m.Wants[j].Page == w.Page && m.Wants[j].Proc == w.Proc &&
			m.Wants[j].Index > m.Wants[j-1].Index {
			j++
		}
		group := m.Wants[i:j]
		if len(group) >= 2 && w.Proc == n.id {
			if flat := e.flattenGroupLocked(group, diffs[i:j]); flat != nil {
				e.noteServe(&flat.served)
				resp.Diffs = append(resp.Diffs, wire.DiffRec{
					Page: w.Page, Proc: w.Proc, Index: w.Index, Diff: flat.d.Retain(),
				})
				for _, g := range group[1:] {
					resp.Diffs = append(resp.Diffs, wire.DiffRec{
						Page: g.Page, Proc: g.Proc, Index: g.Index, Diff: emptyDiff,
					})
				}
				n.stats.diffsFlattened.Add(int64(len(group) - 1))
				i = j
				continue
			}
		}
		for k := i; k < j; k++ {
			e.noteServe(&slots[k].served)
			resp.Diffs = append(resp.Diffs, wire.DiffRec{
				Page: m.Wants[k].Page, Proc: m.Wants[k].Proc, Index: m.Wants[k].Index,
				Diff: diffs[k].Retain(),
			})
		}
		i = j
	}
	e.mu.Unlock()
	// Staged: the shard worker's drain point flushes it, so a burst of
	// diff requests from one prefetching peer answers in few frames. The
	// store may discard the diffs now: stage reads them on the counts above.
	n.stage(src, &resp)
	releaseDiffs(&resp)
}

// flattenGroupLocked merges the diffs of a same-page ascending run of
// this node's own intervals into one, or returns nil when the merge is
// unsound. Results are cached by index range so repeat requesters are
// served from one merge. Caller holds e.mu.
func (e *lazyEngine) flattenGroupLocked(group []wire.Want, diffs []*page.Diff) *flatEntry {
	first, last := group[0].Index, group[len(group)-1].Index
	member := func(k int32) bool {
		return slices.ContainsFunc(group, func(g wire.Want) bool { return g.Index == k })
	}
	// Soundness is per-request, so FlattenSafe runs before the cache is
	// consulted: the key is only the index range, and a want-group with a
	// gap (the requester already holds a middle interval's diff, say from
	// an LU piggyback) must not be handed the full-membership merge a
	// previous requester populated — applying its separately-held middle
	// diff after that head would overwrite the last interval's bytes. A
	// group that passes necessarily contains every own interval on the
	// page in (first, last], so the range does determine the members and
	// the cached entry fits. FlattenSafe is cheap next to the merge.
	if !e.log.FlattenSafe(group[0].Page, e.n.id, first, last, member) {
		return nil
	}
	key := flatKey{pg: group[0].Page, first: first, last: last}
	if flat, ok := e.flat[key]; ok {
		return flat
	}
	merged, err := page.FlattenDiffs(diffs, e.n.sys.layout.PageSize())
	if err != nil {
		// Own diffs are well-formed, so this cannot happen; serve the
		// group unflattened rather than fail the request.
		e.n.noteErr("diff flatten", err)
		return nil
	}
	if len(e.flat) >= flatCacheMax {
		// The wholesale drop in runGC never runs with barrier GC disabled
		// (GCEveryBarriers=0), so the cache bounds itself: evict an
		// arbitrary entry (map order) — a re-merge costs one FlattenDiffs.
		for k, old := range e.flat {
			old.d.Release()
			delete(e.flat, k)
			break
		}
	}
	flat := &flatEntry{d: merged}
	e.flat[key] = flat
	return flat
}

func (e *lazyEngine) handlePageReq(m *wire.Msg) {
	n := e.n
	pg := mem.PageID(m.A)
	requester := mem.ProcID(m.B)
	if !n.validPage(pg) || !n.validProc(requester) {
		n.noteErr("page request",
			fmt.Errorf("bad ids in request: page %d requester %d", pg, requester))
		return
	}
	pmu := n.pageLock(pg)
	pmu.Lock()
	resp := wire.Msg{Kind: wire.KPageResp, Seq: m.Seq, A: m.A}
	pc := e.pages[pg]
	switch {
	case pc == nil:
		// Never materialized here: the committed state is the zero page,
		// and no clock says nothing was applied to it.
		resp.Data = n.sys.zeroPage
	case pc.twin != nil:
		// Uncommitted writes in the current interval must not leak: the
		// twin holds the committed contents.
		resp.Data, resp.VC = pc.twin.Data(), pc.applied
	default:
		resp.Data, resp.VC = pc.data, pc.applied
	}
	// Staging encodes: the copy's bytes go straight into the frame, under
	// the stripe that keeps them still (the destination lock is a leaf).
	n.stage(requester, &resp)
	pmu.Unlock()
}
