package dsm

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/page"
	"repro/internal/vc"
	"repro/internal/wire"
)

// diffSlot is one retained diff in the store: either materialized (d set)
// or deferred (base twin captured, diff not yet computed). A deferred
// slot's target contents are the target twin if set, else the live page
// data (the slot is then the page's pending slot). The store holds this
// node's own intervals' diffs and clones of the foreign diffs of single
// intervals it received — what it serves as a concurrent last modifier of
// their page, and under LU what a later lock grant piggybacks — until the
// GC epoch discards them. Fields are guarded by the slot's page stripe
// unless noted; the store map itself is under e.mu.
type diffSlot struct {
	d      *page.Diff
	base   *page.Twin
	target *page.Twin
	// held says the store has this slot's diff, made or deferred: an entry
	// for a foreign interval has blank slots for the pages whose diff never
	// arrived. Set with the slot, under e.mu.
	held bool
	// served is set by the slot's first serve (Stats.DiffCacheHits counts
	// the later ones). Guarded by e.mu.
	served bool
	// index is the slot's interval's index, the same in every slot of a
	// cell: what a slotRing cell is looked up by. Set with the cell, under
	// e.mu.
	index int32
}

// deadSlot is what a swept slot array holds in test builds (poison mode):
// held, yet with neither a diff nor a twin, which no live slot is — a
// stale pointer into the array (a page's pending slot) panics at its first
// materialization, and checkPendingLocked reports it at once.
var deadSlot = diffSlot{held: true, served: true}

// slotRing is one processor's part of the retained-diff store: the slot
// array of its interval k, parallel to the interval's page list in the
// log, is cell k mod len(ring), and its slots carry k. The length is a
// power of two, doubled when an interval is stored whose cell another
// interval holds: a processor's own intervals, stored as they close, need
// a ring that spans the indices since the GC epoch before last, another
// processor's, stored as they are fetched (out of order under LU), one
// about as long as the few they are. A vacant cell has length 0. A swept
// cell keeps its array's capacity for the interval that lands there next,
// so once the ring and its arrays have grown to an epoch's history the
// store allocates nothing. Guarded by e.mu.
type slotRing [][]diffSlot

// at returns the cell of index k, empty when the ring holds nothing for k.
func (r slotRing) at(k int32) []diffSlot {
	if len(r) == 0 {
		return nil
	}
	if c := r[int(k)&(len(r)-1)]; len(c) > 0 && c[0].index == k {
		return c
	}
	return nil
}

// cell returns the cell of index k, vacant or k's own, doubling the ring
// while another interval holds it. Growing moves slice headers only: a
// pending pointer into a cell's array stays valid.
func (r *slotRing) cell(k int32) *[]diffSlot {
	for {
		if len(*r) > 0 {
			if c := &(*r)[int(k)&(len(*r)-1)]; len(*c) == 0 || (*c)[0].index == k {
				return c
			}
		}
		// Cell i of the old ring goes to cell i of the new one, or, held by
		// an interval that maps to it, to cell i + len(old).
		old := *r
		*r = make(slotRing, max(8, 2*len(old)))
		for i, c := range old {
			if len(c) > 0 {
				i = int(c[0].index) & (len(*r) - 1)
			}
			(*r)[i] = c
		}
	}
}

// occupy returns vacant cell c's array as n zeroed slots of interval k,
// reusing its capacity when that suffices.
func occupy(c []diffSlot, n int, k int32) []diffSlot {
	s := c[:0]
	if cap(c) < n {
		s = make([]diffSlot, 0, 1<<bits.Len(uint(n-1)))
	}
	for range n {
		s = append(s, diffSlot{index: k})
	}
	return s
}

// vacate empties a swept cell, keeping its array: zeroed, or in test
// builds filled with deadSlot until occupy hands it out again.
func vacate(c *[]diffSlot) {
	s := (*c)[:cap(*c)]
	if framebuf.Poisoned() {
		for i := range s {
			s[i] = deadSlot
		}
	} else {
		clear(s)
	}
	*c = s[:0]
}

// twinBudget bounds the bytes of twins a System's nodes keep live
// together, parked in deferred slots or capturing the current interval:
// past it, interval close materializes the closing node's oldest deferred
// diffs (a sparse MakeDiff each) so memory follows the working set since
// the last GC epoch instead of the run length. Below it nothing changes:
// diffs are still made on demand only, or never when GC covers them. The
// budget is per System, not per node, because its nodes share the page
// pool, which keeps as many bytes of each size class: what a GC epoch
// releases is what the next one captures, however many nodes the System
// hosts.
const twinBudget = page.PoolBytes

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
	e.dropTwins(pc, slot)
	e.n.stats.diffsCreated.Add(1)
}

// dropTwins releases a deferred slot's base and target twins, and pc's
// pending pointer to it. Caller holds the slot's page stripe.
func (e *lazyEngine) dropTwins(pc *lazyPage, slot *diffSlot) {
	e.n.releaseTwin(slot.base)
	slot.base = nil
	if slot.target != nil {
		e.n.releaseTwin(slot.target)
		slot.target = nil
	} else if pc != nil && pc.pending == slot {
		pc.pending = nil
	}
}

// diffOf returns slot's diff, made now under pg's stripe if deferred.
func (e *lazyEngine) diffOf(slot *diffSlot, pg mem.PageID) *page.Diff {
	pmu := e.n.pageLock(pg)
	pmu.Lock()
	defer pmu.Unlock()
	e.materializeSlot(e.pages[pg], slot, pg)
	return slot.d
}

// noteServe counts one serve of a diff towards Stats.DiffCacheHits:
// every serve after the first reuses the body the first one shipped —
// a diff is its wire body, so there is nothing to rebuild. served is the
// slot's flag. Caller holds e.mu.
func (e *lazyEngine) noteServe(served *bool) {
	if *served {
		e.n.stats.diffCacheHits.Add(1)
	}
	*served = true
}

// slotsLocked returns interval id's slot array in the store, empty when
// the store holds none. Caller holds e.mu.
func (e *lazyEngine) slotsLocked(id core.IntervalID) []diffSlot {
	if !e.n.validProc(id.Proc) {
		return nil
	}
	return e.store[id.Proc].at(id.Index)
}

// slotLocked returns the store's slot for interval id's diff of page pg,
// or nil when it holds none. Caller holds e.mu.
func (e *lazyEngine) slotLocked(id core.IntervalID, pg mem.PageID) *diffSlot {
	slots := e.slotsLocked(id)
	if len(slots) == 0 {
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

// trimTwinsLocked enforces twinBudget once an interval is logged: while
// the System's nodes hold more twin bytes than the budget, this node's
// oldest slot that is still deferred — its intervals in close order from
// the trimFrom cursor, each one's pages in order — is materialized, one at
// a time so each twin goes back to the page pool as the next capture needs
// one. A trimmed slot serves the same diff demand would have made (its
// target contents are fixed from the moment its interval closed), so no
// message changes. Caller holds e.mu; stripes are taken under it, as
// handleDiffReq does.
func (e *lazyEngine) trimTwinsLocked() {
	n := e.n
	for ; n.sys.twinBytes.Load() > twinBudget && e.trimFrom <= e.v[n.id]; e.trimFrom++ {
		id := core.IntervalID{Proc: n.id, Index: e.trimFrom}
		slots := e.slotsLocked(id)
		for i, pg := range e.log.Get(id).Pages {
			if n.sys.twinBytes.Load() <= twinBudget {
				return
			}
			pmu := n.pageLock(pg)
			pmu.Lock()
			if slots[i].base != nil {
				e.materializeSlot(e.pages[pg], &slots[i], pg)
				n.stats.diffsTrimmed.Add(1)
			}
			pmu.Unlock()
		}
	}
}

// storeDiffRecsLocked enters received diff records, each one interval's
// diff, into the retained store, as clones: the records borrow a frame
// that is released long before a later request or grant asks for them. A
// record never replaces a slot the store holds (crucially not a local
// deferred one). Caller holds e.mu.
func (e *lazyEngine) storeDiffRecsLocked(recs []wire.DiffRec) {
	for _, rec := range recs {
		if !e.n.validPage(rec.Page) {
			// The page id indexes the stripe table when the slot is later
			// piggybacked; an out-of-range one is the sender's corruption.
			e.n.noteErr("diff store",
				fmt.Errorf("diff record for invalid page %d", rec.Page))
			continue
		}
		id := core.IntervalID{Proc: rec.Proc, Index: rec.Index}
		if e.collectedLocked(id) {
			// A GC epoch swept the interval's record: no plan asks for it and
			// no grant carries it any more.
			e.n.noteErr("diff store",
				fmt.Errorf("diff record %v for page %d names collected history", id, rec.Page))
			continue
		}
		// Every diff the protocol sends answers a plan made from the log,
		// or rides the grant that carried its interval.
		var pages []mem.PageID
		k, ok := 0, e.n.validProc(id.Proc) && id.Index >= 0 && e.v.Covers(int(id.Proc), id.Index)
		if ok {
			pages = e.log.Get(id).Pages
			k, ok = slices.BinarySearch(pages, rec.Page)
		}
		if !ok {
			e.n.noteErr("diff store",
				fmt.Errorf("diff record %v for page %d matches no logged write notice", id, rec.Page))
			continue
		}
		cell := e.store[id.Proc].cell(id.Index)
		if len(*cell) == 0 {
			*cell = occupy(*cell, len(pages), id.Index)
		}
		if slot := &(*cell)[k]; !slot.held {
			slot.held, slot.d = true, rec.Diff.Clone()
		}
	}
}

// collectedLocked reports whether interval id is at or below the log's
// floor: a GC epoch swept its record, and its diffs went with it. Caller
// holds e.mu.
func (e *lazyEngine) collectedLocked(id core.IntervalID) bool {
	return e.n.validProc(id.Proc) && id.Index <= e.log.Floor(id.Proc)
}

// discardLocked is the GC epoch's discard: every retained diff of an
// interval the epoch covers goes, its cell vacated; then the log sweeps
// the intervals' records, which raises the floors the rings span from.
// Caller holds e.mu.
func (e *lazyEngine) discardLocked(epoch vc.VC) {
	n := e.n
	for p, ring := range e.store {
		for c := range ring {
			cell := &ring[c]
			if len(*cell) == 0 || (*cell)[0].index > epoch[p] {
				continue
			}
			k := (*cell)[0].index
			for i, pg := range e.log.Get(core.IntervalID{Proc: mem.ProcID(p), Index: k}).Pages {
				slot := &(*cell)[i]
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
					e.dropTwins(e.pages[pg], slot)
				} else {
					slot.d.Release() // the store's count; a serve in flight has its own
				}
				pmu.Unlock()
			}
			vacate(cell)
		}
	}
	if framebuf.Poisoned() {
		e.checkPendingLocked()
	}
	e.log.Sweep(epoch)
	e.trimFrom = max(e.trimFrom, e.log.Floor(n.id)+1)
}

// checkPendingLocked asserts, in test builds, that no page's pending slot
// lies in an array the discard vacated: the write that next snapshots the
// page would plant its twin in whatever interval lands in the cell next.
// Such a slot reads deadSlot until then. A violation is a recorded error
// that fails the run at Close, like writeSet.check's. Caller holds e.mu.
func (e *lazyEngine) checkPendingLocked() {
	n := e.n
	for stripe := range n.pageMu { // one lock per stripe, not per page
		n.pageMu[stripe].Lock()
		for pg := mem.PageID(stripe); n.validPage(pg); pg += pageShards {
			if pc := e.pages[pg]; pc != nil && pc.pending != nil && *pc.pending == deadSlot {
				n.noteErr("diff store", fmt.Errorf("page %d's pending slot lies in a recycled slot array", pg))
			}
		}
		n.pageMu[stripe].Unlock()
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

func (e *lazyEngine) handleDiffReq(m *wire.Msg, src mem.ProcID) {
	n := e.n
	// A concurrent last modifier answers every want its interval covers,
	// and a fault asks for every invalid page its responders serve: the
	// records come from the wire slab pool, as many as the wants.
	resp := wire.NewMsg()
	defer resp.Release()
	resp.Kind, resp.Seq = wire.KDiffResp, m.Seq
	resp.Diffs = resp.TakeDiffs(len(m.Wants))[:0]
	e.mu.Lock()
	// Record i answers want i: the diff, or "not held" for another
	// processor's diff that this node's clock covers but its store does not
	// hold — the requester asks the creator instead. A want no honest
	// requester sends — a diff of its own this node does not hold, one past
	// its clock or of a page its interval did not write, collected history,
	// a range that is not a run of its own intervals on the page — is the
	// requester's bug or malice: record it and drop the whole request, a
	// partial answer would install a torn page.
	for _, w := range m.Wants {
		d, err := e.serveLocked(w)
		if err != nil {
			e.mu.Unlock()
			releaseDiffs(resp)
			n.noteErr("diff request", err)
			return
		}
		resp.Diffs = append(resp.Diffs, wire.DiffRec{Page: w.Page, Proc: w.Proc, Index: w.Index, Diff: d, NotHeld: d == nil})
	}
	e.mu.Unlock()
	// The store may discard the diffs now: send encodes them on
	// serveLocked's counts.
	n.noteErr("diff response", n.send(src, resp))
	releaseDiffs(resp)
}

// serveLocked returns the diff that answers want w, on a count the caller
// drops once the response is encoded, or nil when w names another
// processor's diff of the page that this node's clock covers and its store
// does not hold: its copy took that diff in as part of a page ship or a
// merged range. A deferred local slot materializes here, on its first
// serve. Caller holds e.mu.
func (e *lazyEngine) serveLocked(w wire.Want) (*page.Diff, error) {
	n := e.n
	id := core.IntervalID{Proc: w.Proc, Index: w.Index}
	if !n.validPage(w.Page) {
		return nil, fmt.Errorf("asked for diff %v on invalid page %d", id, w.Page)
	}
	if e.collectedLocked(id) {
		return nil, fmt.Errorf("asked for diff %v of page %d from collected history", id, w.Page)
	}
	if w.Span != 0 {
		return e.mergedLocked(w)
	}
	slot := e.slotLocked(id, w.Page)
	if slot == nil {
		if id.Proc == n.id || !n.validProc(id.Proc) || !e.v.Covers(int(id.Proc), id.Index) {
			return nil, fmt.Errorf("asked for diff %v page %d this node does not hold", id, w.Page)
		}
		if _, wrote := slices.BinarySearch(e.log.Get(id).Pages, w.Page); !wrote {
			return nil, fmt.Errorf("asked for diff %v of page %d, which the interval did not write", id, w.Page)
		}
		return nil, nil
	}
	d := e.diffOf(slot, w.Page)
	e.noteServe(&slot.served)
	return d.Retain(), nil
}

// mergedLocked serves range want w: the merge, last writer wins, of this
// node's diffs of w.Page in its intervals w.Index through w.Index+w.Span,
// made fresh on a count of its own. The requester applies it where its
// plan has the first of them (see missingWantsLocked for why it may); the
// range must start and end at intervals of this node that wrote the page,
// so that it names the same intervals to both sides, and every one of
// them must still be held. Caller holds e.mu.
func (e *lazyEngine) mergedLocked(w wire.Want) (*page.Diff, error) {
	n := e.n
	last := w.Index + w.Span
	var idxs []int32
	if w.Proc == n.id {
		idxs = e.log.IndicesOn(w.Page, n.id, w.Index, last)
	}
	if len(idxs) == 0 || idxs[0] != w.Index || idxs[len(idxs)-1] != last {
		return nil, fmt.Errorf("asked for diffs %d/%d..%d of page %d, not a run of this node's intervals on the page",
			w.Proc, w.Index, last, w.Page)
	}
	diffs := e.merging[:0]
	pmu := n.pageLock(w.Page)
	pmu.Lock()
	for _, k := range idxs {
		slot := e.slotLocked(core.IntervalID{Proc: n.id, Index: k}, w.Page)
		if slot == nil {
			pmu.Unlock()
			return nil, fmt.Errorf("asked for diffs %d/%d..%d of page %d, of which %d is no longer held",
				w.Proc, w.Index, last, w.Page, k)
		}
		e.materializeSlot(e.pages[w.Page], slot, w.Page)
		diffs = core.AppendDoubling(diffs, slot.d)
	}
	pmu.Unlock()
	e.merging = diffs
	merged, err := page.FlattenDiffs(diffs, n.sys.layout.PageSize())
	clear(diffs)
	if err != nil {
		// Own diffs are well-formed, so this cannot happen.
		return nil, fmt.Errorf("merging diffs %d/%d..%d of page %d: %w", w.Proc, w.Index, last, w.Page, err)
	}
	n.stats.diffsFlattened.Add(int64(len(idxs) - 1))
	return merged, nil
}
