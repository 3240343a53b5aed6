package dsm

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/page"
	"repro/internal/wire"
)

// diffSlot is one retained diff in the store: either materialized (d set)
// or deferred (base twin captured, diff not yet computed). A deferred
// slot's target contents are the target twin if set, else the live page
// data (the slot is then the page's pending slot). The store holds this
// node's own intervals' diffs and clones of the foreign diffs of single
// intervals it received — what it serves as a concurrent last modifier of
// their page, and under LU what a later lock grant piggybacks — until the
// GC epoch discards them. Every slot of an own interval holds its diff,
// made or deferred; an entry for a foreign interval has blank slots, d
// nil, for the pages whose diff never arrived. An own slot's fields are
// guarded by its page stripe, a foreign one's d by e.mu, which guards the
// store itself; a materialized slot's target is only ever servedMark,
// written under e.mu (serveSlotLocked).
type diffSlot struct {
	d      *page.Diff
	base   *page.Twin
	target *page.Twin
}

// Marker twins, never captured or released, told apart by address:
// servedMark is a materialized slot's target once a serve has shipped its
// diff, deadMark a discarded slot's base and target in test builds.
var servedMark, deadMark page.Twin

// deadSlot is what a discarded slot holds in test builds (poison mode): a
// base and a target that are one twin, which no live slot has — a stale
// pointer to it (a page's pending slot) fails at its first
// materialization, and checkPendingLocked reports it at once.
var deadSlot = diffSlot{base: &deadMark, target: &deadMark}

// The store's storage, per processor: chunks of entries indexed by
// interval index, as core.Log keeps its records, and slabs of slots handed
// out in order. Both are fixed-size; an epoch fills them, and the sweep
// that covers them frees them whole to the store's free lists, which the
// next epoch takes from before it allocates.
const (
	chunkIntervals = 255 // entries per chunk: with its link, 2 KiB
	slabSlots      = 255 // slots per slab: with its last index and link, 6 KiB
)

// slotEnt locates an interval's slots, parallel to its sorted page list in
// the log: n of them from position off of its processor's slabs, none when
// n is 0.
type slotEnt struct {
	off uint32
	n   int32
}

// slotChunk holds the entries of chunkIntervals consecutive interval
// indices of one processor; next links the store's free chunks.
type slotChunk struct {
	ents [chunkIntervals]slotEnt
	next *slotChunk
}

// slotSlab is a run of slots and the highest interval index any of them
// was handed to: the sweep that covers that index frees the slab. next
// links the store's free slabs.
type slotSlab struct {
	slots [slabSlots]diffSlot
	last  int32
	next  *slotSlab
}

// slotProc is one processor's part of the store. Slabs never move once
// taken, so a page's pending pointer into one stays valid until the sweep
// that frees it. A processor's own intervals fill it in close order,
// another processor's, stored as they are fetched (out of order under LU),
// only as densely as the few diffs they are.
type slotProc struct {
	// chunks[c] holds the entries of indices [(dropped+c)*chunkIntervals,
	// (dropped+c+1)*chunkIntervals), or is nil where the store holds none.
	chunks  []*slotChunk
	dropped int32
	// slabs[i] holds positions [base+i*slabSlots, base+(i+1)*slabSlots);
	// next is the first position not handed out. Positions wrap at 2^32,
	// which the few live slabs never span.
	slabs      []*slotSlab
	base, next uint32
}

// slotStore is the retained-diff store, one slotProc per processor, with
// the chunks and slabs sweeps freed, linked through their own next fields
// so that freeing allocates nothing. Guarded by e.mu.
type slotStore struct {
	procs  []slotProc
	chunks *slotChunk
	slabs  *slotSlab
}

func newSlotStore(procs int) slotStore { return slotStore{procs: make([]slotProc, procs)} }

// entry returns interval id's entry, zero when the store holds none, and
// its processor's part. id.Proc must be valid.
func (s *slotStore) entry(id core.IntervalID) (*slotProc, slotEnt) {
	p := &s.procs[id.Proc]
	if c := id.Index/chunkIntervals - p.dropped; id.Index >= 0 && c >= 0 && int(c) < len(p.chunks) && p.chunks[c] != nil {
		return p, p.chunks[c].ents[id.Index%chunkIntervals]
	}
	return p, slotEnt{}
}

// at returns the slot at position off.
func (p *slotProc) at(off uint32) *diffSlot {
	rel := off - p.base
	return &p.slabs[rel/slabSlots].slots[rel%slabSlots]
}

// slot returns the i-th slot past processor q's next position for interval
// k, taking a slab when the position is past the last one. hold enters the
// slots into k's entry.
func (s *slotStore) slot(q mem.ProcID, k int32, i int) *diffSlot {
	p := &s.procs[q]
	rel := p.next + uint32(i) - p.base
	for int(rel/slabSlots) >= len(p.slabs) {
		sl := s.slabs
		if sl != nil {
			s.slabs, sl.next = sl.next, nil
			if framebuf.Poisoned() {
				*sl = slotSlab{}
			}
		} else {
			sl = new(slotSlab)
		}
		p.slabs = core.AppendDoubling(p.slabs, sl)
	}
	sl := p.slabs[rel/slabSlots]
	sl.last = max(sl.last, k)
	return &sl.slots[rel%slabSlots]
}

// hold enters the n slots past processor q's next position, each taken by
// slot, as interval k's, and returns its entry.
func (s *slotStore) hold(q mem.ProcID, k int32, n int) slotEnt {
	p := &s.procs[q]
	c := int(k/chunkIntervals - p.dropped)
	for c >= len(p.chunks) {
		p.chunks = core.AppendDoubling(p.chunks, nil)
	}
	if p.chunks[c] == nil {
		if ch := s.chunks; ch != nil {
			s.chunks, ch.next = ch.next, nil
			p.chunks[c] = ch
		} else {
			p.chunks[c] = new(slotChunk)
		}
	}
	ent := slotEnt{off: p.next, n: int32(n)}
	p.chunks[c].ents[k%chunkIntervals] = ent
	p.next += uint32(n)
	return ent
}

// sweep frees processor q's chunks and slabs that hold nothing above
// index floor to the store's free lists. The discard has emptied their
// entries and slots — in test builds a slot it emptied reads deadSlot until
// its slab is taken again, so a stale pointer into a freed slab is caught
// like one into a kept slab.
func (s *slotStore) sweep(q int, floor int32) {
	p := &s.procs[q]
	gone := 0
	for gone < len(p.chunks) && (p.dropped+int32(gone)+1)*chunkIntervals-1 <= floor {
		if c := p.chunks[gone]; c != nil {
			c.next, s.chunks = s.chunks, c
		}
		gone++
	}
	p.chunks = p.chunks[:copy(p.chunks, p.chunks[gone:])]
	clear(p.chunks[len(p.chunks):cap(p.chunks)])
	p.dropped += int32(gone)
	gone = 0
	for ; gone < len(p.slabs) && p.slabs[gone].last <= floor; gone++ {
		sl := p.slabs[gone]
		sl.last, sl.next, s.slabs = 0, s.slabs, sl
	}
	p.slabs = p.slabs[:copy(p.slabs, p.slabs[gone:])]
	clear(p.slabs[len(p.slabs):cap(p.slabs)])
	p.base += uint32(gone) * slabSlots
	if len(p.slabs) == 0 {
		p.next = p.base
	}
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

// serveSlotLocked returns the store's diff of page pg in interval id, made
// now under pg's stripe if deferred, on a count the caller drops once it is
// encoded, or nil when the store holds none. Each serve after a slot's
// first counts towards Stats.DiffCacheHits: it reuses the body the first
// one shipped — a diff is its wire body, so there is nothing to rebuild.
// The first marks the slot's target. Caller holds e.mu.
func (e *lazyEngine) serveSlotLocked(id core.IntervalID, pg mem.PageID) *page.Diff {
	slot := e.slotLocked(id, pg)
	if slot == nil {
		return nil
	}
	pmu := e.n.pageLock(pg)
	pmu.Lock()
	e.materializeSlot(e.pages[pg], slot, pg)
	pmu.Unlock()
	if slot.target == &servedMark {
		e.n.stats.diffCacheHits.Add(1)
	}
	slot.target = &servedMark
	return slot.d.Retain()
}

// slotLocked returns the store's slot for interval id's diff of page pg,
// or nil when it holds none. Caller holds e.mu.
func (l *ledger) slotLocked(id core.IntervalID, pg mem.PageID) *diffSlot {
	if !l.validProc(id.Proc) {
		return nil
	}
	p, ent := l.store.entry(id)
	if ent.n == 0 {
		return nil
	}
	// A store entry's interval is in the log (own intervals are logged as
	// they are stored, storeLocked checks).
	i, ok := slices.BinarySearch(l.log.Get(id).Pages, pg)
	if !ok {
		return nil
	}
	if slot := p.at(ent.off + uint32(i)); id.Proc == l.self || slot.d != nil {
		return slot
	}
	return nil
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
		p, ent := e.store.entry(id)
		for i, pg := range e.log.Get(id).Pages {
			if n.sys.twinBytes.Load() <= twinBudget {
				return
			}
			pmu := n.pageLock(pg)
			pmu.Lock()
			if slot := p.at(ent.off + uint32(i)); slot.base != nil {
				e.materializeSlot(e.pages[pg], slot, pg)
				n.stats.diffsTrimmed.Add(1)
			}
			pmu.Unlock()
		}
	}
}

// storeDiffRecsLocked enters received diff records, each one interval's
// diff, into the retained store (storeLocked), and records those it
// refuses. The page count is the engine's: the page id indexes the stripe
// table when the slot is later piggybacked, so an out-of-range one is the
// sender's corruption. Caller holds e.mu.
func (e *lazyEngine) storeDiffRecsLocked(recs []wire.DiffRec) {
	for _, rec := range recs {
		if !e.n.validPage(rec.Page) {
			e.n.noteErr("diff store", fmt.Errorf("diff record for invalid page %d", rec.Page))
			continue
		}
		e.n.noteErr("diff store", e.storeLocked(rec))
	}
}

// storeLocked enters rec, one interval's diff, into the retained store as
// a clone: the record borrows a frame that is released long before a later
// request or grant asks for it. A record never replaces a slot the store
// holds (crucially not a local deferred one). Caller holds e.mu.
func (l *ledger) storeLocked(rec wire.DiffRec) error {
	id := core.IntervalID{Proc: rec.Proc, Index: rec.Index}
	if l.collectedLocked(id) {
		// A GC epoch swept the interval's record: no plan asks for it and
		// no grant carries it any more.
		return fmt.Errorf("diff record %v for page %d names collected history", id, rec.Page)
	}
	// Every diff the protocol sends answers a plan made from the log, or
	// rides the grant that carried its interval.
	var pages []mem.PageID
	k, ok := 0, l.validProc(id.Proc) && id.Index >= 0 && l.v.Covers(int(id.Proc), id.Index)
	if ok {
		pages = l.log.Get(id).Pages
		k, ok = slices.BinarySearch(pages, rec.Page)
	}
	if !ok {
		return fmt.Errorf("diff record %v for page %d matches no logged write notice", id, rec.Page)
	}
	p, ent := l.store.entry(id)
	if ent.n == 0 {
		for i := range pages {
			l.store.slot(id.Proc, id.Index, i)
		}
		ent = l.store.hold(id.Proc, id.Index, len(pages))
	}
	if slot := p.at(ent.off + uint32(k)); id.Proc != l.self && slot.d == nil {
		slot.d = rec.Diff.Clone()
	}
	return nil
}

// collectedLocked reports whether interval id is at or below the log's
// floor: a GC epoch swept its record, and its diffs went with it. Caller
// holds e.mu.
func (l *ledger) collectedLocked(id core.IntervalID) bool {
	return l.validProc(id.Proc) && id.Index <= l.log.Floor(id.Proc)
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
	if d := e.serveSlotLocked(id, w.Page); d != nil {
		return d, nil
	}
	if id.Proc == n.id || !n.validProc(id.Proc) || !e.v.Covers(int(id.Proc), id.Index) {
		return nil, fmt.Errorf("asked for diff %v page %d this node does not hold", id, w.Page)
	}
	if _, wrote := slices.BinarySearch(e.log.Get(id).Pages, w.Page); !wrote {
		return nil, fmt.Errorf("asked for diff %v of page %d, which the interval did not write", id, w.Page)
	}
	return nil, nil
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
