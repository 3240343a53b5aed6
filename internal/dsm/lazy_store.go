package dsm

import (
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/core"
	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/page"
	"repro/internal/wire"
)

// diffSlot is one retained diff in the store: a reference to its wire body,
// n bytes from off of body slab b. The store holds this node's own
// intervals' diffs, cut at interval close (closeIntervalLocked), and copies
// of the foreign diffs of single intervals it received — what it serves as
// a concurrent last modifier of their page, and under LU what a later lock
// grant piggybacks — until the GC epoch discards them. Every slot of an own
// interval holds its diff; an entry for a foreign interval has blank slots,
// n 0, for the pages whose diff never arrived. A body is immutable, and
// read through one constructor (diff); the top bit of n marks a slot
// a serve has shipped. Guarded, like the store, by e.mu.
type diffSlot struct {
	b   *page.Slab
	off uint32
	n   uint32
}

// servedBit marks, in a slot's n, a body a serve has shipped: later serves
// count as cache hits.
const servedBit = 1 << 31

// held reports whether the slot holds a diff.
func (s *diffSlot) held() bool { return s.n&^servedBit != 0 }

// body returns the slot's wire body, a window of its slab.
func (s *diffSlot) body() []byte {
	end := s.off + s.n&^servedBit
	return s.b.Bytes()[s.off:end:end]
}

// diff returns the slot's diff in a lease of its own, on one count the
// caller drops when it has read: the one way a stored body is read — to be
// served, merged, piggybacked or applied — so a holder keeps it past e.mu
// and the discard. A body that does not parse (its slab was freed under it)
// is an error. Caller holds e.mu.
func (s *diffSlot) diff() (*page.Diff, error) {
	d, err := page.ParseBody(s.body())
	if err != nil {
		return nil, fmt.Errorf("stored diff body: %w", err)
	}
	return d, nil
}

// The store's storage, per processor: chunks of entries indexed by
// interval index, as core.Log keeps its records, slabs of slots handed out
// in order, and body slabs — leases off the page pool — the bodies are laid
// out in, in order. An epoch fills them, and the sweep that covers them
// frees them whole: chunks and slot slabs to the store's pools, which
// the next epoch takes from before it allocates, body slabs to the page
// pool. Chunks and slot slabs are fixed-size. Body slabs start at
// minBodySlab bytes and double, up to page.SlabBytes, each time one fills
// before an epoch closes it, so a processor whose few diffs a node keeps
// costs it a small slab, and one whose many it keeps a slab a pooled page
// lease.
const (
	chunkIntervals = 256 // entries per chunk: 2 KiB
	slabSlots      = 383 // slots per slab: with its last index, 6 KiB
	minBodySlab    = 1 << 10
)

// slotEnt locates an interval's slots, parallel to its sorted page list in
// the log: n of them from position off of its processor's slabs, none when
// n is 0.
type slotEnt struct {
	off uint32
	n   int32
}

// slotChunk holds the entries of chunkIntervals consecutive interval
// indices of one processor.
type slotChunk struct {
	ents [chunkIntervals]slotEnt
}

// slotSlab is a run of slots and the highest interval index any of them
// was handed to: the sweep that covers that index frees the slab.
type slotSlab struct {
	slots [slabSlots]diffSlot
	last  int32
}

// bodySlab is a body slab and the highest interval index any body in it
// belongs to: the sweep that covers that index releases the slab.
type bodySlab struct {
	s    *page.Slab
	last int32
}

// slotProc is one processor's part of the store. A processor's own
// intervals fill it in close order, another processor's, stored as they are
// fetched (out of order under LU), only as densely as the few diffs they
// are.
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
	// bodies are the body slabs, oldest first; the last is filled from
	// fill on, unless closed (closeBodies). grow is the size of the next
	// slab.
	bodies []bodySlab
	fill   int
	closed bool
	grow   int
}

// slotStore is the retained-diff store, one slotProc per processor, with
// pools of the chunks and slabs sweeps freed, each item in class 0: a
// store's own, so that nothing crosses Systems. Guarded by e.mu.
type slotStore struct {
	procs  []slotProc
	chunks framebuf.Pool[*slotChunk]
	slabs  framebuf.Pool[*slotSlab]
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
		sl, ok := s.slabs.Get(0)
		if !ok {
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
		ch, ok := s.chunks.Get(0)
		if !ok {
			ch = new(slotChunk)
		}
		p.chunks[c] = ch
	}
	ent := slotEnt{off: p.next, n: int32(n)}
	p.chunks[c].ents[k%chunkIntervals] = ent
	p.next += uint32(n)
	return ent
}

// put lays out a body of size bytes for processor q's interval k in q's
// body slabs — the last one, or a fresh one off the page pool when it is
// full or closed — and returns its slot and the bytes to write it into.
func (s *slotStore) put(q mem.ProcID, k int32, size int) (diffSlot, []byte) {
	p := &s.procs[q]
	last := len(p.bodies) - 1
	if last < 0 || p.closed || p.fill+size > len(p.bodies[last].s.Bytes()) {
		switch {
		case p.grow == 0:
			p.grow = minBodySlab
		case last >= 0 && !p.closed:
			p.grow = min(2*p.grow, page.SlabBytes)
		}
		p.bodies = core.AppendDoubling(p.bodies, bodySlab{s: page.NewSlab(max(size, p.grow))})
		p.fill, p.closed, last = 0, false, last+1
	}
	b := &p.bodies[last]
	b.last = max(b.last, k)
	off := p.fill
	p.fill += size
	return diffSlot{b: b.s, off: uint32(off), n: uint32(size)}, b.s.Bytes()[off:p.fill:p.fill]
}

// sweep frees processor q's chunks and slabs that hold nothing above
// index floor: chunks and slot slabs to the store's pools, body slabs
// to the page pool. The discard has emptied their entries and slots; a
// body read from a released slab fails to parse (poisoned, in test builds).
func (s *slotStore) sweep(q int, floor int32) {
	p := &s.procs[q]
	gone := 0
	for gone < len(p.chunks) && (p.dropped+int32(gone)+1)*chunkIntervals-1 <= floor {
		if c := p.chunks[gone]; c != nil {
			s.chunks.Put(0, c, int(unsafe.Sizeof(*c)))
		}
		gone++
	}
	p.chunks = p.chunks[:copy(p.chunks, p.chunks[gone:])]
	clear(p.chunks[len(p.chunks):cap(p.chunks)])
	p.dropped += int32(gone)
	gone = 0
	for ; gone < len(p.slabs) && p.slabs[gone].last <= floor; gone++ {
		sl := p.slabs[gone]
		sl.last = 0
		s.slabs.Put(0, sl, int(unsafe.Sizeof(*sl)))
	}
	p.slabs = p.slabs[:copy(p.slabs, p.slabs[gone:])]
	clear(p.slabs[len(p.slabs):cap(p.slabs)])
	p.base += uint32(gone) * slabSlots
	if len(p.slabs) == 0 {
		p.next = p.base
	}
	gone = 0
	for ; gone < len(p.bodies) && p.bodies[gone].last <= floor; gone++ {
		p.bodies[gone].s.Release()
	}
	p.bodies = p.bodies[:copy(p.bodies, p.bodies[gone:])]
	clear(p.bodies[len(p.bodies):cap(p.bodies)])
}

// closeBodies closes every processor's last body slab: what the store
// keeps from here on goes into slabs of its own. The GC epoch closes them
// once it has validated, so the bodies of the intervals it covers fill
// slabs of their own, which its discard frees whole.
func (s *slotStore) closeBodies() {
	for q := range s.procs {
		s.procs[q].closed = true
	}
}

// serveSlotLocked returns the store's diff of page pg in interval id, on a
// count of its own that the caller drops once it is encoded, or nil when
// the store holds none. Each serve after a slot's first counts towards
// Stats.DiffCacheHits: it ships the body the first one shipped — a diff is
// its wire body, so there is nothing to rebuild. Caller holds e.mu.
func (e *lazyEngine) serveSlotLocked(id core.IntervalID, pg mem.PageID) (*page.Diff, error) {
	slot := e.slotLocked(id, pg)
	if slot == nil {
		return nil, nil
	}
	if slot.n&servedBit != 0 {
		e.n.stats.diffCacheHits.Add(1)
	}
	slot.n |= servedBit
	return slot.diff()
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
	if slot := p.at(ent.off + uint32(i)); slot.held() {
		return slot
	}
	return nil
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

// storeLocked enters rec, one interval's diff, into the retained store: its
// body is copied into the creator's body slabs, since the record borrows a
// frame that is released long before a later request or grant asks for
// it. A record never replaces a slot the store holds (crucially not an own
// one). Caller holds e.mu.
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
	if slot := p.at(ent.off + uint32(k)); !slot.held() {
		body := rec.Diff.EnsureWireBody()
		stored, dst := l.store.put(id.Proc, id.Index, len(body))
		copy(dst, body)
		*slot = stored
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
// merged range. Caller holds e.mu.
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
	if d, err := e.serveSlotLocked(id, w.Page); d != nil || err != nil {
		return d, err
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
	defer func() { // the merge is laid out afresh: the members go back to the pool
		releaseAll(diffs)
		clear(diffs)
		e.merging = diffs[:0]
	}()
	for _, k := range idxs {
		slot := e.slotLocked(core.IntervalID{Proc: n.id, Index: k}, w.Page)
		if slot == nil {
			return nil, fmt.Errorf("asked for diffs %d/%d..%d of page %d, of which %d is no longer held",
				w.Proc, w.Index, last, w.Page, k)
		}
		d, err := slot.diff()
		if err != nil {
			return nil, err
		}
		diffs = core.AppendDoubling(diffs, d)
	}
	merged, err := page.FlattenDiffs(diffs, n.sys.layout.PageSize())
	if err != nil {
		// Own diffs are well-formed, so this cannot happen.
		return nil, fmt.Errorf("merging diffs %d/%d..%d of page %d: %w", w.Proc, w.Index, last, w.Page, err)
	}
	n.stats.diffsFlattened.Add(int64(len(idxs) - 1))
	return merged, nil
}
