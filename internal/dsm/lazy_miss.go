package dsm

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/page"
	"repro/internal/vc"
	"repro/internal/wire"
)

// fetched is one diff request a round made and the response it holds:
// record i of resp answers want i, which the round checked before it kept
// the pair (answers).
type fetched struct {
	wants []wire.Want
	resp  *wire.Msg
}

// fetchedDiffs is the diff responses a round holds while it brings its
// pages current. Their diffs borrow the responses' frames, so each page's
// steps are applied straight out of the receive buffers, and the frames are
// released once, when the round completes.
type fetchedDiffs []fetched

// find looks for interval id of page pg among the held responses. The
// first interval of a want has the want's record — for a range, the merge
// of all its members; a later member of a range is supplied (ok) by that
// merge and has no diff of its own. A record marked not held supplies
// nothing: the round asked the creator again (fetch).
func (f fetchedDiffs) find(pg mem.PageID, id core.IntervalID) (d *page.Diff, ok bool) {
	for _, h := range f {
		for i, w := range h.wants {
			if w.Page != pg || w.Proc != id.Proc || id.Index < w.Index || id.Index-w.Index > w.Span ||
				h.resp.Diffs[i].NotHeld {
				continue
			}
			if id.Index == w.Index {
				return h.resp.Diffs[i].Diff, true
			}
			return nil, true
		}
	}
	return nil, false
}

// release releases the held responses.
func (f fetchedDiffs) release() {
	for _, h := range f {
		h.resp.Release()
	}
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

// isValid reports whether the node holds a valid copy of page pg.
func (e *lazyEngine) isValid(pg mem.PageID) bool {
	pmu := e.n.pageLock(pg)
	pmu.Lock()
	defer pmu.Unlock()
	pc := e.pages[pg]
	return pc != nil && pc.valid
}

// ensureCopy gives a cold page pg its copy and reports whether it was
// cold: the home makes the zero page unless it named a keeper for the page
// (runGC), whose copy it fetches and then clears the keeper; any other
// node makes the zero page while its log holds the page's whole history
// and names no interval that wrote it (unwrittenLocked), and otherwise
// fetches the home's copy — or, forwarded by the home, its keeper's — with
// the clock of what it reflects. Only the application goroutine makes
// copies and names keepers, so none appears meanwhile.
func (e *lazyEngine) ensureCopy(pg mem.PageID) (cold bool, err error) {
	n := e.n
	pmu := n.pageLock(pg)
	pmu.Lock()
	cold, from := e.pages[pg] == nil, e.keeperLocked(pg)
	pmu.Unlock()
	if !cold {
		return false, nil
	}
	n.stats.coldMisses.Add(1)
	home := n.homeOf(pg)
	zero := home == n.id && from < 0
	if home != n.id {
		from = home
		e.mu.Lock()
		zero = e.unwrittenLocked(pg)
		e.mu.Unlock()
	}
	if zero {
		pmu.Lock()
		e.pages[pg] = &lazyPage{
			pageCopy: pageCopy{data: make([]byte, n.sys.layout.PageSize())},
			applied:  vc.New(n.sys.cfg.Procs),
		}
		pmu.Unlock()
		return true, nil
	}
	resp, err := n.rpc(from, &wire.Msg{
		Kind: wire.KPageReq, Seq: n.nextSeq(), A: int32(pg), B: int32(n.id),
	})
	if err != nil {
		return true, err
	}
	// The sender chose the expanded length: nothing but this check keeps a
	// faulty home's short page out of the page table, where the next access
	// would slice past its end. No home sends interval records with a page.
	if len(resp.Data) != n.sys.layout.PageSize() ||
		(resp.VC != nil && len(resp.VC) != n.sys.cfg.Procs) || len(resp.Intervals) > 0 {
		bad := fmt.Errorf("bad page grant from %d: %v for page %d, %d data bytes, %d-entry clock, %d interval records",
			from, resp.Kind, pg, len(resp.Data), len(resp.VC), len(resp.Intervals))
		resp.Release()
		n.noteErr("page install", bad)
		return true, fmt.Errorf("dsm: node %d: page install: %w", n.id, bad)
	}
	// The decoded page is the copy's from here on; the clock is the
	// message's, so the copy keeps a copy (none: nothing applied).
	applied := vc.New(n.sys.cfg.Procs)
	copy(applied, resp.VC)
	pmu.Lock()
	e.pages[pg] = &lazyPage{pageCopy: pageCopy{data: resp.Data}, applied: applied}
	if home == n.id {
		e.setKeeperLocked(pg, -1) // the home's copy is validated from here on
	}
	pmu.Unlock()
	resp.Release()
	n.stats.pagesFetched.Add(1)
	return true, nil
}

// unwrittenLocked reports whether the node knows page pg to be the zero
// page: no GC epoch has swept its log, so the log holds every interval the
// node knows of, and none of them wrote pg. (The node's own never did: it
// holds no copy.) Caller holds e.mu.
func (e *lazyEngine) unwrittenLocked(pg mem.PageID) bool {
	var clockBuf [maxProcs]int32
	empty := clockBuf[:len(e.v)]
	for p := range empty {
		empty[p] = -1
	}
	return e.belowFloorLocked(empty) < 0 && !e.log.HasOutstanding(pg, empty, e.v, e.n.id)
}

// apply brings page i of round r current: the steps of its plan — out of
// the round's responses, or the retained store — land on the copy's
// committed contents in happened-before order (§4.3.3), and the copy is
// valid through the node's clock.
func (e *lazyEngine) apply(r *round, i int) error {
	n := e.n
	pg := r.pages[i]
	var clockBuf [maxProcs]int32
	// A step out of the store is applied after e.mu is dropped, on a count of
	// its own (one out of a held response borrows, and counts nothing). The
	// steps are released before the round's responses: a borrowed one is a
	// header in a held response's slab, which the next message to take it
	// refills once the response is released.
	e.mu.Lock()
	steps, err := e.stepsLocked(r.steps[:0], pg, r.planOf(i), r.held)
	v := append(vc.VC(clockBuf[:0]), e.v...)
	e.mu.Unlock()
	r.steps = steps
	defer releaseSteps(steps)
	if err != nil {
		return err
	}
	pmu := n.pageLock(pg)
	pmu.Lock()
	defer pmu.Unlock()
	pc := e.pages[pg]
	// The remote diffs land on the committed contents, after a deferred diff
	// still reading its target out of pc.data is made (it would claim them).
	// The copy has no live twin for land to rebase: the acquire or barrier
	// that invalidated it closed the interval, and the node writes only after
	// this round returns.
	if len(steps) > 0 {
		if pc.pending != nil {
			e.materializeSlot(pc, pc.pending, pg)
		}
		if err := pc.land(n, nil, func(committed []byte) error {
			for _, d := range steps {
				if err := d.Apply(committed); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		n.stats.diffsApplied.Add(int64(len(steps)))
	}
	pc.valid = true
	pc.applied.Max(v)
	return nil
}

// sortPlanLocked puts a plan's steps in the order they are applied: a
// linear extension of happened-before — interval clock sums strictly
// increase along hb1 chains, and concurrent intervals touch disjoint words
// in properly-labeled programs — by clock sum, then processor and index.
// Each step's sum is taken once, into the engine's scratch. Caller holds
// e.mu.
func (e *lazyEngine) sortPlanLocked(out []core.IntervalID) {
	if len(out) < 2 {
		return
	}
	keyed := slices.Grow(e.keyed[:0], len(out))
	for _, id := range out {
		keyed = append(keyed, keyedStep{sum: clockSum(e.log.Get(id).VC), id: id})
	}
	slices.SortFunc(keyed, func(a, b keyedStep) int {
		return cmp.Or(cmp.Compare(a.sum, b.sum), cmp.Compare(a.id.Proc, b.id.Proc), cmp.Compare(a.id.Index, b.id.Index))
	})
	for i := range keyed {
		out[i] = keyed[i].id
	}
	e.keyed = keyed[:0]
}

// keyedStep is a plan step and its interval's clock sum, its sort key.
type keyedStep struct {
	sum int64
	id  core.IntervalID
}

func clockSum(v vc.VC) int64 {
	var s int64
	for _, x := range v {
		s += int64(x)
	}
	return s
}

// ask is a want and the processor a round asks it of: the creator of a
// concurrent last modifier of the want's page (missingWantsLocked).
type ask struct {
	to mem.ProcID
	w  wire.Want
}

// lastModifiersLocked returns the concurrent last modifiers of plan out,
// by bit of their creators, and fills last with each creator's latest
// interval in out: the paper's responders (§4.3.2), core.Log.Maximal's
// rule — a creator's latest interval, unless another creator's latest
// interval covers it. Caller holds e.mu.
func (e *lazyEngine) lastModifiersLocked(last *[maxProcs]int32, out []core.IntervalID) uint64 {
	var creators uint64
	for _, id := range out {
		if creators&(1<<id.Proc) == 0 || id.Index > last[id.Proc] {
			last[id.Proc] = id.Index
		}
		creators |= 1 << id.Proc
	}
	mods := creators
	for cs := creators; cs != 0; cs &= cs - 1 {
		p := bits.TrailingZeros64(cs)
		for qs := creators &^ (1 << p); qs != 0; qs &= qs - 1 {
			q := bits.TrailingZeros64(qs)
			if e.log.Get(core.IntervalID{Proc: mem.ProcID(q), Index: last[q]}).VC.Covers(p, last[p]) {
				mods &^= 1 << p
				break
			}
		}
	}
	return mods
}

// respondersLocked returns, by bit, the responders the wants for plan out
// of page pg go to, whatever the plan's order: responderLocked's for each
// step the store does not supply. These are missingWantsLocked's asks'
// destinations, which its ranges do not change: a run extends only while
// its steps' responder is their creator. Caller holds e.mu.
func (e *lazyEngine) respondersLocked(pg mem.PageID, out []core.IntervalID) uint64 {
	var last [maxProcs]int32
	mods := e.lastModifiersLocked(&last, out)
	var to uint64
	for _, id := range out {
		if e.slotLocked(id, pg) == nil {
			to |= 1 << e.responderLocked(id, &last, mods)
		}
	}
	return to
}

// responderLocked returns the processor a round asks for interval id's
// diff, given its plan's concurrent last modifiers (lastModifiersLocked's
// mods and last): the first, by processor, whose clock covers id. It
// applied id's diff before it wrote the page, and keeps it until GC — or
// says it does not (fetch). Every interval of a plan is covered by one of
// them. Caller holds e.mu.
func (e *lazyEngine) responderLocked(id core.IntervalID, last *[maxProcs]int32, mods uint64) mem.ProcID {
	for ms := mods; ms != 0; ms &= ms - 1 {
		p := bits.TrailingZeros64(ms)
		if e.log.Get(core.IntervalID{Proc: mem.ProcID(p), Index: last[p]}).VC.Covers(int(id.Proc), id.Index) {
			return mem.ProcID(p)
		}
	}
	return id.Proc
}

// missingWantsLocked appends to asks the wants for the steps of plan out
// (planPageLocked's, for page pg) that the retained store does not
// supply, each with its responder (responderLocked), grouped by
// creator, creators ascending. A creator's consecutive missing steps that
// it is the responder of are asked for as one range want, answered by one
// merged diff that is applied at the first one's step — so a step m joins
// the run its creator has open only if that moves m's bytes past nothing
// they may share a word with:
//
//   - not past a step of the same creator that is supplied already: the
//     merge would not hold it, and it may rewrite what the run's earlier
//     members wrote;
//   - not past another creator's step that the plan orders after the run's
//     first and m's clock covers: it happened before m, so m may have
//     overwritten it. One that m's clock does not cover is concurrent with
//     m (the plan orders nothing after m that m follows), and concurrent
//     intervals share no word in a properly-labeled program.
//
// The log is closed under happened-before whenever e.mu is held, so every
// interval that happened before m is in the plan or already in the copy. A
// responder merges only its own diffs (mergedLocked), so a step another
// processor responds for is asked alone. Caller holds e.mu.
func (e *lazyEngine) missingWantsLocked(asks []ask, pg mem.PageID, out []core.IntervalID) []ask {
	var last [maxProcs]int32
	mods := e.lastModifiersLocked(&last, out)
	// after[p] is the first step of creator p, by index, that the plan puts
	// after the first step of the open run: a clock covers any of p's steps
	// there if it covers that one.
	var after [maxProcs]int32
	for q := range e.v {
		open := false
		for _, id := range out {
			if int(id.Proc) != q {
				if open {
					after[id.Proc] = min(after[id.Proc], id.Index)
				}
				continue
			}
			if e.slotLocked(id, pg) != nil {
				open = false
				continue
			}
			to := e.responderLocked(id, &last, mods)
			if open && to == id.Proc && !coversAny(e.log.Get(id).VC, after[:len(e.v)]) {
				run := &asks[len(asks)-1].w
				run.Span = id.Index - run.Index
				continue
			}
			if len(asks) == cap(asks) {
				// A step is asked for at most once, so the page grows the
				// list at most once.
				asks = slices.Grow(asks, len(out))
			}
			asks = append(asks, ask{to: to, w: wire.Want{Page: pg, Proc: id.Proc, Index: id.Index}})
			open = to == id.Proc
			for p := range e.v {
				after[p] = math.MaxInt32
			}
		}
	}
	return asks
}

// diffReqs appends to reqs, grown once, one KDiffReq for each responder of
// asks, carrying every want asked of it — a responder serves any mix of
// pages and creators in one response — and returns them with sent, the
// list the requests' wants are appended to and point into. asks is sorted
// by responder on the way, stably: a round's wants keep their order within
// a responder's request.
func (e *lazyEngine) diffReqs(reqs []outMsg, sent []wire.Want, asks []ask) ([]outMsg, []wire.Want) {
	slices.SortStableFunc(asks, func(a, b ask) int { return cmp.Compare(a.to, b.to) })
	n := 0
	for i := range asks {
		if i == 0 || asks[i].to != asks[i-1].to {
			n++
		}
	}
	reqs = slices.Grow(reqs, n)
	sent = slices.Grow(sent, len(asks))
	for len(asks) > 0 {
		k, from := 1, len(sent)
		for k < len(asks) && asks[k].to == asks[0].to {
			k++
		}
		for _, a := range asks[:k] {
			sent = append(sent, a.w)
		}
		reqs = append(reqs, outMsg{dst: asks[0].to, m: wire.Msg{
			Kind: wire.KDiffReq, Seq: e.n.nextSeq(), A: int32(e.n.id), Wants: sent[from:len(sent):len(sent)],
		}})
		asks = asks[k:]
	}
	return reqs, sent
}

// stepsLocked appends to steps the diffs that carry out plan out, in its
// order, each on a count of its own. A held response wins over the store:
// it carries exactly what the round asked for, and a merged range in it is
// applied whole, at its first member's step — the later members' bytes
// are in the merge, and they get no step. Outstanding
// excludes this node's own intervals, so a step from the store is a
// received diff — always materialized. Caller holds e.mu.
func (e *lazyEngine) stepsLocked(steps []*page.Diff, pg mem.PageID, out []core.IntervalID, held fetchedDiffs) ([]*page.Diff, error) {
	for _, id := range out {
		d, ok := held.find(pg, id)
		if slot := e.slotLocked(id, pg); !ok && slot != nil {
			d, ok = slot.d, true
		}
		if !ok {
			return steps, fmt.Errorf("dsm: node %d: diff %v for page %d unavailable", e.n.id, id, pg)
		}
		if d != nil {
			steps = append(steps, d.Retain())
		}
	}
	return steps, nil
}

// coversAny reports whether clock v covers interval steps[p] of some
// processor p.
func coversAny(v vc.VC, steps []int32) bool {
	for p, k := range steps {
		if v.Covers(p, k) {
			return true
		}
	}
	return false
}

// fetch sends the asks planned into round r as one burst — each responder
// one KDiffReq for all the round's pages (diffReqs), where validating page
// by page asks a responder once per page — and holds the responses in
// r.held, once each is known to answer its request; if one does not,
// nothing of the burst is kept or stored and the round fails. A want a
// responder answered "not held" is asked of its creator in a second burst,
// and counts as a fallback; a creator that says so of its own diff is at
// fault (answers), so there is no third. The round applies nothing until
// every page's plan is whole.
func (e *lazyEngine) fetch(r *round) error {
	n := e.n
	r.held = r.held[:0]
	r.reqs, r.wants = e.diffReqs(r.reqs[:0], r.wants[:0], r.asks)
	for len(r.reqs) > 0 {
		resps, err := n.rpcAll(r.reqs, r.resps[:0])
		r.resps = resps
		if err != nil {
			return err
		}
		// The asks are in the requests' wants by now: their storage takes
		// the second burst's.
		again := r.asks[:0]
		for i, resp := range resps {
			if err := answers(resp, r.reqs[i].m.Wants, r.reqs[i].dst); err != nil {
				releaseAll(resps)
				bad := fmt.Errorf("bad diff response from %d: %w", r.reqs[i].dst, err)
				n.noteErr("diff fetch", bad)
				return fmt.Errorf("dsm: node %d: diff fetch: %w", n.id, bad)
			}
			for j, rec := range resp.Diffs {
				if rec.NotHeld {
					again = append(again, ask{to: rec.Proc, w: r.reqs[i].m.Wants[j]})
				}
			}
		}
		fresh := len(r.held)
		for i, resp := range resps {
			r.held = append(r.held, fetched{wants: r.reqs[i].m.Wants, resp: resp})
		}
		e.noteFetched(r.held[fresh:])
		if len(again) > 0 {
			n.stats.diffFallbacks.Add(int64(len(again)))
		}
		r.asks = again
		r.reqs, r.wants = e.diffReqs(r.reqs[:0], r.wants, again)
	}
	return nil
}

// answers checks a diff response from responder from against the wants it
// claims to answer (deliverResponse has checked its kind): the miss finds
// a record by its want's position, so a response of another shape would
// put one interval's bytes at another's step. A responder may say it does
// not hold another processor's diff, never one of its own.
func answers(resp *wire.Msg, wants []wire.Want, from mem.ProcID) error {
	if len(resp.Diffs) != len(wants) {
		return fmt.Errorf("%v with %d records for %d wants", resp.Kind, len(resp.Diffs), len(wants))
	}
	for i, w := range wants {
		r := resp.Diffs[i]
		if r.Page != w.Page || r.Proc != w.Proc || r.Index != w.Index {
			return fmt.Errorf("record %d is diff %d/%d of page %d, want %d/%d of page %d",
				i, r.Proc, r.Index, r.Page, w.Proc, w.Index, w.Page)
		}
		if r.NotHeld && r.Proc == from {
			return fmt.Errorf("record %d says its creator does not hold diff %d/%d of page %d",
				i, r.Proc, r.Index, r.Page)
		}
	}
	return nil
}

// noteFetched accounts a burst of diff responses, and enters the diffs of
// single intervals into the retained store, cloned: the node may be asked
// for them as a concurrent last modifier of the page until GC discards
// them, and under LU later lock grants piggyback them. A merged range is
// no interval's diff: it is applied out of its frame and never kept.
func (e *lazyEngine) noteFetched(held fetchedDiffs) {
	e.mu.Lock()
	for _, h := range held {
		for i, w := range h.wants {
			if h.resp.Diffs[i].NotHeld {
				continue
			}
			e.n.stats.diffsFetched.Add(1)
			if w.Span == 0 {
				e.storeDiffRecsLocked(h.resp.Diffs[i : i+1])
			}
		}
	}
	e.mu.Unlock()
}

// fault services an application's miss on page pg and brings pg's
// siblings (planFaultLocked) current with it, in one round: one KDiffReq to
// each responder for all the pages, where validating page by page asks a
// responder once per page. A cold pg gets its copy first and asks alone. A
// fault counts one access miss; its siblings count as aggregated pages.
func (e *lazyEngine) fault(pg mem.PageID) error {
	n := e.n
	var start time.Time
	if n.missHist != nil {
		start = time.Now()
	}
	n.stats.accessMisses.Add(1)
	cold, err := e.ensureCopy(pg)
	if err != nil {
		return err
	}
	r := &e.round
	e.mu.Lock()
	e.planFaultLocked(r, pg, cold)
	e.mu.Unlock()
	if err := e.bring(r); err != nil {
		return err
	}
	n.stats.pagesAggregated.Add(int64(len(r.pages) - 1))
	if n.missHist != nil {
		n.observeMiss(start, len(r.pages))
	}
	return nil
}

// planFaultLocked plans a fault on page pg into r: r.pages is pg, then its
// siblings. A sibling is a page q that
//
//   - the node holds an invalid copy of (e.stale) — never a cold one: a
//     page the node never touched is not fetched for it,
//   - and whose every want goes to a responder pg's own wants ask.
//
// So a fault adds wants to requests its page sends anyway, never a request
// or a destination, and brings every invalid page those responders can
// serve, whoever wrote it. A cold pg, whose copy has just arrived, has no
// siblings: it asks alone. The pages the fault plans leave e.stale, and
// so do copies found valid. Caller holds e.mu.
func (e *lazyEngine) planFaultLocked(r *round, pg mem.PageID, cold bool) {
	r.reset()
	if _, planned := e.planPageLocked(r, pg, anyResponder); !planned || cold {
		return
	}
	var asked uint64 // the responders pg's wants ask, by bit
	for _, a := range r.asks {
		asked |= 1 << a.to
	}
	stale := e.stale[:0]
	for _, q := range e.stale {
		if q == pg {
			continue
		}
		if invalid, planned := e.planPageLocked(r, q, asked); invalid && !planned {
			stale = append(stale, q)
		}
	}
	e.stale = stale
}

// anyResponder is the set of every responder, by bit: planPageLocked's
// only for a page planned whoever its wants ask.
const anyResponder = ^uint64(0)

// planPageLocked plans page pg into round r — its plan, the intervals its
// copy lacks in the order they are applied (sortPlanLocked), and the
// asks for the steps the store does not supply (missingWantsLocked) — if
// every ask goes to a responder in the set only, by bit, which it checks
// before it sorts the plan. It reports whether the node holds an invalid
// copy of pg to plan for — a valid one needs nothing, and a cold one has
// no clock to plan from yet (ensureCopy) — and whether it planned it.
// Caller holds e.mu.
func (e *lazyEngine) planPageLocked(r *round, pg mem.PageID, only uint64) (invalid, planned bool) {
	var clockBuf [maxProcs]int32
	pmu := e.n.pageLock(pg)
	pmu.Lock()
	pc := e.pages[pg]
	if pc == nil || pc.valid {
		pmu.Unlock()
		return false, false
	}
	applied := append(vc.VC(clockBuf[:0]), pc.applied...)
	pmu.Unlock()
	from := len(r.plan)
	r.plan = e.log.Outstanding(r.plan, pg, applied, e.v, e.n.id)
	out := r.plan[from:]
	if only != anyResponder && e.respondersLocked(pg, out)&^only != 0 {
		r.plan = r.plan[:from]
		return true, false
	}
	e.sortPlanLocked(out)
	r.asks = e.missingWantsLocked(r.asks, pg, out)
	r.pages = append(r.pages, pg)
	r.ends = append(r.ends, len(r.plan))
	return true, true
}

// revalidate brings a list of pages the node holds copies of current
// (LU's acquire/barrier-time update step and the GC epoch's bulk
// validation) in one round: every page is planned into the engine's round
// scratch, and the round asks each responder once for all of them.
// Neither counts as an access miss: no application access faulted.
func (e *lazyEngine) revalidate(pages []mem.PageID) error {
	r := &e.round
	r.reset()
	e.mu.Lock()
	for _, pg := range pages {
		e.planPageLocked(r, pg, anyResponder)
	}
	e.mu.Unlock()
	return e.bring(r)
}

// bring carries out the plans of round r: it fetches what they ask for
// (fetch), applies each page's and releases the responses.
func (e *lazyEngine) bring(r *round) error {
	err := e.fetch(r)
	for i := 0; err == nil && i < len(r.pages); i++ {
		err = e.apply(r, i)
	}
	r.held.release()
	return err
}

// round is the storage a round plans into — the pages it brings current,
// their plans end to end and where each ends, the asks, the wants its
// requests carry, the requests, the responses it holds and the steps of
// the page it applies — and keeps for the next round: the engine's one
// (lazyEngine.round), since only the application goroutine runs rounds,
// one at a time.
type round struct {
	pages []mem.PageID
	ends  []int // pages[i]'s plan ends at plan[ends[i]]
	plan  []core.IntervalID
	asks  []ask
	wants []wire.Want
	reqs  []outMsg
	resps []*wire.Msg
	held  fetchedDiffs
	steps []*page.Diff
}

// reset empties r for a round's plans.
func (r *round) reset() {
	r.pages, r.ends, r.plan, r.asks = r.pages[:0], r.ends[:0], r.plan[:0], r.asks[:0]
}

// planOf returns page i's plan.
func (r *round) planOf(i int) []core.IntervalID {
	from := 0
	if i > 0 {
		from = r.ends[i-1]
	}
	return r.plan[from:r.ends[i]]
}
