package dsm

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/mem"
	"repro/internal/vc"
	"repro/internal/wire"
)

// releaseAll drops its caller's count on each message or diff of a list.
func releaseAll[T interface{ Release() }](held []T) {
	for _, x := range held {
		x.Release()
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
	cp := &lazyPage{applied: vc.New(n.sys.cfg.Procs)}
	if zero {
		cp.data = make([]byte, n.sys.layout.PageSize())
	} else {
		resp, err := n.rpc(from, &wire.Msg{
			Kind: wire.KPageReq, Seq: n.nextSeq(), A: int32(pg), B: int32(n.id),
		})
		if err != nil {
			return true, err
		}
		// The sender chose the expanded length: nothing but this check keeps
		// a faulty home's short page out of the page table, where the next
		// access would slice past its end. No home sends interval records
		// with a page.
		if len(resp.Data) != n.sys.layout.PageSize() ||
			(resp.VC != nil && len(resp.VC) != n.sys.cfg.Procs) || len(resp.Intervals) > 0 {
			bad := fmt.Errorf("bad page grant from %d: %v for page %d, %d data bytes, %d-entry clock, %d interval records",
				from, resp.Kind, pg, len(resp.Data), len(resp.VC), len(resp.Intervals))
			resp.Release()
			n.noteErr("page install", bad)
			return true, fmt.Errorf("dsm: node %d: page install: %w", n.id, bad)
		}
		// The decoded page is the copy's from here on (Data outlives its
		// message); the clock is the message's, so the copy keeps a copy
		// (none: nothing applied).
		cp.data = resp.Data
		copy(cp.applied, resp.VC)
		resp.Release()
		n.stats.pagesFetched.Add(1)
	}
	pmu.Lock()
	e.pages[pg] = cp
	if home == n.id {
		e.setKeeperLocked(pg, -1) // the home's copy is validated from here on
	}
	pmu.Unlock()
	return true, nil
}

// unwrittenLocked reports whether the node knows page pg to be the zero
// page: no GC epoch has swept its log, so the log holds every interval the
// node knows of, and none of them wrote pg. (The node's own never did: it
// holds no copy.) Caller holds e.mu.
func (l *ledger) unwrittenLocked(pg mem.PageID) bool {
	for q := range l.v {
		if l.log.Floor(mem.ProcID(q)) >= 0 {
			return false
		}
	}
	return !l.writtenLocked(pg, l.self)
}

// writtenLocked reports whether the log names an interval of a processor
// other than except (none when it is -1) that wrote page pg. Caller holds
// e.mu.
func (l *ledger) writtenLocked(pg mem.PageID, except mem.ProcID) bool {
	var clockBuf [maxProcs]int32
	none := clockBuf[:len(l.v)]
	for p := range none {
		none[p] = -1
	}
	return l.log.HasOutstanding(pg, none, l.v, except)
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
	defer releaseAll(steps)
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

// diffReqs appends to reqs, grown once, one KDiffReq for each responder of
// asks, carrying every want asked of it — a responder serves any mix of
// pages and creators in one response — and returns them with sent, the
// list the requests' wants are appended to and point into. asks is sorted
// by responder on the way, stably: a round's wants keep their order within
// a responder's request.
func (n *Node) diffReqs(reqs []outMsg, sent []wire.Want, asks []ask) ([]outMsg, []wire.Want) {
	slices.SortStableFunc(asks, func(a, b ask) int { return cmp.Compare(a.to, b.to) })
	dsts := 0
	for i := range asks {
		if i == 0 || asks[i].to != asks[i-1].to {
			dsts++
		}
	}
	reqs = slices.Grow(reqs, dsts)
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
			Kind: wire.KDiffReq, Seq: n.nextSeq(), A: int32(n.id), Wants: sent[from:len(sent):len(sent)],
		}})
		asks = asks[k:]
	}
	return reqs, sent
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
	r.held, r.wants = r.held[:0], r.wants[:0]
	for len(r.asks) > 0 {
		r.reqs, r.wants = n.diffReqs(r.reqs[:0], r.wants, r.asks)
		resps, err := n.rpcAll(r.reqs, r.resps[:0])
		r.resps = resps
		if err != nil {
			return err
		}
		for i, resp := range resps {
			if err := answers(resp, r.reqs[i].m.Wants, r.reqs[i].dst); err != nil {
				releaseAll(resps)
				bad := fmt.Errorf("bad diff response from %d: %w", r.reqs[i].dst, err)
				n.noteErr("diff fetch", bad)
				return fmt.Errorf("dsm: node %d: diff fetch: %w", n.id, bad)
			}
		}
		// The round holds the burst, and enters the diffs of single
		// intervals into the retained store, cloned: the node may be asked
		// for them as a concurrent last modifier of the page until GC
		// discards them, and under LU later lock grants piggyback them. A
		// merged range is no interval's diff: it is applied out of its frame
		// and never kept. The asks are in the requests' wants by now: their
		// storage takes the second burst's.
		again := r.asks[:0]
		e.mu.Lock()
		for i, resp := range resps {
			wants := r.reqs[i].m.Wants
			r.held = append(r.held, fetched{wants: wants, resp: resp})
			for j, rec := range resp.Diffs {
				if rec.NotHeld {
					again = append(again, ask{to: rec.Proc, w: wants[j]})
					continue
				}
				n.stats.diffsFetched.Add(1)
				if wants[j].Span == 0 {
					e.storeDiffRecsLocked(resp.Diffs[j : j+1])
				}
			}
		}
		e.mu.Unlock()
		if len(again) > 0 {
			n.stats.diffFallbacks.Add(int64(len(again)))
		}
		r.asks = again
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

// planPageLocked plans page pg into round r from its copy's applied clock
// (ledger.plan), if every ask goes to a responder in the set only. It
// reports whether the node holds an invalid copy of pg to plan for — a
// valid one needs nothing, and a cold one has no clock to plan from yet
// (ensureCopy) — and whether it planned it. Caller holds e.mu.
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
	return true, e.plan(r, pg, applied, only)
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
	for _, h := range r.held {
		h.resp.Release()
	}
	return err
}
