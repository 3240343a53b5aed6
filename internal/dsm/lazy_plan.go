package dsm

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/page"
	"repro/internal/vc"
	"repro/internal/wire"
)

// ledger is a lazy node's interval machinery — its vector clock, interval
// log and retained-diff store — and the planner, which plans a round's
// pages from them (§4.3.2). lazyEngine embeds it, and e.mu guards all of
// it; no ledger method takes another lock or touches a page copy, so the
// planner runs, and is tested, on a ledger alone.
type ledger struct {
	self  mem.ProcID
	v     vc.VC
	log   *core.Log
	store slotStore   // the retained-diff store
	keyed []keyedStep // sortPlanLocked's keyed steps
}

func newLedger(self mem.ProcID, procs int) ledger {
	return ledger{self: self, v: vc.New(procs), log: core.NewLog(procs), store: newSlotStore(procs)}
}

// validProc reports whether p, which may come off the wire, is one of the
// cluster's processors.
func (l *ledger) validProc(p mem.ProcID) bool { return p >= 0 && int(p) < len(l.v) }

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

// ask is a want and the processor a round asks it of: the creator of a
// concurrent last modifier of the want's page (missingWantsLocked).
type ask struct {
	to mem.ProcID
	w  wire.Want
}

// anyResponder is the set of every responder, by bit: plan's only for a
// page planned whoever its wants ask.
const anyResponder = ^uint64(0)

// plan plans page pg, whose copy reflects the applied clock, into round r —
// its plan, the intervals the copy lacks in the order they are applied
// (sortPlanLocked), and the asks for the steps the store does not supply
// (missingWantsLocked) — if every ask goes to a responder in the set only,
// by bit, and reports whether it did. A page it refuses leaves r as it was.
// Caller holds e.mu.
func (l *ledger) plan(r *round, pg mem.PageID, applied vc.VC, only uint64) bool {
	from, asked := len(r.plan), len(r.asks)
	r.plan = l.log.Outstanding(r.plan, pg, applied, l.v, l.self)
	out := r.plan[from:]
	l.sortPlanLocked(out)
	r.asks = l.missingWantsLocked(r.asks, pg, out)
	for _, a := range r.asks[asked:] {
		if only&(1<<a.to) == 0 {
			r.plan, r.asks = r.plan[:from], r.asks[:asked]
			return false
		}
	}
	r.pages = append(r.pages, pg)
	r.ends = append(r.ends, len(r.plan))
	return true
}

// sortPlanLocked puts a plan's steps in the order they are applied: a
// linear extension of happened-before — interval clock sums strictly
// increase along hb1 chains, and concurrent intervals touch disjoint words
// in properly-labeled programs — by clock sum, then processor and index.
// Each step's sum is taken once, into the ledger's scratch. Caller holds
// e.mu.
func (l *ledger) sortPlanLocked(out []core.IntervalID) {
	if len(out) < 2 {
		return
	}
	keyed := slices.Grow(l.keyed[:0], len(out))
	for _, id := range out {
		var sum int64
		for _, k := range l.log.Get(id).VC {
			sum += int64(k)
		}
		keyed = append(keyed, keyedStep{sum: sum, id: id})
	}
	slices.SortFunc(keyed, func(a, b keyedStep) int {
		return cmp.Or(cmp.Compare(a.sum, b.sum), cmp.Compare(a.id.Proc, b.id.Proc), cmp.Compare(a.id.Index, b.id.Index))
	})
	for i := range keyed {
		out[i] = keyed[i].id
	}
	l.keyed = keyed[:0]
}

// keyedStep is a plan step and its interval's clock sum, its sort key.
type keyedStep struct {
	sum int64
	id  core.IntervalID
}

// lastModifiersLocked returns the concurrent last modifiers of plan out,
// by bit of their creators, and fills last with each creator's latest
// interval in out: the paper's responders (§4.3.2), core.Log.Maximal's
// rule — a creator's latest interval, unless another creator's latest
// interval covers it. Caller holds e.mu.
func (l *ledger) lastModifiersLocked(last *[maxProcs]int32, out []core.IntervalID) uint64 {
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
			if l.log.Get(core.IntervalID{Proc: mem.ProcID(q), Index: last[q]}).VC.Covers(p, last[p]) {
				mods &^= 1 << p
				break
			}
		}
	}
	return mods
}

// responderLocked returns the processor a round asks for interval id's
// diff, given its plan's concurrent last modifiers (lastModifiersLocked's
// mods and last): the first, by processor, whose clock covers id. It
// applied id's diff before it wrote the page, and keeps it until GC — or
// says it does not (fetch). Every interval of a plan is covered by one of
// them. Caller holds e.mu.
func (l *ledger) responderLocked(id core.IntervalID, last *[maxProcs]int32, mods uint64) mem.ProcID {
	for ms := mods; ms != 0; ms &= ms - 1 {
		p := bits.TrailingZeros64(ms)
		if l.log.Get(core.IntervalID{Proc: mem.ProcID(p), Index: last[p]}).VC.Covers(int(id.Proc), id.Index) {
			return mem.ProcID(p)
		}
	}
	return id.Proc
}

// missingWantsLocked appends to asks the wants for the steps of plan out
// (plan's, for page pg) that the retained store does not supply, each with
// its responder (responderLocked), grouped by creator, creators ascending.
// A creator's consecutive missing steps that it is the responder of are
// asked for as one range want, answered by one merged diff that is applied
// at the first one's step — so a step m joins the run its creator has open
// only if that moves m's bytes past nothing they may share a word with:
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
func (l *ledger) missingWantsLocked(asks []ask, pg mem.PageID, out []core.IntervalID) []ask {
	var last [maxProcs]int32
	mods := l.lastModifiersLocked(&last, out)
	// after[p] is the first step of creator p, by index, that the plan puts
	// after the first step of the open run: a clock covers any of p's steps
	// there if it covers that one.
	var after [maxProcs]int32
	for q := range l.v {
		open := false
		for _, id := range out {
			if int(id.Proc) != q {
				if open {
					after[id.Proc] = min(after[id.Proc], id.Index)
				}
				continue
			}
			if l.slotLocked(id, pg) != nil {
				open = false
				continue
			}
			to := l.responderLocked(id, &last, mods)
			if open && to == id.Proc && !coversAny(l.log.Get(id).VC, after[:len(l.v)]) {
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
			for p := range l.v {
				after[p] = math.MaxInt32
			}
		}
	}
	return asks
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

// stepsLocked appends to steps the diffs that carry out plan out, in its
// order, each on a count of its own. A held response wins over the store:
// it carries exactly what the round asked for, and a merged range in it is
// applied whole, at its first member's step — the later members' bytes
// are in the merge, and they get no step. Outstanding excludes this node's
// own intervals, so a step from the store is a received diff, read into a
// lease of its own. Caller holds e.mu.
func (l *ledger) stepsLocked(steps []*page.Diff, pg mem.PageID, out []core.IntervalID, held fetchedDiffs) ([]*page.Diff, error) {
	for _, id := range out {
		d, ok := held.find(pg, id)
		switch slot := l.slotLocked(id, pg); {
		case ok:
			d = d.Retain()
		case slot != nil:
			var err error
			if d, err = slot.diff(); err != nil {
				return steps, fmt.Errorf("dsm: node %d: diff %v for page %d: %w", l.self, id, pg, err)
			}
		default:
			return steps, fmt.Errorf("dsm: node %d: diff %v for page %d unavailable", l.self, id, pg)
		}
		if d != nil {
			steps = append(steps, d)
		}
	}
	return steps, nil
}
