package core

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/mem"
	"repro/internal/page"
	"repro/internal/proto"
	"repro/internal/vc"
)

// Flavor selects between the two lazy data-movement policies of §4.3.2.
type Flavor int

const (
	// Invalidate: write notices invalidate cached pages at acquire time;
	// diffs are fetched on the subsequent access miss (protocol LI).
	Invalidate Flavor = iota
	// Update: diffs for all cached pages are collected at acquire time,
	// piggybacked from the releaser and fetched from other concurrent
	// last modifiers (protocol LU).
	Update
)

// String returns the protocol's short name for the flavor.
func (f Flavor) String() string {
	if f == Update {
		return "LU"
	}
	return "LI"
}

type pstatus uint8

const (
	psNoCopy  pstatus = iota // never materialized locally
	psValid                  // current copy present
	psInvalid                // stale copy retained (diff target, §4.3.3)
)

// procState is one processor's view in the lazy engine.
type procState struct {
	v vc.VC
	// snap is a copy of v as some page's applied clock last took it. It
	// is shared, like every applied clock, and so never written.
	snap vc.VC
	// cur lists the current interval's modifications in first-write
	// order; curAt[pg] is 1 + pg's position in it, 0 if it has none.
	cur     []curMods
	curAt   []int32
	status  []pstatus
	applied []vc.VC // per page; nil means the zero clock (nothing applied)
}

// curMods is what the current interval modified on one page.
type curMods struct {
	pg   mem.PageID
	mods *page.RangeSet
}

// slabLen is how many range sets, or range-set pointers, the engine
// allocates at once for the interval records the log keeps; setRuns is
// how many runs each of those range sets has room for before it grows.
const (
	slabLen = 1 << 10
	setRuns = 1
)

// Engine is the trace-driven simulation engine for the lazy protocols LI
// and LU. It maintains full protocol state — interval log, per-processor
// vector clocks, page states and applied-clocks — and charges every
// message a real implementation would send, under the size model of
// package proto.
type Engine struct {
	layout  *mem.Layout
	n       int
	flavor  Flavor
	opts    proto.Options
	stats   proto.Stats
	log     *Log
	procs   []procState
	locks   map[mem.LockID]mem.ProcID // last releaser; absent = never held
	zero    vc.VC
	copyset []uint64 // per page: bitmask of processors with a Valid copy

	// Scratch reused across events: the pages an interval, a grant or a
	// barrier episode names, a page's outstanding intervals, and their
	// responders and coalesced ranges.
	pages []mem.PageID
	out   []IntervalID
	plan  assignScratch
	union page.RangeSet
	// Slabs the log's interval records take their range sets and
	// range-set lists from: the log keeps both, the simulator's never
	// sweeps.
	sets    []page.RangeSet
	setPtrs []*page.RangeSet
}

// NewEngine constructs a lazy engine for n processors over the given
// layout. n must be at most 64 (copysets are bitmasks).
func NewEngine(layout *mem.Layout, n int, flavor Flavor, opts proto.Options) *Engine {
	if n <= 0 || n > 64 {
		panic(fmt.Sprintf("core: processor count %d outside [1,64]", n))
	}
	e := &Engine{
		layout:  layout,
		n:       n,
		flavor:  flavor,
		opts:    opts,
		log:     NewLog(n),
		procs:   make([]procState, n),
		locks:   make(map[mem.LockID]mem.ProcID),
		zero:    vc.New(n),
		copyset: make([]uint64, layout.NumPages()),
	}
	e.stats.Protocol = flavor.String()
	for i := range e.procs {
		e.procs[i] = procState{
			v:       vc.New(n),
			curAt:   make([]int32, layout.NumPages()),
			status:  make([]pstatus, layout.NumPages()),
			applied: make([]vc.VC, layout.NumPages()),
		}
	}
	return e
}

// Name implements proto.Protocol.
func (e *Engine) Name() string { return e.flavor.String() }

// Stats implements proto.Protocol.
func (e *Engine) Stats() *proto.Stats { return &e.stats }

// Log exposes the interval log for tests and diagnostics.
func (e *Engine) Log() *Log { return e.log }

// Clock returns a copy of processor p's current vector clock.
func (e *Engine) Clock(p mem.ProcID) vc.VC { return e.procs[p].v.Clone() }

// PageStatus reports whether processor p currently holds a valid copy of
// the page containing addr (for tests).
func (e *Engine) PageStatus(p mem.ProcID, addr mem.Addr) (valid, present bool) {
	st := e.procs[p].status[e.layout.PageOf(addr)]
	return st == psValid, st != psNoCopy
}

func (e *Engine) appliedOf(ps *procState, pg mem.PageID) vc.VC {
	if a := ps.applied[pg]; a != nil {
		return a
	}
	return e.zero
}

// snapshot returns an applied clock equal to ps.v: the one it handed out
// last if ps.v has not moved since, else a new copy.
func (e *Engine) snapshot(ps *procState) vc.VC {
	if !slices.Equal(ps.snap, ps.v) {
		ps.snap = ps.v.Clone()
	}
	return ps.snap
}

// newRangeSet returns an empty range set from the engine's slab.
func (e *Engine) newRangeSet() *page.RangeSet {
	if len(e.sets) == 0 {
		e.sets = make([]page.RangeSet, slabLen)
		runs := make([]page.Run, slabLen*setRuns)
		for i := range e.sets {
			e.sets[i] = page.RangeSetIn(runs[i*setRuns : i*setRuns : (i+1)*setRuns])
		}
	}
	s := &e.sets[0]
	e.sets = e.sets[1:]
	return s
}

// newSetList returns a list of k range-set pointers from the engine's
// slab, capped at k.
func (e *Engine) newSetList(k int) []*page.RangeSet {
	if k > slabLen {
		return make([]*page.RangeSet, k)
	}
	if len(e.setPtrs) < k {
		e.setPtrs = make([]*page.RangeSet, slabLen)
	}
	l := e.setPtrs[:k:k]
	e.setPtrs = e.setPtrs[k:]
	return l
}

// Read implements proto.Protocol.
func (e *Engine) Read(p mem.ProcID, addr mem.Addr, size int) {
	e.stats.Reads++
	if size <= 0 {
		return
	}
	ps := &e.procs[p]
	last := e.layout.PageOf(addr + mem.Addr(size) - 1)
	for pg := e.layout.PageOf(addr); pg <= last; pg++ {
		if ps.status[pg] != psValid {
			e.miss(p, ps, pg)
		}
	}
}

// Write implements proto.Protocol.
func (e *Engine) Write(p mem.ProcID, addr mem.Addr, size int) {
	e.stats.Writes++
	ps := &e.procs[p]
	e.layout.SplitRange(addr, size, func(pg mem.PageID, off, n int) {
		if ps.status[pg] != psValid {
			e.miss(p, ps, pg)
		}
		if e.opts.ExclusiveWriter {
			e.evictOtherCopies(p, pg)
		}
		at := ps.curAt[pg]
		if at == 0 {
			ps.cur = append(ps.cur, curMods{pg: pg, mods: e.newRangeSet()})
			at = int32(len(ps.cur))
			ps.curAt[pg] = at
		}
		ps.cur[at-1].mods.Add(off, n)
	})
}

// evictOtherCopies implements the exclusive-writer ablation: before p may
// write pg, every other valid copy is invalidated with a message + ack.
func (e *Engine) evictOtherCopies(p mem.ProcID, pg mem.PageID) {
	others := e.copyset[pg] &^ (1 << uint(p))
	for q := 0; others != 0; q++ {
		bit := uint64(1) << uint(q)
		if others&bit == 0 {
			continue
		}
		others &^= bit
		e.stats.Msg(proto.CatMiss, proto.MsgHeaderBytes+proto.InvalBytes)
		e.stats.Msg(proto.CatMiss, proto.MsgHeaderBytes+proto.AckBytes)
		e.stats.InvalidationsSent++
		e.procs[q].status[pg] = psInvalid
		e.copyset[pg] &^= bit
	}
}

// miss services an access miss by processor p on page pg: diffs are
// collected from the concurrent last modifiers (§4.3.3); a page with no
// outstanding modifications is fetched whole from its manager (cold
// start). On return the page is valid and current with respect to p's
// clock.
func (e *Engine) miss(p mem.ProcID, ps *procState, pg mem.PageID) {
	e.stats.AccessMisses++
	cold := ps.status[pg] == psNoCopy
	if cold {
		e.stats.ColdMisses++
	}
	out := e.log.Outstanding(e.out[:0], pg, e.appliedOf(ps, pg), ps.v, p)
	e.out = out
	if len(out) == 0 {
		// No modifications to collect. A retained invalid copy can simply
		// be revalidated; a cold page is fetched whole from its manager
		// (the paper's §4.3.3 "a copy of the page may have to be
		// retrieved").
		if cold {
			mgr := mem.ProcID(int(pg) % e.n)
			if mgr != p {
				e.stats.Msg(proto.CatMiss, proto.MsgHeaderBytes+proto.PageReqBytes)
				e.stats.Msg(proto.CatMiss, proto.MsgHeaderBytes+e.layout.PageSize())
				e.stats.PagesSent++
				e.stats.PageBytes += int64(e.layout.PageSize())
			}
		}
	} else {
		for _, a := range e.log.assign(&e.plan, out) {
			e.stats.Msg(proto.CatMiss, proto.MsgHeaderBytes+proto.DiffReqBytes+proto.VCBytes(e.n))
			var respBytes int
			if e.opts.NoDiffs {
				respBytes = e.layout.PageSize()
				e.stats.PagesSent++
				e.stats.PageBytes += int64(e.layout.PageSize())
			} else {
				respBytes = e.log.coalescedDiffBytes(&e.union, pg, a.Intervals)
				e.stats.DiffsSent += int64(len(a.Intervals))
				e.stats.DiffBytes += int64(respBytes)
			}
			e.stats.Msg(proto.CatMiss, proto.MsgHeaderBytes+respBytes)
			if len(a.Intervals) > 1 {
				e.stats.DiffRequestsBatched++
			}
		}
	}
	ps.status[pg] = psValid
	ps.applied[pg] = e.snapshot(ps)
	e.copyset[pg] |= 1 << uint(p)
}

// closeInterval ends processor p's current interval if it modified
// anything, appending the interval record (and so its write notices) to
// the log. Intervals with no modifications are skipped: they contribute no
// notices, and skipping them keeps vector clocks dense (a standard LRC
// implementation optimization).
func (e *Engine) closeInterval(p mem.ProcID) {
	ps := &e.procs[p]
	if len(ps.cur) == 0 {
		return
	}
	slices.SortFunc(ps.cur, func(a, b curMods) int { return cmp.Compare(a.pg, b.pg) })
	pages := e.pages[:0]
	mods := e.newSetList(len(ps.cur))
	for i, c := range ps.cur {
		pages = append(pages, c.pg)
		mods[i] = c.mods
		ps.curAt[c.pg] = 0
	}
	ps.cur = ps.cur[:0]
	idx := ps.v.Tick(int(p))
	e.log.Append(Interval{ID: IntervalID{Proc: p, Index: idx}, VC: ps.v, Pages: pages, Mods: mods})
	e.pages = pages
	e.stats.IntervalsCreated++
}

// Acquire implements proto.Protocol: the lock is located through its
// manager and transferred from the last releaser, with write notices (and
// for LU, the releaser's diffs) piggybacked on the grant (§4.2, Figure 4).
func (e *Engine) Acquire(p mem.ProcID, l mem.LockID) {
	e.stats.Acquires++
	e.closeInterval(p)
	ps := &e.procs[p]
	q, held := e.locks[l]
	if held && q == p {
		return // lock cached locally: reacquisition is free
	}
	mgr := mem.ProcID(int(l) % e.n)
	reqBytes := proto.MsgHeaderBytes + proto.LockReqBytes + proto.VCBytes(e.n)
	if !held {
		// First acquisition: the manager grants directly; no notices.
		if mgr != p {
			e.stats.Msg(proto.CatLock, reqBytes)
			e.stats.Msg(proto.CatLock, proto.MsgHeaderBytes+proto.LockGrantBytes)
		}
		return
	}
	// Request to manager, forward to holder, grant to requester. Hops
	// collapse when the manager is the requester or the holder.
	if mgr != p {
		e.stats.Msg(proto.CatLock, reqBytes)
	}
	if mgr != q {
		e.stats.Msg(proto.CatLock, reqBytes)
	}
	qs := &e.procs[q]
	// Write notices the acquirer lacks, piggybacked on the grant.
	newPages := e.pages[:0]
	intervals, notices := e.log.NoticesBetween(ps.v, qs.v, func(iv Interval) {
		newPages = append(newPages, iv.Pages...)
	})
	slices.Sort(newPages)
	newPages = slices.Compact(newPages)
	e.pages = newPages
	e.stats.WriteNoticesSent += int64(notices)
	grantBytes := proto.MsgHeaderBytes + proto.LockGrantBytes + proto.VCBytes(e.n)
	noticeBytes := proto.NoticesBytes(notices, intervals)
	if e.opts.NoPiggyback && notices > 0 {
		// Ablation: notices travel in their own message + ack.
		e.stats.Msg(proto.CatLock, proto.MsgHeaderBytes+noticeBytes)
		e.stats.Msg(proto.CatLock, proto.MsgHeaderBytes+proto.AckBytes)
	} else {
		grantBytes += noticeBytes
	}
	ps.v.Max(qs.v)

	switch e.flavor {
	case Invalidate:
		for _, pg := range newPages {
			if ps.status[pg] == psValid && e.log.HasOutstanding(pg, e.appliedOf(ps, pg), ps.v, p) {
				ps.status[pg] = psInvalid
				e.copyset[pg] &^= 1 << uint(p)
			}
		}
		e.stats.Msg(proto.CatLock, grantBytes)
	case Update:
		grantBytes += e.updateAtAcquire(p, ps, q, newPages)
		e.stats.Msg(proto.CatLock, grantBytes)
	}
}

// updateAtAcquire brings every locally cached page with outstanding
// modifications up to date (LU, §4.3.2): diffs from the releaser ride the
// grant message; each *other* concurrent last modifier costs one
// request/response pair (the 2h term of Table 1). It returns the extra
// bytes piggybacked on the grant.
func (e *Engine) updateAtAcquire(p mem.ProcID, ps *procState, releaser mem.ProcID, newPages []mem.PageID) int {
	// Total the diffs for all cached pages needing updates by responder,
	// so each responder is contacted once (batched across pages).
	var (
		respBytes, respDiffs [64]int
		responders           uint64 // bitmask of the responders with a total
	)
	charge := func(r mem.ProcID, pg mem.PageID, ids []IntervalID) {
		if e.opts.NoDiffs {
			respBytes[r] += e.layout.PageSize()
			e.stats.PagesSent++
			e.stats.PageBytes += int64(e.layout.PageSize())
		} else {
			b := e.log.coalescedDiffBytes(&e.union, pg, ids)
			respBytes[r] += b
			e.stats.DiffBytes += int64(b)
		}
		respDiffs[r] += len(ids)
		responders |= 1 << uint(r)
	}
	updated := false
	for _, pg := range newPages {
		if ps.status[pg] != psValid {
			continue
		}
		out := e.log.Outstanding(e.out[:0], pg, e.appliedOf(ps, pg), ps.v, p)
		e.out = out
		if len(out) == 0 {
			continue
		}
		// Every outstanding interval here became known through this very
		// grant (LU keeps valid pages current at each synchronization
		// point), so the releaser's clock covers all of them. If the
		// releaser caches the page it has applied — and retains — those
		// diffs and supplies them itself on the grant message; only pages
		// the releaser does not cache need other concurrent last
		// modifiers contacted (the "other" in Table 1's h).
		if e.procs[releaser].status[pg] != psNoCopy {
			charge(releaser, pg, out)
		} else {
			for _, a := range e.log.assign(&e.plan, out) {
				charge(a.Responder, pg, a.Intervals)
			}
		}
		ps.applied[pg] = nil // set below once the snap exists
		updated = true
	}
	if updated {
		snap := e.snapshot(ps)
		for _, pg := range newPages {
			if ps.status[pg] == psValid && ps.applied[pg] == nil {
				ps.applied[pg] = snap
			}
		}
	}
	piggy := 0
	for ; responders != 0; responders &= responders - 1 {
		r := bits.TrailingZeros64(responders)
		bytes := respBytes[r]
		e.stats.DiffsSent += int64(respDiffs[r])
		if mem.ProcID(r) == releaser {
			piggy += bytes // rides the grant message
			continue
		}
		e.stats.Msg(proto.CatLock, proto.MsgHeaderBytes+proto.DiffReqBytes+proto.VCBytes(e.n))
		e.stats.Msg(proto.CatLock, proto.MsgHeaderBytes+bytes)
	}
	return piggy
}

// Release implements proto.Protocol. Releases are purely local in LRC
// (§4.2): the interval closes and the lock records its last releaser.
func (e *Engine) Release(p mem.ProcID, l mem.LockID) {
	e.stats.Releases++
	e.closeInterval(p)
	e.locks[l] = p
}

// Barrier implements proto.Protocol: a centralized master (processor 0)
// collects arrival messages carrying clocks and notices, merges, and
// redistributes on the exit messages — 2(n-1) messages, with notices
// piggybacked (LI) and update traffic after the episode (LU, the 2u term).
func (e *Engine) Barrier(arrivals []mem.ProcID, b mem.BarrierID) {
	e.stats.Barriers++
	const master = mem.ProcID(0)
	for _, p := range arrivals {
		e.closeInterval(p)
	}
	sentV := make([]vc.VC, e.n)
	for _, p := range arrivals {
		sentV[p] = e.procs[p].v.Clone()
	}
	mergedV := sentV[master].Clone()
	// Arrival messages, in arrival order.
	for _, p := range arrivals {
		if p == master {
			continue
		}
		intervals, notices := e.log.NoticesBetween(mergedV, sentV[p], nil)
		e.stats.WriteNoticesSent += int64(notices)
		bytes := proto.MsgHeaderBytes + proto.BarrierBytes + proto.VCBytes(e.n)
		nb := proto.NoticesBytes(notices, intervals)
		if e.opts.NoPiggyback && notices > 0 {
			e.stats.Msg(proto.CatBarrier, proto.MsgHeaderBytes+nb)
			e.stats.Msg(proto.CatBarrier, proto.MsgHeaderBytes+proto.AckBytes)
		} else {
			bytes += nb
		}
		e.stats.Msg(proto.CatBarrier, bytes)
		mergedV.Max(sentV[p])
	}
	// Exit messages carrying what each processor lacks.
	for _, p := range arrivals {
		if p == master {
			continue
		}
		intervals, notices := e.log.NoticesBetween(sentV[p], mergedV, nil)
		e.stats.WriteNoticesSent += int64(notices)
		bytes := proto.MsgHeaderBytes + proto.BarrierBytes + proto.VCBytes(e.n)
		nb := proto.NoticesBytes(notices, intervals)
		if e.opts.NoPiggyback && notices > 0 {
			e.stats.Msg(proto.CatBarrier, proto.MsgHeaderBytes+nb)
			e.stats.Msg(proto.CatBarrier, proto.MsgHeaderBytes+proto.AckBytes)
		} else {
			bytes += nb
		}
		e.stats.Msg(proto.CatBarrier, bytes)
	}
	for _, p := range arrivals {
		e.procs[p].v.Max(mergedV)
	}
	// Pages whose modifications someone may lack: every page noticed in an
	// interval new to at least one processor this episode.
	minSent := sentV[0].Clone()
	for _, v := range sentV[1:] {
		for i := range minSent {
			if v[i] < minSent[i] {
				minSent[i] = v[i]
			}
		}
	}
	pages := e.pages[:0]
	e.log.NoticesBetween(minSent, mergedV, func(iv Interval) {
		pages = append(pages, iv.Pages...)
	})
	slices.Sort(pages)
	pages = slices.Compact(pages)
	e.pages = pages

	switch e.flavor {
	case Invalidate:
		for _, pg := range pages {
			for q := 0; q < e.n; q++ {
				qp := &e.procs[q]
				if qp.status[pg] == psValid && e.log.HasOutstanding(pg, e.appliedOf(qp, pg), qp.v, mem.ProcID(q)) {
					qp.status[pg] = psInvalid
					e.copyset[pg] &^= 1 << uint(q)
				}
			}
		}
	case Update:
		e.updateAtBarrier(pages, mergedV)
	}
}

// updateAtBarrier implements LU's post-episode update pushes: each
// modifier pushes its unapplied diffs to every other processor caching a
// page it modified (the 2u term of Table 1), with all pushes from one
// modifier to one destination merged into a single message pair (Munin's
// per-destination merge, §1).
func (e *Engine) updateAtBarrier(pages []mem.PageID, mergedV vc.VC) {
	payload := make([][]int, e.n) // [creator][destination] merged bytes
	sent := make([][]bool, e.n)
	for i := range payload {
		payload[i] = make([]int, e.n)
		sent[i] = make([]bool, e.n)
	}
	snap := mergedV.Clone()
	for _, pg := range pages {
		for q := 0; q < e.n; q++ {
			qp := &e.procs[q]
			if qp.status[pg] != psValid {
				continue
			}
			out := e.log.Outstanding(e.out[:0], pg, e.appliedOf(qp, pg), qp.v, mem.ProcID(q))
			e.out = out
			if len(out) == 0 {
				continue
			}
			// Each modifier pushes its own episode diffs for this page:
			// out's run of its intervals (Outstanding groups them by
			// creator).
			for len(out) > 0 {
				c := out[0].Proc
				k := 1
				for k < len(out) && out[k].Proc == c {
					k++
				}
				ids := out[:k]
				out = out[k:]
				sent[c][q] = true
				if e.opts.NoDiffs {
					payload[c][q] += e.layout.PageSize()
					e.stats.PagesSent++
					e.stats.PageBytes += int64(e.layout.PageSize())
				} else {
					b := e.log.coalescedDiffBytes(&e.union, pg, ids)
					payload[c][q] += b
					e.stats.DiffBytes += int64(b)
				}
				e.stats.DiffsSent += int64(len(ids))
			}
			qp.applied[pg] = snap
		}
	}
	for c := 0; c < e.n; c++ {
		for q := 0; q < e.n; q++ {
			if !sent[c][q] {
				continue
			}
			e.stats.Msg(proto.CatBarrier, proto.MsgHeaderBytes+payload[c][q])
			e.stats.Msg(proto.CatBarrier, proto.MsgHeaderBytes+proto.AckBytes)
		}
	}
}
