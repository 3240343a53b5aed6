package dsm

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/page"
	"repro/internal/vc"
	"repro/internal/wire"
)

// lazyEngineWithIntervals builds a 2-proc LI system in which node 0 has
// closed three write intervals (indices 0..2) on one page, and returns
// the engine and the page.
func lazyEngineWithIntervals(t *testing.T) (*lazyEngine, mem.PageID) {
	t.Helper()
	s, err := New(Config{Procs: 2, SpaceSize: 8 * 1024, PageSize: 1024, Mode: LazyInvalidate})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	n := s.Node(0)
	const addr = mem.Addr(1024) // page 1
	for r := 0; r < 3; r++ {
		if err := n.Acquire(0); err != nil {
			t.Fatal(err)
		}
		if err := n.WriteUint64(addr+mem.Addr(8*r), uint64(100+r)); err != nil {
			t.Fatal(err)
		}
		if err := n.Release(0); err != nil {
			t.Fatal(err)
		}
	}
	return n.e.(*lazyEngine), 1
}

// TestFlatCacheBounded: a range serve leaves nothing retained. Serving
// one range 512 times merges it afresh each time, on a count of its own,
// grows no engine state — the store keeps the very slots, bodies and body
// slabs the closes made, and no serve counts as a cache hit — and each
// merge goes back to the page pool when that count is released: under
// poison-on-release its run table then reads dead.
func TestFlatCacheBounded(t *testing.T) {
	e, pg := lazyEngineWithIntervals(t)
	e.mu.Lock()
	defer e.mu.Unlock()
	want := wire.Want{Page: pg, Proc: 0, Index: 1, Span: 1}
	serve := func(i int) {
		t.Helper()
		d, err := e.mergedLocked(want)
		if err != nil {
			t.Fatalf("serve %d of range 1..2: %v", i, err)
		}
		if d.Empty() {
			t.Fatalf("serve %d of range 1..2 merged nothing", i)
		}
		d.Release()
		if off := d.Runs()[0].Off; off >= 0 {
			t.Fatalf("serve %d: the merge outlived its one release (first run at %d)", i, off)
		}
	}
	own := &e.store.procs[0]
	slabs, chunks, bodies := slices.Clone(own.slabs), slices.Clone(own.chunks), slices.Clone(own.bodies)
	heldSlots := func() (slots []diffSlot) {
		for k := int32(0); k <= e.v[0]; k++ {
			if slot := e.slotLocked(core.IntervalID{Proc: 0, Index: k}, pg); slot != nil {
				slots = append(slots, *slot)
			}
		}
		return slots
	}
	diffs := heldSlots()
	before := e.n.Stats()
	for i := 0; i <= 512; i++ {
		serve(i)
	}
	after := e.n.Stats()
	if got := after.DiffsFlattened - before.DiffsFlattened; got != 513 {
		t.Errorf("513 serves flattened %d diffs away, want one each", got)
	}
	if after.DiffCacheHits != before.DiffCacheHits {
		t.Errorf("range serves counted %d cache hits, want none", after.DiffCacheHits-before.DiffCacheHits)
	}
	if !slices.Equal(own.slabs, slabs) || !slices.Equal(own.chunks, chunks) || !slices.Equal(own.bodies, bodies) || own.next != 3 {
		t.Errorf("the store went from %d slabs, %d chunks and %d body slabs to %d, %d and %d, %d slots handed out (want 3)",
			len(slabs), len(chunks), len(bodies), len(own.slabs), len(own.chunks), len(own.bodies), own.next)
	}
	if held := heldSlots(); len(diffs) != 3 || !slices.Equal(held, diffs) {
		t.Errorf("the store's slots changed across the serves: %v, then %v", diffs, held)
	}
}

// TestServeRefusesSpansTheCodecRefuses: a negative span or one that wraps
// the index never leaves the codec, but serveLocked does not rely on it.
func TestServeRefusesSpansTheCodecRefuses(t *testing.T) {
	e, pg := lazyEngineWithIntervals(t)
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, span := range []int32{-2, 1<<31 - 1} {
		if d, err := e.serveLocked(wire.Want{Page: pg, Proc: 0, Index: 2, Span: span}); err == nil {
			d.Release()
			t.Errorf("span %d from interval 2 was served", span)
		}
	}
}

// logInterval appends processor p's next interval, closed at clock, to the
// ledger's log and knowledge.
func logInterval(l *ledger, p mem.ProcID, clock vc.VC, pages ...mem.PageID) core.IntervalID {
	id := core.IntervalID{Proc: p, Index: clock[p]}
	l.log.Append(core.Interval{ID: id, VC: clock, Pages: pages})
	l.v[p] = id.Index
	return id
}

// storeDiff enters diff d of interval id on page pg into the ledger's store.
func storeDiff(t *testing.T, l *ledger, id core.IntervalID, pg mem.PageID, d *page.Diff) {
	t.Helper()
	if err := l.storeLocked(wire.DiffRec{Page: pg, Proc: id.Proc, Index: id.Index, Diff: d}); err != nil {
		t.Fatal(err)
	}
}

// planPage plans page pg, from a copy with the given applied clock, into a
// round of its own, and returns the plan and the requests its node sends.
func planPage(t *testing.T, l *ledger, pg mem.PageID, applied vc.VC) ([]core.IntervalID, []outMsg) {
	t.Helper()
	var r round
	if !l.plan(&r, pg, applied, anyResponder) {
		t.Fatalf("page %d refused by a plan that takes every responder", pg)
	}
	reqs, _ := (&Node{id: l.self}).diffReqs(nil, nil, r.asks)
	return r.planOf(0), reqs
}

// wordDiff returns a diff that sets the given 8-byte words of a page to val.
func wordDiff(t *testing.T, val byte, words ...int) *page.Diff {
	t.Helper()
	runs, data := make([]page.Run, len(words)), make([][]byte, len(words))
	for i, w := range words {
		runs[i], data[i] = page.Run{Off: int32(8 * w), Len: 8}, bytes.Repeat([]byte{val}, 8)
	}
	d, err := page.DiffFromRuns(runs, data)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// wantsOf lists the wants of a miss's requests; a range goes to its
// creator.
func wantsOf(t *testing.T, reqs []outMsg) []wire.Want {
	t.Helper()
	var wants []wire.Want
	for _, r := range reqs {
		for _, w := range r.m.Wants {
			if w.Span > 0 && w.Proc != r.dst {
				t.Errorf("range want %+v sent to node %d", w, r.dst)
			}
			wants = append(wants, w)
		}
	}
	return wants
}

// TestMissPlanWants: the rule that decides which of a plan's missing steps
// travel as one range want, a row per clause. Node 0 of four plans page 0;
// a history is a list of intervals, creator and clock, in log order.
func TestMissPlanWants(t *testing.T) {
	const pg, other = mem.PageID(0), mem.PageID(1)
	type iv struct {
		p     mem.ProcID
		clock vc.VC
		pages []mem.PageID
	}
	on := []mem.PageID{pg}
	cases := []struct {
		name    string
		history []iv
		stored  []core.IntervalID // single diffs the store already has
		want    []wire.Want
	}{
		{"an uninterrupted run is one want",
			[]iv{{1, vc.VC{-1, 0, -1, -1}, on}, {1, vc.VC{-1, 1, -1, -1}, on}, {1, vc.VC{-1, 2, -1, -1}, on}},
			nil,
			[]wire.Want{{Page: pg, Proc: 1, Index: 0, Span: 2}}},
		{"a range spans the creator's intervals that left the page alone",
			[]iv{{1, vc.VC{-1, 0, -1, -1}, on}, {1, vc.VC{-1, 1, -1, -1}, []mem.PageID{other}}, {1, vc.VC{-1, 2, -1, -1}, on}},
			nil,
			[]wire.Want{{Page: pg, Proc: 1, Index: 0, Span: 2}}},
		{"another creator's step in between that the member's clock covers splits the run",
			// 2/0 saw 1/0 and 1/1 saw 2/0: the chain is the plan, and 1/1
			// may overwrite 2/0.
			[]iv{{1, vc.VC{-1, 0, -1, -1}, on}, {2, vc.VC{-1, 0, 0, -1}, on}, {1, vc.VC{-1, 1, 0, -1}, on}},
			nil,
			[]wire.Want{{Page: pg, Proc: 1, Index: 0}, {Page: pg, Proc: 1, Index: 1}, {Page: pg, Proc: 2, Index: 0}}},
		{"one that is concurrent with the member does not",
			// 2/0 knows nobody and nobody knows it; the plan puts it between
			// 1/0 and 1/1 (equal clock sums order by processor).
			[]iv{{1, vc.VC{-1, 0, -1, -1}, on}, {2, vc.VC{-1, -1, 0, -1}, on}, {1, vc.VC{-1, 1, -1, -1}, on}},
			nil,
			[]wire.Want{{Page: pg, Proc: 1, Index: 0, Span: 1}, {Page: pg, Proc: 2, Index: 0}}},
		{"a later member covering it splits where it starts to, not before",
			[]iv{{1, vc.VC{-1, 0, -1, -1}, on}, {2, vc.VC{-1, -1, 0, -1}, on}, {1, vc.VC{-1, 1, -1, -1}, on}, {1, vc.VC{-1, 2, 0, -1}, on}},
			nil,
			[]wire.Want{{Page: pg, Proc: 1, Index: 0, Span: 1}, {Page: pg, Proc: 1, Index: 2}, {Page: pg, Proc: 2, Index: 0}}},
		{"a member the store has is never ranged across",
			[]iv{{1, vc.VC{-1, 0, -1, -1}, on}, {1, vc.VC{-1, 1, -1, -1}, on}, {1, vc.VC{-1, 2, -1, -1}, on}},
			[]core.IntervalID{{Proc: 1, Index: 1}},
			[]wire.Want{{Page: pg, Proc: 1, Index: 0}, {Page: pg, Proc: 1, Index: 2}}},
		{"nothing missing, nothing asked",
			[]iv{{1, vc.VC{-1, 0, -1, -1}, on}, {1, vc.VC{-1, 1, -1, -1}, on}},
			[]core.IntervalID{{Proc: 1, Index: 0}, {Proc: 1, Index: 1}},
			nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := newLedger(0, 4)
			for _, h := range tc.history {
				logInterval(&l, h.p, h.clock, h.pages...)
			}
			for _, id := range tc.stored {
				storeDiff(t, &l, id, pg, wordDiff(t, 1, 0))
			}
			out, reqs := planPage(t, &l, pg, vc.New(4))
			got := wantsOf(t, reqs)
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("plan %v asks for\n  %+v, want\n  %+v", out, got, tc.want)
			}
		})
	}
}

// TestMissPlanResponders: a miss asks the concurrent last modifiers of its
// page, each for every want its latest interval covers — the first of
// them, by processor, that does — and one request carries all of a
// responder's wants. Node 0 of four plans page 0, which every interval of
// a history wrote.
func TestMissPlanResponders(t *testing.T) {
	const pg = mem.PageID(0)
	type iv struct {
		p     mem.ProcID
		clock vc.VC
	}
	type req struct {
		dst   mem.ProcID
		wants []wire.Want
	}
	w := func(p mem.ProcID, k, span int32) wire.Want { return wire.Want{Page: pg, Proc: p, Index: k, Span: span} }
	cases := []struct {
		name    string
		history []iv
		want    []req
	}{
		{"a chain is served by its last modifier",
			[]iv{{1, vc.VC{-1, 0, -1, -1}}, {2, vc.VC{-1, 0, 0, -1}}},
			[]req{{2, []wire.Want{w(1, 0, 0), w(2, 0, 0)}}}},
		{"concurrent last modifiers each serve their own",
			[]iv{{1, vc.VC{-1, 0, -1, -1}}, {2, vc.VC{-1, -1, 0, -1}}},
			[]req{{1, []wire.Want{w(1, 0, 0)}}, {2, []wire.Want{w(2, 0, 0)}}}},
		{"a run another processor serves is asked interval by interval",
			[]iv{{1, vc.VC{-1, 0, -1, -1}}, {1, vc.VC{-1, 1, -1, -1}}, {2, vc.VC{-1, 1, 0, -1}}},
			[]req{{2, []wire.Want{w(1, 0, 0), w(1, 1, 0), w(2, 0, 0)}}}},
		{"a run its creator serves stays one range",
			[]iv{{1, vc.VC{-1, 0, -1, -1}}, {1, vc.VC{-1, 1, -1, -1}}, {2, vc.VC{-1, -1, 0, -1}}},
			[]req{{1, []wire.Want{w(1, 0, 1)}}, {2, []wire.Want{w(2, 0, 0)}}}},
		{"an interval two of them cover goes to the first",
			[]iv{{1, vc.VC{-1, 0, -1, -1}}, {2, vc.VC{-1, 0, 0, -1}}, {3, vc.VC{-1, 0, -1, 0}}},
			[]req{{2, []wire.Want{w(1, 0, 0), w(2, 0, 0)}}, {3, []wire.Want{w(3, 0, 0)}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := newLedger(0, 4)
			for _, h := range tc.history {
				logInterval(&l, h.p, h.clock, pg)
			}
			out, reqs := planPage(t, &l, pg, vc.New(4))
			var got []req
			for _, r := range reqs {
				got = append(got, req{r.dst, r.m.Wants})
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Errorf("plan %v sends\n  %+v, want\n  %+v", out, got, tc.want)
			}
		})
	}
}

// TestRangePlanMatchesSingleSteps is the property the rule must have: on a
// random history that is closed under happened-before and whose concurrent
// intervals write disjoint words (every word's writers form a chain), a
// plan carried out with its ranges merged — by the creator's rule, from
// the range alone — leaves the page as the same plan does one interval's
// diff at a time. Copies start at a random consistent cut, and the store
// holds a random few single diffs, so runs open and close mid-history.
//
// On the same histories it pins the rule a fault's siblings rest on, that
// a page's own asks decide its refusal: a page planned for only the
// destinations of its own asks is planned, and one that may not ask any one
// of them is refused and leaves the round exactly as it was.
func TestRangePlanMatchesSingleSteps(t *testing.T) {
	const (
		procs, words = 5, 12
		pg, other    = mem.PageID(0), mem.PageID(1)
		pageSize     = 1024
	)
	rng := rand.New(rand.NewSource(1))
	ranged, split, refused := 0, 0, 0
	for trial := 0; trial < 300; trial++ {
		l := newLedger(0, procs)
		// Processors 1.. write; 0 is the reader. A processor may write a word
		// only if it has seen the word's last writer.
		clocks := make([]vc.VC, procs)
		for p := range clocks {
			clocks[p] = vc.New(procs)
		}
		diffs := make(map[core.IntervalID]*page.Diff)
		var lastWriter [words]*core.IntervalID
		cut := vc.New(procs)
		for ev, events := 0, 10+rng.Intn(60); ev < events; ev++ {
			p := 1 + rng.Intn(procs-1)
			if rng.Intn(4) == 0 {
				clocks[p].Max(clocks[1+rng.Intn(procs-1)])
				continue
			}
			if rng.Intn(events) == 0 {
				cut = clocks[p].Clone()
			}
			var mine []int
			for w := range lastWriter {
				if lw := lastWriter[w]; (lw == nil || clocks[p].Covers(int(lw.Proc), lw.Index)) && rng.Intn(3) == 0 {
					mine = append(mine, w)
				}
			}
			clocks[p].Tick(p)
			if len(mine) == 0 {
				logInterval(&l, mem.ProcID(p), clocks[p], other)
				continue
			}
			id := logInterval(&l, mem.ProcID(p), clocks[p], pg)
			diffs[id] = wordDiff(t, byte(1+len(diffs)), mine...)
			for _, w := range mine {
				lastWriter[w] = &id
			}
		}
		apply := func(img []byte, steps []*page.Diff) {
			for _, d := range steps {
				if err := d.Apply(img); err != nil {
					t.Fatal(err)
				}
			}
		}
		single := func(out []core.IntervalID) (steps []*page.Diff) {
			for _, id := range out {
				steps = append(steps, diffs[id])
			}
			return steps
		}
		// The copy at the cut: everything the cut covers, singly.
		var covered []core.IntervalID
		all, _ := planPage(t, &l, pg, vc.New(procs))
		for _, id := range all {
			if cut.Covers(int(id.Proc), id.Index) {
				covered = append(covered, id)
			}
		}
		base := make([]byte, pageSize)
		apply(base, single(covered))

		out, _ := planPage(t, &l, pg, cut)
		for _, id := range out {
			if rng.Intn(8) == 0 {
				storeDiff(t, &l, id, pg, diffs[id])
			}
		}
		out, reqs := planPage(t, &l, pg, cut)

		// Only the asks' destinations: planned. One of them short: refused,
		// with the round, which holds another page's plan, left as it was.
		var dsts uint64
		for _, r := range reqs {
			dsts |= 1 << r.dst
		}
		var r round
		l.plan(&r, other, vc.New(procs), anyResponder)
		pages, ends, plan, asks := slices.Clone(r.pages), slices.Clone(r.ends), slices.Clone(r.plan), slices.Clone(r.asks)
		for ds := dsts; ds != 0; ds &= ds - 1 {
			refused++
			if l.plan(&r, pg, cut, dsts&^(ds&-ds)) {
				t.Fatalf("round %d: plan %v from cut %v, whose asks go to %b, was planned without responder %b", trial, out, cut, dsts, ds&-ds)
			}
			if !slices.Equal(r.pages, pages) || !slices.Equal(r.ends, ends) || !slices.Equal(r.plan, plan) || !slices.Equal(r.asks, asks) {
				t.Fatalf("round %d: refusing plan %v changed the round", trial, out)
			}
		}
		if !l.plan(&r, pg, cut, dsts) {
			t.Fatalf("round %d: plan %v from cut %v was refused the responders %b its asks go to", trial, out, cut, dsts)
		}

		// Play the creators: a range is answered from the range alone.
		var held fetchedDiffs
		for _, r := range reqs {
			resp := &wire.Msg{Kind: wire.KDiffResp}
			for _, w := range r.m.Wants {
				var members []*page.Diff
				for _, k := range l.log.IndicesOn(w.Page, w.Proc, w.Index, w.Index+w.Span) {
					members = append(members, diffs[core.IntervalID{Proc: w.Proc, Index: k}])
				}
				d := members[0]
				if w.Span > 0 {
					ranged++
					var err error
					if d, err = page.FlattenDiffs(members, pageSize); err != nil {
						t.Fatal(err)
					}
				}
				resp.Diffs = append(resp.Diffs, wire.DiffRec{Page: w.Page, Proc: w.Proc, Index: w.Index, Diff: d})
			}
			if len(r.m.Wants) > 1 {
				split++
			}
			if err := answers(resp, r.m.Wants, r.dst); err != nil {
				t.Fatal(err)
			}
			held = append(held, fetched{wants: r.m.Wants, resp: resp})
		}
		steps, err := l.stepsLocked(nil, pg, out, held)
		if err != nil {
			t.Fatal(err)
		}
		want, got := bytes.Clone(base), bytes.Clone(base)
		apply(want, single(out))
		apply(got, steps)
		if !bytes.Equal(got, want) {
			t.Fatalf("round %d: plan %v from cut %v: merged ranges leave\n%s, single steps\n%s",
				trial, out, cut, fmt.Sprint(got[:8*words]), fmt.Sprint(want[:8*words]))
		}
	}
	if ranged < 100 || split < 100 || refused < 100 {
		t.Fatalf("generator is lopsided: %d ranges, %d creators asked for more than one want, %d refusals", ranged, split, refused)
	}
}

// BenchmarkPlanFault times the planner's half of an LI fault on a ledger
// alone: the faulting page, which writers 1 to 3 wrote concurrently, then
// its 64 candidate siblings, each a stale copy of a page one of the four
// writers wrote in each of its four intervals. The fault's wants ask
// writers 1 to 3, so 48 siblings are planned, each one range want to its
// writer, and writer 4's 16 are refused once their asks are planned.
// allocs/op is 0: the round keeps its storage.
func BenchmarkPlanFault(b *testing.B) {
	noPoison(b)
	const procs, writers, intervals, stale = 5, 4, 4, 64
	const fault = mem.PageID(stale)
	l := newLedger(0, procs)
	for k := range intervals {
		for w := 1; w <= writers; w++ {
			var pages []mem.PageID
			for pg := mem.PageID(w - 1); pg < stale; pg += writers {
				pages = append(pages, pg)
			}
			if k == 0 && w < writers {
				pages = append(pages, fault)
			}
			clock := vc.New(procs)
			clock[w] = int32(k)
			logInterval(&l, mem.ProcID(w), clock, pages...)
		}
	}
	applied := vc.New(procs)
	var r round
	planned := 0
	b.ReportAllocs()
	for range b.N {
		r.reset()
		l.plan(&r, fault, applied, anyResponder)
		var asked uint64
		for _, a := range r.asks {
			asked |= 1 << a.to
		}
		for q := range mem.PageID(stale) {
			l.plan(&r, q, applied, asked)
		}
		planned = len(r.pages)
	}
	if planned != 1+stale*(writers-1)/writers {
		b.Fatalf("the fault planned %d pages, want %d", planned, 1+stale*(writers-1)/writers)
	}
}
