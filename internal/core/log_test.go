package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/page"
	"repro/internal/vc"
)

// mkInterval builds an interval modifying the given pages with one 8-byte
// run each.
func mkInterval(p mem.ProcID, idx int32, clock vc.VC, pages ...mem.PageID) Interval {
	mods := make([]*page.RangeSet, len(pages))
	for i := range mods {
		mods[i] = &page.RangeSet{}
		mods[i].Add(0, 8)
	}
	return Interval{
		ID:    IntervalID{Proc: p, Index: idx},
		VC:    clock,
		Pages: pages,
		Mods:  mods,
	}
}

func TestLogAppendAndGet(t *testing.T) {
	l := NewLog(2)
	iv := mkInterval(0, 0, vc.VC{0, -1}, 3)
	l.Append(iv)
	// The log copies the clock and the page list in: the caller may reuse
	// both at once.
	want := Interval{ID: iv.ID, VC: iv.VC.Clone(), Pages: slices.Clone(iv.Pages), Mods: iv.Mods}
	iv.VC[0], iv.Pages[0] = 77, 77
	if got := l.Get(IntervalID{0, 0}); !reflect.DeepEqual(got, want) {
		t.Fatalf("Get = %+v, want the interval as appended, %+v", got, want)
	}
	if l.Count() != 1 {
		t.Fatalf("Count = %d, want 1", l.Count())
	}
}

// mustPanic runs fn and fails unless it panics with a message containing
// every one of parts.
func mustPanic(t *testing.T, fn func(), parts ...string) {
	t.Helper()
	defer func() {
		t.Helper()
		msg := fmt.Sprint(recover())
		for _, part := range parts {
			if !strings.Contains(msg, part) {
				t.Errorf("panic %q does not name %q", msg, part)
			}
		}
	}()
	fn()
	t.Error("did not panic")
}

// TestLogPanicsNameTheirCause: a clock that is not n entries would corrupt
// fixed-stride storage and an id the log does not hold has no record to
// hand out; both are the caller's bug and say which interval it was.
func TestLogPanicsNameTheirCause(t *testing.T) {
	l := NewLog(3)
	l.Append(mkInterval(1, 0, vc.VC{-1, 0, -1}, 3))
	mustPanic(t, func() { l.Append(mkInterval(1, 1, vc.VC{-1, 1}, 3)) }, "1/1", "2-entry clock", "3 processors")
	mustPanic(t, func() { l.Append(mkInterval(3, 0, vc.VC{-1, -1, -1}, 3)) }, "3/0", "3 processors")
	mustPanic(t, func() { l.Get(IntervalID{1, 1}) }, "1/1", "not in the log")
	mustPanic(t, func() { l.Get(IntervalID{1, -1}) }, "1/-1")
	mustPanic(t, func() { l.Get(IntervalID{7, 0}) }, "7/0")
	if l.Count() != 1 {
		t.Fatalf("Count = %d after rejected appends, want 1", l.Count())
	}
}

// TestLogWindowsAreCapacityLimited: what Get hands out is a window of the
// log's storage, so appending to one must reallocate, not run into the
// neighbouring record.
func TestLogWindowsAreCapacityLimited(t *testing.T) {
	l := NewLog(2)
	l.Append(mkInterval(0, 0, vc.VC{0, -1}, 3, 4))
	l.Append(mkInterval(0, 1, vc.VC{1, -1}, 5))
	a := l.Get(IntervalID{0, 0})
	if cap(a.VC) != len(a.VC) || cap(a.Pages) != len(a.Pages) {
		t.Fatalf("window capacities %d/%d exceed lengths %d/%d", cap(a.VC), cap(a.Pages), len(a.VC), len(a.Pages))
	}
	_, _ = append(a.VC, 99), append(a.Pages, 99)
	if b := l.Get(IntervalID{0, 1}); !slices.Equal(b.VC, vc.VC{1, -1}) || !slices.Equal(b.Pages, []mem.PageID{5}) {
		t.Fatalf("appending to interval 0/0's windows reached 0/1: %+v", b)
	}
}

func TestLogAppendOutOfOrderPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order append did not panic")
		}
	}()
	l := NewLog(2)
	l.Append(mkInterval(0, 5, vc.VC{5, -1}, 3))
}

func TestNoticesBetween(t *testing.T) {
	l := NewLog(2)
	l.Append(mkInterval(0, 0, vc.VC{0, -1}, 1))
	l.Append(mkInterval(0, 1, vc.VC{1, -1}, 1, 2))
	l.Append(mkInterval(1, 0, vc.VC{-1, 0}, 3))

	var seen []IntervalID
	intervals, notices := l.NoticesBetween(vc.VC{-1, -1}, vc.VC{1, 0}, func(iv Interval) {
		seen = append(seen, iv.ID)
	})
	if intervals != 3 {
		t.Errorf("intervals = %d, want 3", intervals)
	}
	if notices != 4 { // pages: 1; 1,2; 3
		t.Errorf("notices = %d, want 4", notices)
	}
	if len(seen) != 3 {
		t.Errorf("callback saw %d intervals, want 3", len(seen))
	}

	// Partial window: only interval (0,1).
	intervals, notices = l.NoticesBetween(vc.VC{0, 0}, vc.VC{1, 0}, nil)
	if intervals != 1 || notices != 2 {
		t.Errorf("partial window: intervals=%d notices=%d, want 1, 2", intervals, notices)
	}

	// "to" beyond the log is clamped.
	intervals, _ = l.NoticesBetween(vc.VC{-1, -1}, vc.VC{99, 99}, nil)
	if intervals != 3 {
		t.Errorf("clamped window: intervals = %d, want 3", intervals)
	}
}

func TestOutstandingBasics(t *testing.T) {
	l := NewLog(3)
	l.Append(mkInterval(0, 0, vc.VC{0, -1, -1}, 7))
	l.Append(mkInterval(1, 0, vc.VC{-1, 0, -1}, 7))
	l.Append(mkInterval(1, 1, vc.VC{-1, 1, -1}, 8))

	applied := vc.New(3)
	known := vc.VC{0, 1, -1}

	out := l.Outstanding(nil, 7, applied, known, 2)
	if len(out) != 2 {
		t.Fatalf("Outstanding = %v, want two intervals", out)
	}

	// Self's intervals are excluded: processor 0 asking about page 7 must
	// not see its own interval.
	out = l.Outstanding(nil, 7, applied, known, 0)
	if len(out) != 1 || out[0].Proc != 1 {
		t.Fatalf("Outstanding for self-modifier = %v, want only p1's interval", out)
	}

	// Applied clocks filter.
	ap := vc.VC{0, 0, -1}
	out = l.Outstanding(nil, 8, ap, known, 2)
	if len(out) != 1 || out[0] != (IntervalID{1, 1}) {
		t.Fatalf("Outstanding page 8 = %v, want [1/1]", out)
	}
	out = l.Outstanding(nil, 7, ap, known, 2)
	if len(out) != 0 {
		t.Fatalf("applied filter failed: %v", out)
	}

	// Unknown page.
	if out := l.Outstanding(nil, 99, applied, known, 2); out != nil {
		t.Fatalf("unknown page Outstanding = %v, want nil", out)
	}
}

func TestHasOutstandingAgreesWithOutstanding(t *testing.T) {
	l := NewLog(3)
	l.Append(mkInterval(0, 0, vc.VC{0, -1, -1}, 1))
	l.Append(mkInterval(1, 0, vc.VC{-1, 0, -1}, 2))
	for pg := mem.PageID(0); pg < 4; pg++ {
		for self := mem.ProcID(0); self < 3; self++ {
			applied := vc.New(3)
			known := vc.VC{0, 0, -1}
			has := l.HasOutstanding(pg, applied, known, self)
			want := len(l.Outstanding(nil, pg, applied, known, self)) > 0
			if has != want {
				t.Errorf("page %d self %d: HasOutstanding=%v, Outstanding non-empty=%v", pg, self, has, want)
			}
		}
	}
}

func TestMaximalSequentialChain(t *testing.T) {
	// p0's interval 0 happened-before p1's interval 0 (p1's clock covers
	// it): only p1's interval is maximal.
	l := NewLog(2)
	l.Append(mkInterval(0, 0, vc.VC{0, -1}, 5))
	l.Append(mkInterval(1, 0, vc.VC{0, 0}, 5))
	out := []IntervalID{{0, 0}, {1, 0}}
	max := l.Maximal(out)
	if len(max) != 1 || max[0] != (IntervalID{1, 0}) {
		t.Fatalf("Maximal = %v, want [1/0]", max)
	}
}

func TestMaximalConcurrent(t *testing.T) {
	// Two mutually concurrent intervals: both maximal.
	l := NewLog(2)
	l.Append(mkInterval(0, 0, vc.VC{0, -1}, 5))
	l.Append(mkInterval(1, 0, vc.VC{-1, 0}, 5))
	max := l.Maximal([]IntervalID{{0, 0}, {1, 0}})
	if len(max) != 2 {
		t.Fatalf("Maximal = %v, want both", max)
	}
}

func TestMaximalPerProcLatestOnly(t *testing.T) {
	// Within one processor, only the latest outstanding interval is a
	// candidate (program order dominates earlier ones).
	l := NewLog(2)
	l.Append(mkInterval(0, 0, vc.VC{0, -1}, 5))
	l.Append(mkInterval(0, 1, vc.VC{1, -1}, 5))
	max := l.Maximal([]IntervalID{{0, 0}, {0, 1}})
	if len(max) != 1 || max[0] != (IntervalID{0, 1}) {
		t.Fatalf("Maximal = %v, want [0/1]", max)
	}
}

func TestMaximalEmpty(t *testing.T) {
	l := NewLog(2)
	if got := l.Maximal(nil); got != nil {
		t.Fatalf("Maximal(nil) = %v", got)
	}
}

func TestAssignRespondersCoversAll(t *testing.T) {
	// Chain: p0/0 hb p1/0; p2/0 concurrent with both. Responders must be
	// p1 (covering p0/0 and p1/0) and p2.
	l := NewLog(3)
	l.Append(mkInterval(0, 0, vc.VC{0, -1, -1}, 5))
	l.Append(mkInterval(1, 0, vc.VC{0, 0, -1}, 5))
	l.Append(mkInterval(2, 0, vc.VC{-1, -1, 0}, 5))
	out := []IntervalID{{0, 0}, {1, 0}, {2, 0}}
	asn := l.AssignResponders(out)
	if len(asn) != 2 {
		t.Fatalf("AssignResponders = %v, want 2 responders", asn)
	}
	total := 0
	seen := map[IntervalID]int{}
	for _, a := range asn {
		total += len(a.Intervals)
		for _, id := range a.Intervals {
			seen[id]++
		}
	}
	if total != 3 {
		t.Fatalf("assigned %d intervals, want 3", total)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("interval %v assigned %d times", id, n)
		}
	}
	// p1 must cover p0's interval.
	for _, a := range asn {
		if a.Responder == 1 && len(a.Intervals) != 2 {
			t.Errorf("responder p1 supplies %v, want p0/0 and p1/0", a.Intervals)
		}
	}
}

func TestCoalescedDiffBytes(t *testing.T) {
	l := NewLog(2)
	iv0 := mkInterval(0, 0, vc.VC{0, -1}, 5) // [0,8) on page 5
	iv1 := mkInterval(1, 0, vc.VC{-1, 0}, 5) // [0,8) on page 5 (overlaps)
	l.Append(iv0)
	l.Append(iv1)
	// Overlapping ranges coalesce: one 8-byte run.
	got := l.CoalescedDiffBytes(5, []IntervalID{{0, 0}, {1, 0}})
	want := page.DiffHeaderBytes + page.RunHeaderBytes + 8
	if got != want {
		t.Errorf("CoalescedDiffBytes = %d, want %d", got, want)
	}
	// A page none of the intervals modified: zero.
	if got := l.CoalescedDiffBytes(9, []IntervalID{{0, 0}}); got != 0 {
		t.Errorf("CoalescedDiffBytes for unmodified page = %d, want 0", got)
	}
}

func TestIntervalModsFor(t *testing.T) {
	iv := mkInterval(0, 0, vc.VC{0, -1}, 2, 5, 9)
	if iv.ModsFor(5) == nil {
		t.Error("ModsFor(5) = nil, want ranges")
	}
	if iv.ModsFor(3) != nil {
		t.Error("ModsFor(3) != nil for unmodified page")
	}
	if iv.NumNotices() != 3 {
		t.Errorf("NumNotices = %d, want 3", iv.NumNotices())
	}
	if got := iv.ID.String(); got != "0/0" {
		t.Errorf("ID.String = %q", got)
	}
}

func TestModifiersOf(t *testing.T) {
	l := NewLog(3)
	l.Append(mkInterval(0, 0, vc.VC{0, -1, -1}, 5))
	l.Append(mkInterval(2, 0, vc.VC{-1, -1, 0}, 5))
	mods := l.ModifiersOf(5)
	if len(mods) != 2 || mods[0] != 0 || mods[1] != 2 {
		t.Fatalf("ModifiersOf = %v, want [0 2]", mods)
	}
	if l.ModifiersOf(99) != nil {
		t.Fatal("ModifiersOf(unmodified) != nil")
	}
}

// randomHB1Log builds an hb1-consistent log: processors close intervals
// on random pages and learn each other's clocks by acquire-style merges,
// so every interval's clock covers exactly what happened before it.
// soloPage is written by processor 0 only (creator-only history). per, if
// not zero, overrides the records a chunk holds, so short logs cross chunk
// boundaries. With sweeps, the log is swept now and then between appends,
// to a floor a few intervals behind each processor's last, so freed chunks
// are reused. The second result is the reference the log is compared with:
// the same records, one heap object each, in a slice per processor, swept
// ones included; the third is the floor the sweeps should have left.
func randomHB1Log(rng *rand.Rand, procs, pages, events, per int, sweeps bool) (*Log, [][]Interval, vc.VC) {
	const soloPage = 0
	l := NewLog(procs)
	if per > 0 {
		l.per = per
	}
	ref := make([][]Interval, procs)
	clocks := make([]vc.VC, procs)
	for p := range clocks {
		clocks[p] = vc.New(procs)
	}
	floor, sweep := vc.New(procs), vc.New(procs)
	var pgs []mem.PageID
	for e := 0; e < events; e++ {
		if sweeps && rng.Intn(12) == 0 {
			for q := range sweep {
				sweep[q] = int32(len(ref[q]) - rng.Intn(6))
				floor[q] = max(floor[q], min(sweep[q], int32(len(ref[q])-1)))
			}
			l.Sweep(sweep)
		}
		p := rng.Intn(procs)
		if rng.Intn(3) == 0 {
			clocks[p].Max(clocks[rng.Intn(procs)])
			continue
		}
		pgs = pgs[:0]
		for pg := 0; pg < pages; pg++ {
			if (pg != soloPage || p == 0) && rng.Intn(2) == 0 {
				pgs = append(pgs, mem.PageID(pg))
			}
		}
		if len(pgs) == 0 {
			continue
		}
		id := IntervalID{Proc: mem.ProcID(p), Index: clocks[p].Tick(p)}
		// The log is handed the generator's own clock and page scratch, both
		// rewritten by the next event: Append copies.
		l.Append(Interval{ID: id, VC: clocks[p], Pages: pgs})
		ref[p] = append(ref[p], Interval{ID: id, VC: clocks[p].Clone(), Pages: slices.Clone(pgs)})
	}
	return l, ref, floor
}

// TestIndicesOnMatchesLinearScan compares IndicesOn with a scan of the
// processor's whole interval list, on random logs: ranges that start or end
// between, before and after the page's intervals, and empty ones.
func TestIndicesOnMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 100; round++ {
		procs, pages := 2+rng.Intn(4), 1+rng.Intn(3)
		l, ref, _ := randomHB1Log(rng, procs, pages, 20+rng.Intn(120), rng.Intn(4), false)
		for trial := 0; trial < 50; trial++ {
			pg, q := mem.PageID(rng.Intn(pages+1)), rng.Intn(procs)
			first, last := int32(rng.Intn(40)-2), int32(rng.Intn(40)-2)
			var want []int32
			for _, iv := range ref[q] {
				if k := iv.ID.Index; first <= k && k <= last && slices.Contains(iv.Pages, pg) {
					want = append(want, k)
				}
			}
			if got := l.IndicesOn(pg, mem.ProcID(q), first, last); !slices.Equal(got, want) {
				t.Fatalf("round %d: IndicesOn(page %d, proc %d, [%d,%d]) = %v, scan says %v", round, pg, q, first, last, got, want)
			}
		}
	}
}

// TestChunkedLogMatchesReference drives every reader of the log against the
// naive slice-of-records reference on random hb1-closed logs whose chunks
// hold one to a few records (so each processor's intervals cross several
// chunk boundaries) and on default-sized chunks; then on logs swept
// between appends, at 4 and 64 processors, against the reference filtered
// to the indices above the floor — where Get below the floor panics naming
// the interval.
func TestChunkedLogMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for round := 0; round < 60; round++ {
		procs, pages := 2+rng.Intn(4), 1+rng.Intn(4)
		l, ref, floor := randomHB1Log(rng, procs, pages, 30+rng.Intn(200), rng.Intn(5), false)
		checkLogAgainstReference(t, rng, fmt.Sprintf("round %d", round), l, ref, floor, pages)
	}
	for _, procs := range []int{4, 64} {
		for round := 0; round < 30; round++ {
			pages := 1 + rng.Intn(4)
			l, ref, floor := randomHB1Log(rng, procs, pages, procs*(10+rng.Intn(40)), rng.Intn(5), true)
			checkLogAgainstReference(t, rng, fmt.Sprintf("swept, %d processors, round %d", procs, round), l, ref, floor, pages)
		}
	}
}

// checkLogAgainstReference compares every reader of l with the reference
// ref, whose records at or below floor the log must have swept.
func checkLogAgainstReference(t *testing.T, rng *rand.Rand, round string, l *Log, ref [][]Interval, floor vc.VC, pages int) {
	t.Helper()
	procs := len(ref)
	held := func(q, k int32) bool { return k > floor[q] }
	total := 0
	top := vc.New(procs)
	for q := range ref {
		if got := l.Floor(mem.ProcID(q)); got != floor[q] {
			t.Fatalf("%s: Floor(%d) = %d, want %d", round, q, got, floor[q])
		}
		top[q] = int32(len(ref[q])) - 1
		for _, want := range ref[q] {
			if !held(int32(q), want.ID.Index) {
				mustPanic(t, func() { l.Get(want.ID) }, want.ID.String(), "swept")
				continue
			}
			total++
			if got := l.Get(want.ID); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Get(%v) = %+v, reference has %+v", round, want.ID, got, want)
			}
		}
	}
	if l.Count() != total {
		t.Fatalf("%s: Count = %d, reference holds %d above the floor", round, l.Count(), total)
	}
	vcOf := func(id IntervalID) vc.VC { return ref[id.Proc][id.Index].VC }
	for trial := 0; trial < 40; trial++ {
		// Two clocks of the log: a random interval's (what its creator
		// knew), and the same or another's as what has been applied.
		known, applied := top, vc.New(procs)
		if q := rng.Intn(procs); len(ref[q]) > 0 && trial > 0 {
			known = ref[q][rng.Intn(len(ref[q]))].VC
		}
		if q := rng.Intn(procs); len(ref[q]) > 0 && rng.Intn(2) == 0 {
			applied = ref[q][rng.Intn(len(ref[q]))].VC
		}

		var got, want []Interval
		gi, gn := l.NoticesBetween(applied, known, func(iv Interval) { got = append(got, iv) })
		wn := 0
		for q := range ref {
			for k := applied[q] + 1; k <= known[q]; k++ {
				if held(int32(q), k) {
					want = append(want, ref[q][k])
					wn += len(ref[q][k].Pages)
				}
			}
		}
		if gi != len(want) || gn != wn || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: NoticesBetween(%v, %v) = %d intervals, %d notices, %+v; reference has %d, %d, %+v",
				round, applied, known, gi, gn, got, len(want), wn, want)
		}

		pg, self := mem.PageID(rng.Intn(pages+1)), mem.ProcID(rng.Intn(procs))
		var out []IntervalID
		var modifiers []mem.ProcID
		for q := range ref {
			for k := applied[q] + 1; k <= known[q] && mem.ProcID(q) != self; k++ {
				if held(int32(q), k) && slices.Contains(ref[q][k].Pages, pg) {
					out = append(out, ref[q][k].ID)
				}
			}
			if slices.ContainsFunc(ref[q], func(iv Interval) bool {
				return held(int32(q), iv.ID.Index) && slices.Contains(iv.Pages, pg)
			}) {
				modifiers = append(modifiers, mem.ProcID(q))
			}
		}
		if got := l.Outstanding(nil, pg, applied, known, self); !slices.Equal(got, out) {
			t.Fatalf("%s: Outstanding(page %d, %v, %v, self %d) = %v, reference has %v", round, pg, applied, known, self, got, out)
		}
		if got := l.HasOutstanding(pg, applied, known, self); got != (len(out) > 0) {
			t.Fatalf("%s: HasOutstanding = %v beside outstanding set %v", round, got, out)
		}
		if got := l.ModifiersOf(pg); !slices.Equal(got, modifiers) {
			t.Fatalf("%s: ModifiersOf(page %d) = %v, reference has %v", round, pg, got, modifiers)
		}
		q := rng.Intn(procs)
		var on []int32
		for _, iv := range ref[q] {
			if held(int32(q), iv.ID.Index) && slices.Contains(iv.Pages, pg) {
				on = append(on, iv.ID.Index)
			}
		}
		if got := l.IndicesOn(pg, mem.ProcID(q), -1, top[q]); !slices.Equal(got, on) {
			t.Fatalf("%s: IndicesOn(page %d, proc %d) = %v, reference has %v", round, pg, q, got, on)
		}

		// The reference assignment: the maximal members are those no
		// other member's clock covers, ascending by processor, and each
		// takes what it covers and no earlier one took.
		var wantAsn []Assignment
		taken := map[IntervalID]bool{}
		for _, m := range out {
			if slices.ContainsFunc(out, func(d IntervalID) bool { return d != m && vcOf(d).Covers(int(m.Proc), m.Index) }) {
				continue
			}
			a := Assignment{Responder: m.Proc}
			for _, id := range out {
				if !taken[id] && (id == m || vcOf(m).Covers(int(id.Proc), id.Index)) {
					a.Intervals, taken[id] = append(a.Intervals, id), true
				}
			}
			wantAsn = append(wantAsn, a)
		}
		if got := l.AssignResponders(out); !reflect.DeepEqual(got, wantAsn) {
			t.Fatalf("%s: AssignResponders(%v) = %v, reference has %v", round, out, got, wantAsn)
		}
	}
}

// TestLogKeepsModsPerChunk: ranges are stored only in chunks where an
// interval brought them, and an interval without them reads nil beside one
// with.
func TestLogKeepsModsPerChunk(t *testing.T) {
	l := NewLog(1)
	l.per = 2
	for k := int32(0); k < 6; k++ {
		iv := mkInterval(0, k, vc.VC{k}, mem.PageID(k))
		if k != 3 {
			iv.Mods = nil
		}
		l.Append(iv)
	}
	for k := int32(0); k < 6; k++ {
		if got := l.Get(IntervalID{0, k}).ModsFor(mem.PageID(k)); (got != nil) != (k == 3) {
			t.Errorf("interval 0/%d: ModsFor = %v", k, got)
		}
	}
	for c, ch := range l.procs[0].chunks {
		if (ch.mods != nil) != (c == 1) {
			t.Errorf("chunk %d: mods table present = %v", c, ch.mods != nil)
		}
	}
}

// TestSweptLogAllocatesNothing: once a sweep has freed a chunk, Append
// takes its chunks from the free list and its index lists have the
// capacity the sweep trimmed them to, so appending allocates nothing; and
// a sweep — floors, freed chunks, trimmed lists — allocates nothing
// either.
func TestSweptLogAllocatesNothing(t *testing.T) {
	const procs = 4
	l := NewLog(procs)
	clock, floor := vc.New(procs), vc.New(procs)
	pages := make([]mem.PageID, 2)
	appendOne := func() {
		k := clock.Tick(0)
		pages[0], pages[1] = mem.PageID(k%5), mem.PageID(5+k%7)
		l.Append(Interval{ID: IntervalID{Proc: 0, Index: k}, VC: clock, Pages: pages})
	}
	// Three chunks' worth of history, then swept whole: three free chunks
	// and index lists long enough for any of the runs below.
	for range 3 * l.per {
		appendOne()
	}
	l.Sweep(clock)
	if allocs := testing.AllocsPerRun(2*l.per, appendOne); allocs != 0 {
		t.Errorf("an append after a sweep freed its chunks allocates %.2f objects, want 0", allocs)
	}
	floor[0] = clock[0] - int32(2*l.per)
	sweepOne := func() {
		floor[0]++
		l.Sweep(floor)
	}
	if allocs := testing.AllocsPerRun(2*l.per-1, sweepOne); allocs != 0 {
		t.Errorf("a sweep allocates %.2f objects, want 0", allocs)
	}
	if l.Count() != 0 || len(l.procs[0].chunks) != 1 || len(l.free) != 2 {
		t.Errorf("after sweeping everything the log holds %d intervals in %d chunks with %d free, want 0 in 1 (the one Append fills next) with 2 free",
			l.Count(), len(l.procs[0].chunks), len(l.free))
	}
}

// TestSweptViewReadsPoison: what Get hands out is valid only until the
// sweep that covers the interval. Under poison-on-release a sweep poisons
// the chunks it frees, so a view kept across the sweep — and across the
// Append that takes the chunk again — reads poison, not a stale record.
func TestSweptViewReadsPoison(t *testing.T) {
	framebuf.SetPoison(true)
	defer framebuf.SetPoison(false)
	l := NewLog(2)
	l.per = 4
	for k := int32(0); k < 5; k++ {
		l.Append(Interval{ID: IntervalID{Proc: 0, Index: k}, VC: vc.VC{k, -1}, Pages: []mem.PageID{mem.PageID(10 + k)}})
	}
	kept := l.Get(IntervalID{0, 2})
	l.Sweep(vc.VC{3, -1})
	mustPanic(t, func() { l.Get(IntervalID{0, 2}) }, "0/2", "swept")
	// Processor 1's first chunk is the one the sweep freed; its first record
	// overwrites the first clock and page slots, not record 2's.
	l.Append(Interval{ID: IntervalID{Proc: 1, Index: 0}, VC: vc.VC{3, 0}, Pages: []mem.PageID{7}})
	dead := uint32(framebuf.PoisonByte) * 0x01010101
	for i, x := range kept.VC {
		if uint32(x) != dead {
			t.Errorf("swept interval 0/2's clock entry %d reads %d, want poison %d", i, x, dead)
		}
	}
	for i, pg := range kept.Pages {
		if uint32(pg) != dead {
			t.Errorf("swept interval 0/2's page %d reads %d, want poison %d", i, pg, dead)
		}
	}
	if got := l.Get(IntervalID{1, 0}); !slices.Equal(got.VC, vc.VC{3, 0}) || !slices.Equal(got.Pages, []mem.PageID{7}) {
		t.Errorf("the record appended into the reused chunk reads %+v", got)
	}
}

// BenchmarkLogAppend reports what the log allocates per appended interval
// (chunks, page slabs and index lists, amortized) from a caller that reuses
// its clock and page list, at a small and at the largest cluster; swept,
// the log is swept to the caller's clock every 256 intervals, as a GC
// epoch would, and reuses its chunks.
func BenchmarkLogAppend(b *testing.B) {
	for _, procs := range []int{4, 64} {
		for _, swept := range []bool{false, true} {
			b.Run(fmt.Sprintf("procs=%d/swept=%t", procs, swept), func(b *testing.B) {
				b.ReportAllocs()
				l := NewLog(procs)
				clock := vc.New(procs)
				pages := make([]mem.PageID, 2)
				for i := 0; i < b.N; i++ {
					p := i % procs
					pages[0], pages[1] = mem.PageID(i%61), mem.PageID(61+i%67)
					l.Append(Interval{ID: IntervalID{Proc: mem.ProcID(p), Index: clock.Tick(p)}, VC: clock, Pages: pages})
					if swept && i%256 == 255 {
						l.Sweep(clock)
					}
				}
			})
		}
	}
}
