package dsm

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/page"
	"repro/internal/wire"
)

// lazyEngineWithIntervals builds a 2-proc LI system in which node 0 has
// closed three write intervals (indices 0..2) on one page, and returns
// the engine, the page, and the three intervals' materialized diffs.
// The caller owns the returned cleanup via s.Close (deferred here).
func lazyEngineWithIntervals(t *testing.T) (*lazyEngine, mem.PageID, []*page.Diff) {
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
	e := n.rt.engines[LazyInvalidate].(*lazyEngine)
	pg := mem.PageID(1)
	var diffs []*page.Diff
	e.mu.Lock()
	defer e.mu.Unlock()
	for idx := int32(0); idx <= 2; idx++ {
		id := core.IntervalID{Proc: 0, Index: idx}
		slot := e.slotLocked(id, pg)
		if slot == nil {
			t.Fatalf("no retained slot for own interval %d", idx)
		}
		pmu := n.pageLock(pg)
		pmu.Lock()
		if slot.d == nil {
			e.materializeSlot(e.pages[pg], slot, pg)
		}
		d := slot.d
		pmu.Unlock()
		diffs = append(diffs, d)
	}
	return e, pg, diffs
}

// TestFlattenCacheRejectsGappedGroup: the e.flat cache is keyed by index
// range only, so a want-group with a gap (the requester already holds a
// middle interval's diff) must be re-checked against FlattenSafe and
// rejected — not served the full-membership merge a previous requester
// cached. Regression: the cache lookup used to run before the
// membership check, handing the gapped requester a merge whose middle
// bytes its separately-held diff would then overwrite.
func TestFlattenCacheRejectsGappedGroup(t *testing.T) {
	e, pg, diffs := lazyEngineWithIntervals(t)
	e.mu.Lock()
	defer e.mu.Unlock()
	full := []wire.Want{
		{Page: pg, Proc: 0, Index: 0},
		{Page: pg, Proc: 0, Index: 1},
		{Page: pg, Proc: 0, Index: 2},
	}
	if e.flattenGroupLocked(full, diffs) == nil {
		t.Fatal("full-membership group did not flatten")
	}
	if _, ok := e.flat[flatKey{pg: pg, first: 0, last: 2}]; !ok {
		t.Fatal("flatten did not populate the cache")
	}
	gapped := []wire.Want{full[0], full[2]}
	if got := e.flattenGroupLocked(gapped, []*page.Diff{diffs[0], diffs[2]}); got != nil {
		t.Error("gapped want-group was served the cached full-range merge")
	}
}

// TestFlatCacheBounded: with barrier GC disabled the runGC wholesale
// drop never runs, so inserting into a full e.flat must evict rather
// than grow without bound.
func TestFlatCacheBounded(t *testing.T) {
	e, pg, diffs := lazyEngineWithIntervals(t)
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := 0; i < flatCacheMax; i++ {
		e.flat[flatKey{pg: pg, first: int32(1000 + i), last: int32(2000 + i)}] = &flatEntry{d: emptyDiff}
	}
	tail := []wire.Want{
		{Page: pg, Proc: 0, Index: 1},
		{Page: pg, Proc: 0, Index: 2},
	}
	if e.flattenGroupLocked(tail, diffs[1:]) == nil {
		t.Fatal("tail group did not flatten")
	}
	if len(e.flat) > flatCacheMax {
		t.Errorf("flat cache grew to %d entries, cap is %d", len(e.flat), flatCacheMax)
	}
	if _, ok := e.flat[flatKey{pg: pg, first: 1, last: 2}]; !ok {
		t.Error("fresh merge was not cached after eviction")
	}
}

// TestStoreDiffRecsReplacesOnFlatGroup: when a flattened response group
// arrives and one of its slots already exists (the plain diff landed via
// an LU piggyback between the requester's plan and the store), the
// existing slot must be replaced so the stored group is exactly the
// group served. Regression: the unconditional never-replace rule kept
// the plain head (losing the merged members' bytes) or the plain member
// (re-applying its stale bytes over the head's merge).
func TestStoreDiffRecsReplacesOnFlatGroup(t *testing.T) {
	// LU: the one engine that stores received diffs (as clones).
	s, err := New(Config{Procs: 2, SpaceSize: 8 * 1024, PageSize: 1024, Mode: LazyUpdate})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	e := s.Node(0).rt.engines[LazyUpdate].(*lazyEngine)
	same := func(a, b *page.Diff) bool { return bytes.Equal(a.EnsureWireBody(), b.EnsureWireBody()) }
	mkDiff := func(word int, val byte) *page.Diff {
		base := make([]byte, 1024)
		cur := append([]byte(nil), base...)
		cur[word*8] = val
		tw := page.NewTwin(base)
		d, err := page.MakeDiff(tw, cur)
		if err != nil {
			t.Fatal(err)
		}
		tw.Release()
		return d
	}
	pg := mem.PageID(0)
	slotOf := func(p mem.ProcID, idx int32) *diffSlot {
		return e.slotLocked(core.IntervalID{Proc: p, Index: idx}, pg)
	}
	preInsert := func(p mem.ProcID, idx int32, slot diffSlot) {
		e.diffs[core.IntervalID{Proc: p, Index: idx}] = []diffSlot{slot}
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	// The store keeps slots parallel to the logged interval's page list:
	// log the intervals the records below name, each writing the page.
	for p, last := range []int32{2, 4} {
		for idx := int32(0); idx <= last; idx++ {
			e.v[p] = idx
			e.log.Append(&core.Interval{
				ID: core.IntervalID{Proc: mem.ProcID(p), Index: idx}, VC: e.v.Clone(), Pages: []mem.PageID{pg},
			})
		}
	}

	// Head pre-exists as a plain diff: the flat head must replace it.
	plainHead, flatHead := mkDiff(0, 1), mkDiff(0, 2)
	preInsert(1, 1, diffSlot{held: true, d: plainHead})
	e.storeDiffRecsLocked([]wire.DiffRec{
		{Page: pg, Proc: 1, Index: 1, Diff: flatHead},
		{Page: pg, Proc: 1, Index: 2, Diff: emptyDiff},
	}, true)
	if got := slotOf(1, 1); !same(got.d, flatHead) || got.d == flatHead || !got.flat {
		t.Errorf("head slot is not a clone of the flat head (same=%t aliased=%t flat=%t)",
			same(got.d, flatHead), got.d == flatHead, got.flat)
	}
	if got := slotOf(1, 2); got == nil || !got.d.Empty() || !got.flat {
		t.Errorf("member slot not stored as an empty flat record: %+v", got)
	}

	// Member pre-exists as a plain diff: the empty flat member must
	// replace it so it is not re-applied over the head's merged bytes.
	plainMember, flatHead2 := mkDiff(1, 3), mkDiff(1, 4)
	preInsert(1, 4, diffSlot{held: true, d: plainMember})
	e.storeDiffRecsLocked([]wire.DiffRec{
		{Page: pg, Proc: 1, Index: 3, Diff: flatHead2},
		{Page: pg, Proc: 1, Index: 4, Diff: emptyDiff},
	}, true)
	if got := slotOf(1, 4); !got.d.Empty() || !got.flat {
		t.Errorf("member slot kept the piggybacked plain diff (empty=%t flat=%t)",
			got.d.Empty(), got.flat)
	}

	// Records claiming this node's own intervals never replace: a forged
	// flat group must not clobber a deferred local slot.
	own := diffSlot{held: true, base: page.NewTwin(make([]byte, 1024))}
	preInsert(0, 1, own)
	e.storeDiffRecsLocked([]wire.DiffRec{
		{Page: pg, Proc: 0, Index: 1, Diff: mkDiff(2, 5)},
		{Page: pg, Proc: 0, Index: 2, Diff: emptyDiff},
	}, true)
	if got := slotOf(0, 1); got.d != nil || got.base != own.base {
		t.Error("forged flat group replaced a deferred local slot")
	}
}
