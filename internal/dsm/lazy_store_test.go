package dsm

import (
	"testing"

	"repro/internal/core"
	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/vc"
	"repro/internal/wire"
)

// heldCells counts the intervals a ring holds: its cells that are not
// vacant.
func heldCells(r slotRing) int {
	held := 0
	for _, c := range r {
		if len(c) > 0 {
			held++
		}
	}
	return held
}

// TestSlotRing drives the retained-diff store's rings through the cases
// their indexing must survive, on an LU node: its own interval closes,
// which grow the ring while pages still point into its cells; foreign
// records stored out of index order, far apart, which the ring holds at
// the length their number needs; a GC sweep, which must leave swept cells
// vacant, poisoned and with their arrays; and the intervals that land on
// swept cells next, which must take those arrays again.
func TestSlotRing(t *testing.T) {
	e := planEngine(t, 2)
	n := e.n
	// Section i closes node 0's interval i, which writes page 2*(i%4), one
	// node 0 homes, under a lock it manages: no message is sent.
	section := func(i int) {
		t.Helper()
		pg := 2 * (i % 4)
		for _, err := range []error{n.Acquire(0), n.WriteUint64(mem.Addr(pg*1024+8), uint64(i)), n.Release(0)} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	own := func(k int) core.IntervalID { return core.IntervalID{Proc: 0, Index: int32(k)} }
	foreign := func(k int) core.IntervalID { return core.IntervalID{Proc: 1, Index: int32(k)} }

	// Own closes: 20 intervals double the ring from 8 to 16 at interval 8
	// and to 32 at interval 16.
	for i := 0; i < 20; i++ {
		section(i)
	}
	e.mu.Lock()
	if len(e.store[0]) != 32 || heldCells(e.store[0]) != 20 {
		t.Fatalf("after 20 own intervals the ring has %d cells, %d held; want 32 and 20", len(e.store[0]), heldCells(e.store[0]))
	}
	for i := 0; i < 20; i++ {
		pg := mem.PageID(2 * (i % 4))
		slot := e.slotLocked(own(i), pg)
		switch {
		case slot == nil || slot.base == nil:
			t.Errorf("interval %d's slot for page %d is %+v, want a deferred diff", i, pg, slot)
		case i < 16 && slot.target == nil:
			// Page pg's next write reached this slot through its pending
			// pointer, across a growth for i = 5..7 and 13..15: a growth that
			// moved the arrays would have left the store's slot without it.
			t.Errorf("interval %d's slot for page %d has no target: a later write's capture missed it", i, pg)
		case i >= 16 && e.pages[pg].pending != slot:
			t.Errorf("page %d's pending slot is not interval %d's slot in the ring", pg, i)
		}
	}

	// Foreign records, stored out of order: four intervals whose cells
	// differ fit the first eight cells, whatever their indices span; a
	// fifth whose cell one of them holds doubles the ring.
	clock := vc.New(2)
	for k := 0; k < 10; k++ {
		clock.Tick(1)
		logInterval(e, 1, clock, 1)
	}
	stored := []int{9, 3, 6, 0}
	for _, k := range stored {
		e.storeDiffRecsLocked([]wire.DiffRec{{Page: 1, Proc: 1, Index: int32(k), Diff: wordDiff(t, byte(k+1), k)}})
	}
	if errs := n.takeErrs(); len(errs) != 0 {
		t.Fatalf("storing foreign records recorded %v", errs)
	}
	if len(e.store[1]) != 8 || heldCells(e.store[1]) != len(stored) {
		t.Fatalf("after storing %v the foreign ring has %d cells, %d held; want 8 and %d", stored, len(e.store[1]), heldCells(e.store[1]), len(stored))
	}
	for k := 0; k < 10; k++ {
		slot := e.slotLocked(foreign(k), 1)
		want := k == 0 || k == 3 || k == 6 || k == 9
		if (slot != nil) != want || (slot != nil && slot.d == nil) {
			t.Errorf("foreign interval %d's slot is %+v, want a received diff: %t", k, slot, want)
		}
	}
	for k := 10; k < 12; k++ {
		clock.Tick(1)
		logInterval(e, 1, clock, 1)
	}
	e.storeDiffRecsLocked([]wire.DiffRec{{Page: 1, Proc: 1, Index: 11, Diff: wordDiff(t, 12, 1)}})
	if len(e.store[1]) != 16 || heldCells(e.store[1]) != len(stored)+1 || e.slotLocked(foreign(11), 1) == nil || e.slotLocked(foreign(3), 1) == nil {
		t.Fatalf("interval 11, whose cell interval 3 holds, left the foreign ring at %d cells, %d held; want 16 and %d, both found",
			len(e.store[1]), heldCells(e.store[1]), len(stored)+1)
	}

	// The sweep: an epoch covering own 0..9 and foreign 0..5.
	ownArr, foreignArr := e.slotsLocked(own(0)), e.slotsLocked(foreign(0))
	e.discardLocked(vc.VC{9, 5})
	if errs := n.takeErrs(); len(errs) != 0 {
		t.Fatalf("the discard recorded %v", errs)
	}
	if heldCells(e.store[0]) != 10 || heldCells(e.store[1]) != 3 {
		t.Errorf("after the sweep the rings hold %d own and %d foreign intervals, want 10 and 3", heldCells(e.store[0]), heldCells(e.store[1]))
	}
	if e.slotLocked(foreign(3), 1) != nil || e.slotLocked(foreign(6), 1) == nil {
		t.Error("the sweep did not drop exactly the covered foreign diffs")
	}
	swept := diffSlot{}
	if framebuf.Poisoned() {
		swept = deadSlot
	}
	for _, arr := range [][]diffSlot{ownArr, foreignArr} {
		for i, s := range arr[:cap(arr)] {
			if s != swept {
				t.Fatalf("swept array slot %d reads %+v, want %+v", i, s, swept)
			}
		}
	}

	// Capacity reuse: foreign interval 16 lands on interval 0's cell, and
	// own interval 32 on its own interval 0's.
	for k := 12; k <= 16; k++ {
		clock.Tick(1)
		logInterval(e, 1, clock, 1)
	}
	e.storeDiffRecsLocked([]wire.DiffRec{{Page: 1, Proc: 1, Index: 16, Diff: wordDiff(t, 17, 1)}})
	if got := e.slotsLocked(foreign(16)); len(got) != 1 || &got[0] != &foreignArr[:1][0] || got[0].d == nil {
		t.Error("foreign interval 16 did not take swept interval 0's array in the ring")
	}
	e.mu.Unlock()
	for i := 20; i <= 32; i++ {
		section(i)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(e.store[0]) != 32 {
		t.Errorf("the own ring grew to %d cells for 23 live intervals", len(e.store[0]))
	}
	if got := e.slotsLocked(own(32)); len(got) != 1 || &got[0] != &ownArr[:1][0] || e.pages[0].pending != &got[0] {
		t.Error("own interval 32 did not take swept interval 0's array in the ring, with page 0 pending on it")
	}
}
