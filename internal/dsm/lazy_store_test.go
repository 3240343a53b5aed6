package dsm

import (
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/vc"
	"repro/internal/wire"
)

// TestSlotSlabs drives the retained-diff store through the cases its
// storage must survive, on an LU node: its own interval closes, which take
// a second slab and chunk while pages still point into the first; foreign
// records stored out of index order, far apart, which take slots only for
// what they are and entries only in the chunks they fall in; a GC sweep,
// which must free exactly the chunks and slabs that hold nothing above the
// epoch, poisoned, and empty the covered slots of those it keeps; and the
// closes after it, which must take the freed chunk and slab again.
func TestSlotSlabs(t *testing.T) {
	e := lazyOf(newSys(t, 2, LazyUpdate).Node(0))
	n := e.n
	// Section i closes node 0's interval i, which writes page pageOf(i), one
	// node 0 homes, under a lock it manages: no message is sent.
	pageOf := func(i int) mem.PageID { return mem.PageID(2 * (i % 4)) }
	section := func(i int) {
		t.Helper()
		for _, err := range []error{n.Acquire(0), n.WriteUint64(mem.Addr(int(pageOf(i))*1024+8), uint64(i)), n.Release(0)} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	own := func(k int) core.IntervalID { return core.IntervalID{Proc: 0, Index: int32(k)} }
	foreign := func(k int) core.IntervalID { return core.IntervalID{Proc: 1, Index: int32(k)} }

	// Own closes: 300 one-slot intervals fill slab 0 and chunk 0 and run
	// into slab 1 and chunk 1 at interval 255.
	const closes = 300
	for i := range closes {
		section(i)
	}
	e.mu.Lock()
	mine, theirs := &e.store.procs[0], &e.store.procs[1]
	if len(mine.slabs) != 2 || len(mine.chunks) != 2 || mine.next != closes {
		t.Fatalf("after %d own intervals the store has %d slabs, %d chunks, %d slots; want 2, 2 and %d",
			closes, len(mine.slabs), len(mine.chunks), mine.next, closes)
	}
	for i := range closes {
		pg := pageOf(i)
		slot := e.slotLocked(own(i), pg)
		switch {
		case slot == nil || slot.base == nil:
			t.Errorf("interval %d's slot for page %d is %+v, want a deferred diff", i, pg, slot)
		case i < closes-4 && slot.target == nil:
			// Page pg's next write reached this slot through its pending
			// pointer, across the slab taken at interval 255: a store whose
			// slots moved would have left the store's slot without it.
			t.Errorf("interval %d's slot for page %d has no target: a later write's capture missed it", i, pg)
		case i >= closes-4 && e.pages[pg].pending != slot:
			t.Errorf("page %d's pending slot is not interval %d's slot in the store", pg, i)
		}
	}

	// Foreign records, stored out of order and far apart: four slots in one
	// slab, entries in chunks 0 and 2 and none in chunk 1.
	clock := vc.New(2)
	for k := 0; k <= 600; k++ {
		clock.Tick(1)
		logInterval(&e.ledger, 1, clock, 1)
	}
	stored := map[int]bool{9: true, 3: true, 600: true, 0: true}
	for _, k := range []int{9, 3, 600, 0} {
		e.storeDiffRecsLocked([]wire.DiffRec{{Page: 1, Proc: 1, Index: int32(k), Diff: wordDiff(t, byte(k+1), k%100)}})
	}
	if errs := n.takeErrs(); len(errs) != 0 {
		t.Fatalf("storing foreign records recorded %v", errs)
	}
	if len(theirs.slabs) != 1 || theirs.next != 4 || len(theirs.chunks) != 3 || theirs.chunks[1] != nil {
		t.Fatalf("the foreign records took %d slabs, %d slots and chunks %v; want 1, 4 and chunks 0 and 2 alone",
			len(theirs.slabs), theirs.next, theirs.chunks)
	}
	for k := 0; k <= 600; k++ {
		slot := e.slotLocked(foreign(k), 1)
		if (slot != nil) != stored[k] || (slot != nil && slot.d == nil) {
			t.Errorf("foreign interval %d's slot is %+v, want a received diff: %t", k, slot, stored[k])
		}
	}

	// The sweep: an epoch covering own 0..259 and foreign 0..5 frees own
	// chunk 0 and slab 0, and keeps the rest, emptying the covered slots.
	freedSlab, freedChunk := mine.slabs[0], mine.chunks[0]
	keptOwn, keptForeign := e.slotLocked(own(259), pageOf(259)), e.slotLocked(foreign(3), 1)
	e.discardLocked(vc.VC{259, 5})
	if errs := n.takeErrs(); len(errs) != 0 {
		t.Fatalf("the discard recorded %v", errs)
	}
	if len(mine.slabs) != 1 || len(mine.chunks) != 1 || mine.dropped != 1 || len(theirs.slabs) != 1 || len(theirs.chunks) != 3 {
		t.Errorf("after the sweep the store keeps %d own slabs, %d own chunks (%d dropped), %d foreign slabs and %d foreign chunks; want 1, 1 (1), 1 and 3",
			len(mine.slabs), len(mine.chunks), mine.dropped, len(theirs.slabs), len(theirs.chunks))
	}
	if e.store.slabs != freedSlab || freedSlab.next != nil || e.store.chunks != freedChunk || freedChunk.next != nil {
		t.Error("the sweep did not free exactly own slab 0 and chunk 0")
	}
	if e.slotLocked(foreign(3), 1) != nil || e.slotLocked(foreign(9), 1) == nil || e.slotLocked(foreign(600), 1) == nil ||
		e.slotLocked(own(259), pageOf(259)) != nil || e.slotLocked(own(260), pageOf(260)) == nil {
		t.Error("the sweep did not drop exactly the covered diffs")
	}
	swept := diffSlot{}
	if framebuf.Poisoned() {
		swept = deadSlot
	}
	for i, s := range freedSlab.slots {
		if s != swept {
			t.Fatalf("freed slab slot %d reads %+v, want %+v", i, s, swept)
		}
	}
	if *keptOwn != swept || *keptForeign != swept {
		t.Errorf("discarded slots in kept slabs read %+v and %+v, want %+v", *keptOwn, *keptForeign, swept)
	}

	// Reuse: own interval 510 is the first past slab 1 and chunk 1: it
	// takes the freed slab and chunk.
	e.mu.Unlock()
	for i := closes; i <= 520; i++ {
		section(i)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.store.slabs != nil || e.store.chunks != nil || len(mine.slabs) != 2 || mine.chunks[1] != freedChunk {
		t.Errorf("the closes after the sweep left slab %p and chunk %p free, %d own slabs: the freed ones were not taken",
			e.store.slabs, e.store.chunks, len(mine.slabs))
	}
	if got := e.slotLocked(own(510), pageOf(510)); got != &freedSlab.slots[0] || got.base == nil {
		t.Error("own interval 510 did not take the freed slab's first slot")
	}
	if got := e.slotLocked(own(520), pageOf(520)); got != &freedSlab.slots[10] || e.pages[pageOf(520)].pending != got {
		t.Error("own interval 520's slot is not in the freed slab, with its page pending on it")
	}
}

// TestSlotStorageSizes pins the store's storage to its size classes: a
// slot is its three pointers, and a chunk or slab with its link and last
// index fills a 2 KiB or 6 KiB allocation to within a slot.
func TestSlotStorageSizes(t *testing.T) {
	if got := unsafe.Sizeof(diffSlot{}); got != 24 {
		t.Errorf("a slot is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(slotChunk{}); got != 2048 {
		t.Errorf("a chunk is %d bytes, want 2048", got)
	}
	if got := unsafe.Sizeof(slotSlab{}); got > 6144 || got+24 <= 6144 {
		t.Errorf("a slab is %d bytes, want within a slot of 6144", got)
	}
}
