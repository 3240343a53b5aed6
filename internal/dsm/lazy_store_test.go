package dsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/page"
	"repro/internal/vc"
	"repro/internal/wire"
)

// TestSlotSlabs drives the retained-diff store through the cases its
// storage must survive, on an LU node: its own interval closes, which take
// a second slab and chunk; foreign
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
		for _, err := range []error{n.Acquire(0), n.WriteUint64(mem.Addr(int(pageOf(i))*1024+8), uint64(i)+1), n.Release(0)} {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	own := func(k int) core.IntervalID { return core.IntervalID{Proc: 0, Index: int32(k)} }
	foreign := func(k int) core.IntervalID { return core.IntervalID{Proc: 1, Index: int32(k)} }

	// Own closes: 400 one-slot intervals fill slab 0 and chunk 0 and run
	// into chunk 1 at interval 255 and slab 1 at interval 383.
	const closes = 400
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
		if slot == nil {
			t.Fatalf("interval %d's slot for page %d is not held", i, pg)
		}
		d, err := slot.diff()
		// The section's value changes the low word of its page's record.
		if err != nil || d.NumRuns() != 1 || d.Runs()[0] != (page.Run{Off: 8, Len: 4}) {
			t.Errorf("interval %d's diff of page %d reads %v (%v), want the record's low word", i, pg, d, err)
			continue
		}
		if got := binary.LittleEndian.Uint32(d.RunData(0)); got != uint32(i)+1 {
			t.Errorf("interval %d's diff of page %d carries %d", i, pg, got)
		}
		d.Release()
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
	if len(theirs.slabs) != 1 || theirs.next != 4 || len(theirs.chunks) != 3 || theirs.chunks[1] != nil || len(theirs.bodies) != 1 {
		t.Fatalf("the foreign records took %d slabs, %d slots and chunks %v; want 1, 4 and chunks 0 and 2 alone",
			len(theirs.slabs), theirs.next, theirs.chunks)
	}
	for k := 0; k <= 600; k++ {
		slot := e.slotLocked(foreign(k), 1)
		if (slot != nil) != stored[k] {
			t.Errorf("foreign interval %d's slot is %+v, want a received diff: %t", k, slot, stored[k])
		}
	}

	// The sweep: an epoch covering own 0..389 and foreign 0..5 frees own
	// chunk 0 and slab 0, and keeps the rest — the body slabs too, which
	// hold later bodies — emptying the covered slots.
	freedSlab, freedChunk := mine.slabs[0], mine.chunks[0]
	keptOwn, keptForeign := e.slotLocked(own(389), pageOf(389)), e.slotLocked(foreign(3), 1)
	// 400 bodies of 7 bytes fill the first body slab, 1 KiB, and run into a
	// second of twice the size.
	if len(mine.bodies) != 2 || len(mine.bodies[0].s.Bytes()) != minBodySlab || len(mine.bodies[1].s.Bytes()) != 2*minBodySlab {
		t.Fatalf("%d own intervals' bodies took %d body slabs, want a 1 KiB one and a 2 KiB one", closes, len(mine.bodies))
	}
	e.discardLocked(vc.VC{389, 5})
	if errs := n.takeErrs(); len(errs) != 0 {
		t.Fatalf("the discard recorded %v", errs)
	}
	if len(mine.slabs) != 1 || len(mine.chunks) != 1 || mine.dropped != 1 || len(theirs.slabs) != 1 || len(theirs.chunks) != 3 ||
		len(mine.bodies) != 1 || len(theirs.bodies) != 1 {
		t.Errorf("after the sweep the store keeps %d own slabs, %d own chunks (%d dropped), %d own body slabs, %d foreign slabs, %d foreign chunks and %d foreign body slabs; want 1, 1 (1), 1, 1, 3 and 1",
			len(mine.slabs), len(mine.chunks), mine.dropped, len(mine.bodies), len(theirs.slabs), len(theirs.chunks), len(theirs.bodies))
	}
	if e.store.slabs != freedSlab || freedSlab.next != nil || e.store.chunks != freedChunk || freedChunk.next != nil {
		t.Error("the sweep did not free exactly own slab 0 and chunk 0")
	}
	if e.slotLocked(foreign(3), 1) != nil || e.slotLocked(foreign(9), 1) == nil || e.slotLocked(foreign(600), 1) == nil ||
		e.slotLocked(own(389), pageOf(389)) != nil || e.slotLocked(own(390), pageOf(390)) == nil {
		t.Error("the sweep did not drop exactly the covered diffs")
	}
	for i, s := range freedSlab.slots {
		if s != (diffSlot{}) {
			t.Fatalf("freed slab slot %d reads %+v, want it empty", i, s)
		}
	}
	if *keptOwn != (diffSlot{}) || *keptForeign != (diffSlot{}) {
		t.Errorf("discarded slots in kept slabs read %+v and %+v, want them empty", *keptOwn, *keptForeign)
	}

	// Reuse: own interval 766 is the first past slab 1 and chunk 2 the
	// first past chunk 1: they take the freed slab and chunk.
	e.mu.Unlock()
	for i := closes; i <= 776; i++ {
		section(i)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.store.slabs != nil || e.store.chunks != nil || len(mine.slabs) != 2 || mine.chunks[1] != freedChunk {
		t.Errorf("the closes after the sweep left slab %p and chunk %p free, %d own slabs: the freed ones were not taken",
			e.store.slabs, e.store.chunks, len(mine.slabs))
	}
	if got := e.slotLocked(own(766), pageOf(766)); got != &freedSlab.slots[0] {
		t.Error("own interval 766 did not take the freed slab's first slot")
	}
	if got := e.slotLocked(own(776), pageOf(776)); got != &freedSlab.slots[10] || !got.held() {
		t.Error("own interval 776's slot is not in the freed slab, held")
	}
}

// TestSlotStorageSizes pins the store's storage to its size classes: a
// slot is a reference to its body — a slab pointer, an offset and a
// length — and a chunk or slab with its link and last index fills a 2 KiB
// or 6 KiB allocation to within a slot.
func TestSlotStorageSizes(t *testing.T) {
	if got := unsafe.Sizeof(diffSlot{}); got != 16 {
		t.Errorf("a slot is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(slotChunk{}); got != 2048 {
		t.Errorf("a chunk is %d bytes, want 2048", got)
	}
	if got := unsafe.Sizeof(slotSlab{}); got > 6144 || got+16 <= 6144 {
		t.Errorf("a slab is %d bytes, want within a slot of 6144", got)
	}
}

// The shape of the two tests below: a 4 KiB page per interval, enough
// pages that their dense diffs' bodies fill some 75 body slabs.
const (
	denseStorePageSize = 4096
	denseStorePages    = 1228
)

func newDenseStoreSys(t *testing.T) *System {
	t.Helper()
	s, err := New(Config{Procs: 2, SpaceSize: denseStorePages * denseStorePageSize, PageSize: denseStorePageSize, Mode: LazyInvalidate})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

// TestStoredBodiesServeTheirBytes: a writer closes one interval per page,
// each rewriting its page whole, so its store lays out bodies across many
// body slabs, none collected; a reader then faults every page and sees
// exactly the bytes written, and the writer's logs hold nothing once its
// intervals are closed.
func TestStoredBodiesServeTheirBytes(t *testing.T) {
	s := newDenseStoreSys(t)
	w, r := s.Node(0), s.Node(1)
	fill := func(pg int) []byte { return bytes.Repeat([]byte{byte(pg%251 + 1)}, denseStorePageSize) }
	for pg := range denseStorePages {
		must(t, w.Acquire(0))
		must(t, w.Write(mem.Addr(pg*denseStorePageSize), fill(pg)))
		must(t, w.Release(0))
	}
	if st := w.Stats(); st.TwinBytesLive != 0 || st.TwinBytesPeak != denseStorePageSize || st.DiffsCreated != denseStorePages {
		t.Errorf("writer: %d log bytes live, peak %d, %d diffs created; want 0, %d and %d",
			st.TwinBytesLive, st.TwinBytesPeak, st.DiffsCreated, denseStorePageSize, denseStorePages)
	}
	e := lazyOf(w)
	e.mu.Lock()
	slabs := len(e.store.procs[0].bodies)
	e.mu.Unlock()
	if want := denseStorePages * denseStorePageSize / page.SlabBytes; slabs < want {
		t.Errorf("the writer's bodies fill %d body slabs, want at least %d", slabs, want)
	}
	must(t, r.Acquire(0))
	image := make([]byte, denseStorePages*denseStorePageSize)
	must(t, r.Read(image, 0))
	must(t, r.Release(0))
	for pg := range denseStorePages {
		if got := image[pg*denseStorePageSize : (pg+1)*denseStorePageSize]; !bytes.Equal(got, fill(pg)) {
			t.Fatalf("reader's page %d differs from what the writer wrote", pg)
		}
	}
}

// TestServesRaceWriterCloses: a writer's interval closes lay out bodies in
// its store while its handlers serve earlier ones to a reader. The writer
// (node 0) writes word 0 of every page under lock 0, one interval a page,
// and then word 1 under lock 1, while node 1, holding lock 0, faults every
// page and asks node 0 for the first pass's diffs. Whichever side wins
// each lock, the reader finds the first pass's words, and once it holds
// lock 1 too, the second pass's. Run under -race.
func TestServesRaceWriterCloses(t *testing.T) {
	s := newDenseStoreSys(t)
	w, r := s.Node(0), s.Node(1)
	word := func(g, pg int) (mem.Addr, uint64) {
		return mem.Addr(pg*denseStorePageSize + 8*g), uint64(g+1)<<32 | uint64(pg)
	}
	pass := func(g int) error {
		for pg := range denseStorePages {
			addr, v := word(g, pg)
			for _, err := range []error{w.Acquire(mem.LockID(g)), w.WriteUint64(addr, v), w.Release(mem.LockID(g))} {
				if err != nil {
					return err
				}
			}
		}
		return nil
	}
	check := func(g int) error {
		for pg := range denseStorePages {
			addr, want := word(g, pg)
			got, err := r.ReadUint64(addr)
			if err != nil {
				return err
			}
			if got != want {
				return fmt.Errorf("page %d word %d = %#x, want %#x", pg, g, got, want)
			}
		}
		return nil
	}
	must(t, pass(0))
	must(t, r.Acquire(0))
	read := make(chan error, 1)
	go func() { read <- check(0) }()
	must(t, pass(1))
	must(t, <-read)
	must(t, r.Acquire(1))
	must(t, check(0))
	must(t, check(1))
}
