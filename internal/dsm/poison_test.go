package dsm

import (
	"sync"
	"testing"

	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/wire"
)

// The package's tests run under poison-on-release (TestMain): the tests
// below check that the mode is on and that it does what it is for.

func TestPoisonModeIsOn(t *testing.T) {
	if !framebuf.Poisoned() {
		t.Fatal("TestMain did not enable poison-on-release")
	}
}

// TestEarlyReleaseIsCaught commits the one bug the borrowed diff plane
// allows — letting go of a response's frame before its diffs are applied
// — on purpose, and checks that the value oracle sees it: the page node 0
// then reads is poison, not the writer's value. The same miss without the
// early release reads the value, so the oracle's verdict is the release's
// doing.
func TestEarlyReleaseIsCaught(t *testing.T) {
	const addr, pg = mem.Addr(2048), mem.PageID(2)
	for _, early := range []bool{false, true} {
		s := newSys(t, 2, LazyInvalidate)
		reader, writer := s.Node(0), s.Node(1)
		// The reader caches the page, the writer rewrites it, and the
		// barrier's write notice invalidates the reader's copy.
		if _, err := reader.ReadUint64(addr); err != nil {
			t.Fatal(err)
		}
		want := uint64(0x1122334455667788)
		if err := writer.WriteUint64(addr, want); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for _, n := range []*Node{reader, writer} {
			wg.Add(1)
			go func(n *Node) {
				defer wg.Done()
				if err := n.Barrier(0); err != nil {
					t.Error(err)
				}
			}(n)
		}
		wg.Wait()

		// Service the miss by hand. Fetch the diff as revalidate would and
		// move the response into a frame this goroutine alone holds, so
		// that its release poisons it here and now (the fetched frame's
		// last release is the shard worker's, whenever it drains).
		e := reader.rt.engines[LazyInvalidate].(*lazyEngine)
		pre, err := e.prefetchDiffs([]mem.PageID{pg})
		if err != nil || len(pre[pg]) != 1 {
			t.Fatalf("prefetch: %d responses for the page, err %v", len(pre[pg]), err)
		}
		frame := pre[pg][0].EncodeAppend(framebuf.Get())
		pre[pg].release()
		resp, err := wire.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		attachFrame(frame, resp)
		held := fetchedDiffs{resp}
		if early {
			// The bug: the frame goes before the miss has applied its
			// diffs. (The miss gets a stand-in without the reference, so
			// its own, correct, release has nothing left to do.)
			held.release()
			held = fetchedDiffs{&wire.Msg{Kind: wire.KDiffResp, Diffs: resp.Diffs}}
		}
		if err := e.serviceMiss(pg, held); err != nil {
			t.Fatal(err)
		}
		got, err := reader.ReadUint64(addr)
		if err != nil {
			t.Fatal(err)
		}
		poison := uint64(framebuf.PoisonByte) * 0x0101010101010101
		switch {
		case !early && got != want:
			t.Errorf("miss serviced in order read %#x, want %#x", got, want)
		case early && got == want:
			t.Error("a diff applied after its frame's release still read the writer's bytes: the oracle cannot see an early release")
		case early && got != poison:
			t.Errorf("early release read %#x, want the poison pattern %#x", got, poison)
		}
	}
}
