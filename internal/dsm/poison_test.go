package dsm

import (
	"fmt"
	"strings"
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
		releaseAll(pre[pg])
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
			diffs := resp.Diffs // the shell forgets them when it is released
			releaseAll(held)
			held = fetchedDiffs{&wire.Msg{Kind: wire.KDiffResp, Diffs: diffs}}
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

// TestEarlyMsgReleaseIsCaught commits the bug the recycled message shells
// allow — a handler letting go of its message before it has read it — on
// purpose, and checks that the protocol's own validation sees it: a lock
// request released before the manager processes it is no lock request
// any more (its kind byte is poison), so it is recorded and dropped, and
// no grant is built from a stale A and B. The same request processed in
// order is granted, so the verdict is the release's doing.
func TestEarlyMsgReleaseIsCaught(t *testing.T) {
	const lock = 4
	for _, early := range []bool{false, true} {
		s, err := New(Config{Procs: 2, SpaceSize: 8 * 1024, PageSize: 1024, Mode: LazyInvalidate})
		if err != nil {
			t.Fatal(err)
		}
		mgr, requester := s.Node(0), s.Node(1)
		if s.lockMgr(lock) != mgr.id {
			t.Fatalf("lock %d is not managed by node %d", lock, mgr.id)
		}
		// Receive the request as the dispatch loop would, then play the
		// shard worker: process it, flush what it staged.
		seq := requester.nextSeq()
		w := requester.register(seq, mgr.id)
		frame := (&wire.Msg{Kind: wire.KLockReq, Seq: seq, A: lock, B: int32(requester.id)}).EncodeAppend(framebuf.Get())
		m, err := wire.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		attachFrame(frame, m)
		if early {
			m.Release() // the bug: the worker's reference goes before the handler ran
		}
		mgr.process(m, requester.id)
		if !early {
			m.Release()
		}
		if err := mgr.out.flushAll(); err != nil {
			t.Fatal(err)
		}
		errs := mgr.takeErrs()
		if !early {
			grant, err := requester.await(seq, w)
			if err != nil || grant.Kind != wire.KLockGrant || grant.A != lock {
				t.Errorf("request processed in order: grant %+v, err %v", grant, err)
			}
			grant.Release()
			if len(errs) != 0 {
				t.Errorf("request processed in order recorded %v", errs)
			}
		} else {
			requester.unregister(seq, false)
			want := fmt.Sprintf("unhandled message kind Kind(%d)", framebuf.PoisonByte)
			if len(errs) != 1 || !strings.Contains(errs[0].Error(), want) {
				t.Errorf("a request released before its handler ran was processed as if intact: recorded %v, want one error containing %q", errs, want)
			}
		}
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}
}

// TestWaiterReleaseIsMarked: a waiter on the free list is marked, so
// releasing it again, or delivering to it, panics instead of corrupting
// the rpc that takes it next.
func TestWaiterReleaseIsMarked(t *testing.T) {
	n := newSys(t, 2, LazyInvalidate).Node(0)
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		f()
	}
	seq := n.nextSeq()
	w := n.register(seq, 1)
	n.failWaiter(seq)
	if _, err := n.await(seq, w); err == nil {
		t.Fatal("a failed waiter's await returned no error")
	}
	if w.dst != freedWaiter {
		t.Fatalf("released waiter's dst = %d, want the free mark", w.dst)
	}
	mustPanic("a second release", func() { n.freeWaiter(w) })
	mustPanic("a delivery to a released waiter", func() { w.deliver(nil) })
	// The next rpc gets the same waiter back, unmarked.
	seq = n.nextSeq()
	if w2 := n.register(seq, 1); w2 != w || w2.dst != 1 {
		t.Errorf("register did not reuse the released waiter")
	}
	n.unregister(seq, false)
}
