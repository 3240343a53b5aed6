package dsm

import (
	"bytes"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
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
// allows — letting go of a response, and so of its frame and its shell,
// before its diffs are applied — on purpose, and checks that the miss sees
// it: the diff header the released shell kept reads as poison, its runs
// starting at a negative offset, so Apply refuses it and the miss fails
// rather than install a page. The same miss without the early release
// reads the writer's value, so the verdict is the release's doing.
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

		// Service the miss by hand: plan it, fetch its diff as a round
		// would and move the response into a frame this goroutine alone
		// holds, so that its release poisons it here and now (the fetched
		// frame's last release is the handler worker's, whenever it drains).
		e := reader.e.(*lazyEngine)
		r := new(round)
		e.mu.Lock()
		_, planned := e.planPageLocked(r, pg, anyResponder)
		e.mu.Unlock()
		if !planned {
			t.Fatal("the reader's copy of the page is not invalid")
		}
		if err := e.fetch(r); err != nil || len(r.held) != 1 {
			t.Fatalf("fetch: %d responses for the page, err %v", len(r.held), err)
		}
		wants := r.held[0].wants
		frame := r.held[0].resp.EncodeAppend(framebuf.Get())
		r.held[0].resp.Release()
		resp, err := wire.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		resp.HoldFrame(frame)
		r.held = fetchedDiffs{{wants, resp}}
		if early {
			// The bug: the frame goes before the miss has applied its
			// diffs. (The round gets a stand-in without the reference, so
			// its own, correct, release has nothing left to do.)
			diffs := resp.Diffs // the shell forgets them when it is released
			r.held[0].resp.Release()
			r.held = fetchedDiffs{{wants, &wire.Msg{Kind: wire.KDiffResp, Diffs: diffs}}}
		}
		err = e.apply(r, 0)
		r.held[0].resp.Release()
		if early {
			if err == nil || !strings.Contains(err.Error(), "exceeds page size") {
				t.Errorf("a miss over a diff applied after its response's release = %v, want Apply's refusal", err)
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if got, err := reader.ReadUint64(addr); err != nil || got != want {
			t.Errorf("miss serviced in order read %#x (err %v), want %#x", got, err, want)
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
		// handler worker: process it.
		seq := requester.nextSeq()
		w := requester.register(seq, mgr.id, wire.KLockReq)
		frame := (&wire.Msg{Kind: wire.KLockReq, Seq: seq, A: lock, B: int32(requester.id)}).EncodeAppend(framebuf.Get())
		m, err := wire.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		m.HoldFrame(frame)
		if early {
			m.Release() // the bug: the worker's reference goes before the handler ran
		}
		mgr.process(m, requester.id)
		if !early {
			m.Release()
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
			requester.takeWaiter(seq)
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

// TestEarlyGrantReleaseIsCaught commits the bug pooled interval slabs
// allow — keeping a grant's interval records past the grant's release — on
// purpose, and checks that the value oracle and the protocol's validation
// both see it: the kept records read as poison, so their write notices are
// recorded as forged and never absorbed, and the acquirer's cached copy of
// the page the critical section rewrote stays stale. The same grant
// absorbed before its release invalidates the copy and the read fetches
// the writer's value, so the verdict is the release's doing.
func TestEarlyGrantReleaseIsCaught(t *testing.T) {
	const addr, lock = mem.Addr(2048), mem.LockID(3)
	for _, early := range []bool{false, true} {
		s := newSys(t, 2, LazyInvalidate)
		reader, writer := s.Node(0), s.Node(1)
		if _, err := reader.ReadUint64(addr); err != nil {
			t.Fatal(err)
		}
		want := uint64(0x1122334455667788)
		for _, err := range []error{writer.Acquire(lock), writer.WriteUint64(addr, want), writer.Release(lock)} {
			if err != nil {
				t.Fatal(err)
			}
		}
		// The lock transfer by hand: the reader's request, the grant the
		// writer builds for it (sendGrant's steps), and the grant as the
		// reader's dispatch loop decodes it.
		req := wire.NewMsg()
		req.Kind, req.A, req.B = wire.KLockReq, int32(lock), int32(reader.id)
		reader.e.acquireStart(req)
		reader.sealSection(req)
		writer.lockMu.Lock()
		built := wire.NewMsg()
		built.Kind, built.A = wire.KLockGrant, int32(lock)
		writer.openSection("lock grant build", req, reader.id)
		writer.e.grant(req, built)
		writer.sealSection(built)
		frame := built.EncodeAppend(framebuf.Get())
		writer.lockMu.Unlock()
		built.Release()
		req.Release()
		grant, err := wire.Decode(frame)
		if err != nil || len(grant.Sections) != 1 || len(grant.Sections[0].Intervals) != 1 {
			t.Fatalf("decoded grant %+v, err %v: want one section with the writer's interval", grant, err)
		}
		if early {
			// The bug: the records are read after the shell they live in
			// has gone back to the free list.
			kept := &wire.Msg{Kind: grant.Kind, A: grant.A, Sections: slices.Clone(grant.Sections)}
			grant.Release()
			grant = kept
		}
		reader.openSection("lock grant", grant, writer.id)
		err = reader.e.onGrant(grant)
		grant.Release()
		if err != nil {
			t.Fatal(err)
		}
		got, err := reader.ReadUint64(addr)
		if err != nil {
			t.Fatal(err)
		}
		errs := reader.takeErrs()
		switch {
		case !early && (got != want || len(errs) != 0):
			t.Errorf("grant absorbed in order: read %#x (want %#x), recorded %v", got, want, errs)
		case early && got == want:
			t.Error("records read after their grant's release still invalidated the page: the oracle cannot see an early release")
		case early && (len(errs) != 1 || !strings.Contains(errs[0].Error(), "interval record for invalid processor")):
			t.Errorf("records read after their grant's release were absorbed as if intact: recorded %v", errs)
		}
		if clock := lazyOf(reader).clock(); early != (clock[writer.id] == -1) {
			t.Errorf("early=%v: reader's clock after the grant is %v", early, clock)
		}
	}
}

// TestPendingIntoRecycledSlotsIsCaught commits the bug the recycled slots
// allow — a page whose pending pointer still leads into the slots of an
// interval the GC epoch discarded, where its next twin capture would land
// in whatever interval the slot is handed to next — on purpose, and checks
// that the discard, at the barrier after the one that validated the epoch,
// reports it: the slot reads deadSlot once discarded, whether the sweep
// frees its slab (the interval was the slab's last) or keeps it (a later
// interval, above the epoch, shares it). The same epoch without the stale
// pointer records nothing.
func TestPendingIntoRecycledSlotsIsCaught(t *testing.T) {
	const addr, pg, lock = mem.Addr(1024), mem.PageID(1), mem.LockID(0)
	for _, row := range []struct {
		name         string
		stale, later bool
	}{
		{"no stale pointer", false, false},
		{"stale pointer into a freed slab", true, false},
		{"stale pointer into a kept slab", true, true},
	} {
		t.Run(row.name, func(t *testing.T) {
			s, err := New(Config{Procs: 2, SpaceSize: 8 * 1024, PageSize: 1024, Mode: LazyInvalidate, GCEveryBarriers: 1})
			if err != nil {
				t.Fatal(err)
			}
			n := s.Node(0)
			section := func(addr mem.Addr) {
				for _, err := range []error{n.Acquire(lock), n.WriteUint64(addr, 1), n.Release(lock)} {
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			section(addr)
			e := lazyOf(n)
			pmu := n.pageLock(pg)
			if row.stale {
				// The bug: the slot's diff is made, which ends the page's pending
				// claim on it, and the page is pointed back at it anyway.
				e.mu.Lock()
				pmu.Lock()
				pc := e.pages[pg]
				slot := pc.pending
				if slot == nil {
					t.Fatal("the closed interval left no pending slot")
				}
				e.materializeSlot(pc, slot, pg)
				pc.pending = slot
				pmu.Unlock()
				e.mu.Unlock()
			}
			barriers(t, s, 1) // validates the epoch
			if row.later {
				section(addr + 1024) // page 2's interval, above the epoch, in the same slab
			}
			barriers(t, s, 1) // discards it
			if runs := n.Stats().GCRuns; runs != 1 {
				t.Fatalf("%d GC epochs ran, want 1", runs)
			}
			e.mu.Lock()
			freed := e.store.slabs != nil
			e.mu.Unlock()
			if freed == row.later {
				t.Fatalf("the sweep freed a slab: %t, want %t", freed, !row.later)
			}
			errs := n.takeErrs()
			const want = "pending slot lies in a discarded slot"
			if row.stale && (len(errs) != 1 || !strings.Contains(errs[0].Error(), want)) {
				t.Errorf("a pending slot in a discarded slot was not reported: recorded %v, want one error containing %q", errs, want)
			}
			if !row.stale && len(errs) != 0 {
				t.Errorf("an epoch without a stale pending slot recorded %v", errs)
			}
			pmu.Lock()
			e.pages[pg].pending = nil
			pmu.Unlock()
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		})
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
	w := n.register(seq, 1, wire.KLockReq)
	n.answerWaiter(&wire.Msg{Seq: seq}, false)
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
	if w2 := n.register(seq, 1, wire.KLockReq); w2 != w || w2.dst != 1 {
		t.Errorf("register did not reuse the released waiter")
	}
	n.takeWaiter(seq)
}

// parkedDiffServe is the fixture of the two tests below: node 1 makes a
// diff, a request for it from node 2 is served by hand and parked between
// the serve's locked section and its send (the test holds the
// destination's lock, under which send encodes), and a GC epoch then
// discards the diff from node 1's store: one barrier validates it, the
// next discards it. With early set the fixture
// commits the bug a counted body allows — dropping a count while something
// still reads on it — by releasing the parked response's count before it
// is encoded. It returns the bytes the writer wrote, the frame the serve
// sent, and what the serve's goroutine panicked with.
func parkedDiffServe(t *testing.T, early bool) (want, frame []byte, panicked any) {
	s, c := newCatchSys(t, Config{Procs: 3, SpaceSize: 64 * 1024, PageSize: 1024, Mode: LazyInvalidate, GCEveryBarriers: 1}, 1, 2)
	writer := s.Node(1)
	e := writer.e.(*lazyEngine)
	// A page the writer homes — no other node materializes it at the epoch,
	// so the parked serve is the diff's only reader — and a lock it manages.
	pg := mem.PageID(0)
	for writer.homeOf(pg) != writer.id {
		pg++
	}
	const lock = mem.LockID(1)
	want = bytes.Repeat([]byte{0x5A}, 1024)
	for _, err := range []error{
		writer.Acquire(lock), writer.Write(s.Layout().Base(pg), want), writer.Release(lock),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	id := core.IntervalID{Proc: writer.id, Index: e.clock()[writer.id]}

	dst := &writer.dsts[2]
	dst.mu.Lock()
	served := make(chan any)
	go func() {
		defer func() { served <- recover() }()
		e.handleDiffReq(&wire.Msg{Kind: wire.KDiffReq, Seq: 7, A: 2, Wants: []wire.Want{{Page: pg, Proc: id.Proc, Index: id.Index}}}, 2)
	}()
	// The serve makes the diff inside its locked section: once the diff
	// exists and e.mu is free again, the serve is parked at send.
	for writer.Stats().DiffsCreated == 0 {
		runtime.Gosched()
	}
	e.mu.Lock()
	d := e.slotLocked(id, pg).d
	e.mu.Unlock()
	if early {
		d.Release() // the bug: the response's count goes before the response is encoded
	}

	barriers(t, s, 2)
	e.mu.Lock()
	gone := e.slotLocked(id, pg) == nil
	e.mu.Unlock()
	if st := writer.Stats(); st.GCRuns != 1 || !gone {
		t.Fatalf("the epoch did not discard the diff: %d GC runs, slot gone %v", st.GCRuns, gone)
	}

	dst.mu.Unlock()
	panicked = <-served
	return want, c.take(), panicked
}

// TestDiffServeSurvivesGC: a diff response built before a GC epoch and
// encoded after it still ships the diff's bytes — the serve took a count
// under the engine lock, so the store's discard did not recycle the body.
// Without handleDiffReq's Retain the frame below is poison.
func TestDiffServeSurvivesGC(t *testing.T) {
	want, frame, panicked := parkedDiffServe(t, false)
	if panicked != nil {
		t.Fatalf("the serve panicked: %v", panicked)
	}
	resp, err := wire.Decode(frame)
	if err != nil || resp.Kind != wire.KDiffResp || len(resp.Diffs) != 1 {
		t.Fatalf("sent response does not decode: %v (%+v)", err, resp)
	}
	got := make([]byte, len(want))
	if err := resp.Diffs[0].Diff.Apply(got); err != nil || !bytes.Equal(got, want) {
		t.Errorf("a diff served across its store's GC discard ships the wrong bytes (err %v, first byte %#x)", err, got[0])
	}
}

// TestEarlyDiffReleaseIsCaught: the same serve with its count dropped
// early. The epoch's discard is then the last release, the body goes back
// to the pool poisoned, and the response encodes 0xDB where the diff was —
// no requester can rebuild the writer's page from it — and the serve's own
// release, one too many now, panics instead of recycling the body twice.
func TestEarlyDiffReleaseIsCaught(t *testing.T) {
	want, frame, panicked := parkedDiffServe(t, true)
	if panicked == nil {
		t.Error("releasing a diff more often than retained did not panic")
	}
	if n := bytes.Count(frame, []byte{framebuf.PoisonByte}); n < len(want) {
		t.Errorf("a body released while a response still named it was encoded with %d poison bytes, want at least the %d of its payload", n, len(want))
	}
	if resp, err := wire.Decode(frame); err == nil && len(resp.Diffs) == 1 {
		got := make([]byte, len(want))
		if err := resp.Diffs[0].Diff.Apply(got); err == nil && bytes.Equal(got, want) {
			t.Error("a diff encoded after its body's release still carried the writer's bytes: the oracle cannot see an early release")
		}
	}
}
