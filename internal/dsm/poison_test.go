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

		// Service the miss by hand. Fetch the diff as revalidate would and
		// move the response into a frame this goroutine alone holds, so
		// that its release poisons it here and now (the fetched frame's
		// last release is the shard worker's, whenever it drains).
		e := reader.e.(*lazyEngine)
		pf := new(prefetch)
		e.mu.Lock()
		pf.wants, _ = e.pageWantsLocked(nil, pg, &pf.plan)
		e.mu.Unlock()
		pre, err := e.prefetchDiffs(pf)
		if err != nil || len(pre) != 1 {
			t.Fatalf("prefetch: %d responses for the page, err %v", len(pre), err)
		}
		wants := pre[0].wants
		frame := pre[0].resp.EncodeAppend(framebuf.Get())
		pre.release()
		resp, err := wire.Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		attachFrame(frame, resp)
		held := fetchedDiffs{{wants, resp}}
		if early {
			// The bug: the frame goes before the miss has applied its
			// diffs. (The miss gets a stand-in without the reference, so
			// its own, correct, release has nothing left to do.)
			diffs := resp.Diffs // the shell forgets them when it is released
			held.release()
			held = fetchedDiffs{{wants, &wire.Msg{Kind: wire.KDiffResp, Diffs: diffs}}}
		}
		_, err = e.serviceMiss(pg, held)
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
		// shard worker: process it.
		seq := requester.nextSeq()
		w := requester.register(seq, mgr.id, wire.KLockReq)
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

// TestEarlyGrantReleaseIsCaught commits the bug the shell's interval slabs
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

// TestPendingIntoRecycledSlotsIsCaught commits the bug the recycled slot
// arrays allow — a page whose pending pointer still leads into the slots of
// an interval the GC epoch discarded, where its next twin capture would
// land in whatever interval takes the array next — on purpose, and checks
// that the discard reports it: the array reads deadSlot once recycled. The
// same epoch without the stale pointer records nothing.
func TestPendingIntoRecycledSlotsIsCaught(t *testing.T) {
	const addr, pg, lock = mem.Addr(1024), mem.PageID(1), mem.LockID(0)
	for _, stale := range []bool{false, true} {
		s, err := New(Config{Procs: 2, SpaceSize: 8 * 1024, PageSize: 1024, Mode: LazyInvalidate, GCEveryBarriers: 1})
		if err != nil {
			t.Fatal(err)
		}
		n := s.Node(0)
		for _, err := range []error{n.Acquire(lock), n.WriteUint64(addr, 1), n.Release(lock)} {
			if err != nil {
				t.Fatal(err)
			}
		}
		e := lazyOf(n)
		pmu := n.pageLock(pg)
		if stale {
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
		var wg sync.WaitGroup
		for _, m := range s.Local() {
			wg.Add(1)
			go func(m *Node) {
				defer wg.Done()
				if err := m.Barrier(0); err != nil {
					t.Error(err)
				}
			}(m)
		}
		wg.Wait()
		if runs := n.Stats().GCRuns; runs != 1 {
			t.Fatalf("%d GC epochs ran, want 1", runs)
		}
		errs := n.takeErrs()
		const want = "pending slot lies in a recycled slot array"
		if stale && (len(errs) != 1 || !strings.Contains(errs[0].Error(), want)) {
			t.Errorf("a pending slot in a recycled array was not reported: recorded %v, want one error containing %q", errs, want)
		}
		if !stale && len(errs) != 0 {
			t.Errorf("an epoch without a stale pending slot recorded %v", errs)
		}
		pmu.Lock()
		e.pages[pg].pending = nil
		pmu.Unlock()
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
	w := n.register(seq, 1, wire.KLockReq)
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
	if w2 := n.register(seq, 1, wire.KLockReq); w2 != w || w2.dst != 1 {
		t.Errorf("register did not reuse the released waiter")
	}
	n.unregister(seq, false)
}

// TestLateResponseAfterManyTimeoutsIsARace: the record of timed-out rpcs
// keeps the most recent maxAbandoned of them. After more than that many
// time out, a late response to the last one is still an expected race, not
// a protocol error for Close; only the oldest, forgotten, is unexpected.
func TestLateResponseAfterManyTimeoutsIsARace(t *testing.T) {
	n := newSys(t, 2, LazyInvalidate).Node(0)
	var first, last uint64
	for i := 0; i < maxAbandoned+76; i++ {
		last = n.nextSeq()
		if first == 0 {
			first = last
		}
		n.register(last, 1, wire.KDiffReq)
		if !n.unregister(last, true) {
			t.Fatal("a registered waiter was not there to time out")
		}
	}
	n.deliverResponse(&wire.Msg{Kind: wire.KDiffResp, Seq: last})
	if errs := n.takeErrs(); len(errs) != 0 {
		t.Errorf("a late response to the latest timed-out rpc recorded %v, want an expected race", errs)
	}
	if races := n.takeRaces(); len(races) != 1 {
		t.Errorf("recorded races %v, want the one late response", races)
	}
	n.deliverResponse(&wire.Msg{Kind: wire.KDiffResp, Seq: first})
	if errs := n.takeErrs(); len(errs) != 1 {
		t.Errorf("a response to the oldest, forgotten rpc recorded %v, want one unexpected response", errs)
	}
}

// parkedDiffServe is the fixture of the two tests below: node 1 makes a
// diff, a request for it from node 2 is served by hand and parked between
// the serve's locked section and its send (the test holds the
// destination's lock, under which send encodes), and a barrier's GC epoch then
// discards the diff from node 1's store. With early set the fixture
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

	dst := &writer.out.dsts[2]
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

	var wg sync.WaitGroup
	for _, n := range s.Local() {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			if err := n.Barrier(0); err != nil {
				t.Error(err)
			}
		}(n)
	}
	wg.Wait()
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
