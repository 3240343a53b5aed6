package dsm

import (
	"bytes"
	"fmt"
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
// it: the diff header the released shell kept reads as poison, a body that
// does not parse, so Apply refuses it and the miss fails rather than
// install a page. The same miss without the early release
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
			if err == nil || !strings.Contains(err.Error(), "malformed diff body") {
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

// TestFreedBodySlabReadIsCaught commits the bug the recycled body slabs
// allow — a slot kept past the GC epoch whose sweep released its body's
// slab to the page pool — on purpose, and checks that reading it is
// caught: the pool poisons a released slab, and what was the body no
// longer parses. The same slot read before the epoch reads the diff
// written.
func TestFreedBodySlabReadIsCaught(t *testing.T) {
	const addr, pg, lock = mem.Addr(1024), mem.PageID(1), mem.LockID(0)
	s, err := New(Config{Procs: 2, SpaceSize: 8 * 1024, PageSize: 1024, Mode: LazyInvalidate, GCEveryBarriers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	n := s.Node(0)
	for _, err := range []error{n.Acquire(lock), n.WriteUint64(addr, 0x5A5A), n.Release(lock)} {
		if err != nil {
			t.Fatal(err)
		}
	}
	e := lazyOf(n)
	id := core.IntervalID{Proc: n.id, Index: e.clock()[n.id]}
	e.mu.Lock()
	kept := *e.slotLocked(id, pg) // the bug: a slot outlives the lock that pins it
	e.mu.Unlock()
	d, err := kept.diff()
	if err != nil || d.NumRuns() != 1 || !bytes.HasSuffix(d.EnsureWireBody(), []byte{0x5A, 0x5A, 0, 0}) {
		t.Fatalf("the slot read before the epoch: %v, %v", d, err)
	}
	d.Release()
	barriers(t, s, 2) // the first validates the epoch, the second discards it
	e.mu.Lock()
	gone, slabs := e.slotLocked(id, pg) == nil, len(e.store.procs[n.id].bodies)
	e.mu.Unlock()
	if runs := n.Stats().GCRuns; runs != 1 || !gone || slabs != 0 {
		t.Fatalf("%d GC epochs ran, slot gone %v, %d body slabs kept: want 1, true and 0", runs, gone, slabs)
	}
	if d, err := kept.diff(); err == nil || !strings.Contains(err.Error(), "malformed diff body") {
		t.Errorf("a body read from a released slab gave %v, %v: want a malformed-body error", d, err)
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
// diff, a request for it from node 2 is served as handleDiffReq serves it —
// serveLocked under the engine lock, the send after it, the release after
// the send — and parked at the send (the test holds the destination's
// lock, under which send encodes), and a GC epoch then discards the diff
// from node 1's store and releases its body slab: one barrier validates
// it, the next discards it. With early set the fixture commits the bug a
// counted diff allows — dropping a count while something still reads on
// it — by releasing the served diff's count before it is encoded. It
// returns the bytes the writer wrote, the frame the serve sent, and what
// the serve's goroutine panicked with.
func parkedDiffServe(t *testing.T, early bool) (want, frame []byte, panicked any) {
	s, c := newCatchSys(t, Config{Procs: 3, SpaceSize: 64 * 1024, PageSize: 1024, Mode: LazyInvalidate, GCEveryBarriers: 1}, 1, 2)
	writer := s.Node(1)
	e := writer.e.(*lazyEngine)
	// A page the writer homes — no other node fetches it at the epoch, so
	// the parked serve is the diff's only reader — and a lock it manages.
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

	e.mu.Lock()
	d, err := e.serveLocked(wire.Want{Page: pg, Proc: id.Proc, Index: id.Index})
	e.mu.Unlock()
	if err != nil || d == nil {
		t.Fatalf("serving the diff: %v, %v", d, err)
	}
	resp := &wire.Msg{Kind: wire.KDiffResp, Seq: 7, Diffs: []wire.DiffRec{{Page: pg, Proc: id.Proc, Index: id.Index, Diff: d}}}
	dst := &writer.dsts[2]
	dst.mu.Lock()
	served := make(chan any)
	go func() {
		defer func() { served <- recover() }()
		writer.noteErr("diff response", writer.send(2, resp))
		releaseDiffs(resp)
	}()

	barriers(t, s, 2)
	e.mu.Lock()
	gone, slabs := e.slotLocked(id, pg) == nil, len(e.store.procs[writer.id].bodies)
	e.mu.Unlock()
	if st := writer.Stats(); st.GCRuns != 1 || !gone || slabs != 0 {
		t.Fatalf("the epoch did not discard the diff: %d GC runs, slot gone %v, %d body slabs kept", st.GCRuns, gone, slabs)
	}
	if early {
		d.Release() // the bug: the response's count goes before the response is encoded
	}
	dst.mu.Unlock()
	panicked = <-served
	return want, c.take(), panicked
}

// TestDiffServeSurvivesGC: a diff response built before a GC epoch and
// encoded after it still ships the diff's bytes — the serve read the body
// into a lease of its own under the engine lock, so the store's discard and
// the release of its body slab did not touch it. A serve that shipped the
// slab's bytes in place would encode poison below.
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
// early. That is the lease's last release, so it goes back to the pool
// poisoned, and the response encodes 0xDB where the diff was — no
// requester can rebuild the writer's page from it — and the serve's own
// release, one too many now, panics instead of recycling the lease twice.
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
