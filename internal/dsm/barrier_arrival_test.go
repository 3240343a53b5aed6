package dsm

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/vc"
	"repro/internal/wire"
)

// Barrier arrivals carry the arriver's own intervals only. These tests
// pin the three properties that rests on: the master still ends up with
// the union and hands every node the whole log; an arrival naming another
// processor's interval is a forgery; and no grant ever exports a log that
// is not closed under happened-before.

// lazyOf returns node n's engine, an LI or LU one.
func lazyOf(n *Node) *lazyEngine { return n.e.(*lazyEngine) }

// planLocked is appendPlanLocked into a list of its own: the plan a miss
// of page pg makes from a copy with the given applied clock.
func (e *lazyEngine) planLocked(pg mem.PageID, applied vc.VC) []core.IntervalID {
	return e.appendPlanLocked(nil, pg, applied)
}

// logOf snapshots every interval in e's log, in (proc, index) order.
func logOf(e *lazyEngine) (clock vc.VC, ivs []core.Interval) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.log.NoticesBetween(vc.New(len(e.v)), e.v, func(iv core.Interval) { ivs = append(ivs, iv) })
	return e.v.Clone(), ivs
}

// checkLogClosed fails unless e's clock covers the timestamp of every
// interval in its log: the node knows everything that happened before
// anything it knows.
func checkLogClosed(t *testing.T, e *lazyEngine) {
	t.Helper()
	clock, ivs := logOf(e)
	for _, iv := range ivs {
		if !clock.Dominates(iv.VC) {
			t.Errorf("node %d holds interval %v stamped %v but its clock is only %v: the log is not closed under happened-before",
				e.n.id, iv.ID, iv.VC, clock)
		}
	}
}

// lockedAdd adds delta to the word at addr under lock l.
func lockedAdd(n *Node, l mem.LockID, addr mem.Addr, delta uint64) error {
	if err := n.Acquire(l); err != nil {
		return err
	}
	v, err := n.ReadUint64(addr)
	if err != nil {
		return err
	}
	if err := n.WriteUint64(addr, v+delta); err != nil {
		return err
	}
	return n.Release(l)
}

// TestOwnOnlyArrivalsDeliverTheWholeLogRepro: four nodes pass two locks round
// so each learns several of the others' intervals, then meet at a
// barrier. Each arrival names only its sender's intervals although the
// sender knows more; the barrier still costs 2(n-1) messages and leaves
// every node with every interval, byte for byte the creator's record.
func TestOwnOnlyArrivalsDeliverTheWholeLogRepro(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		const procs, rounds = 4, 3
		s := newSys(t, procs, mode)
		word := func(i int) mem.Addr { return mem.Addr(i) * 1024 } // one page each
		for r := 0; r < rounds; r++ {
			for i := 0; i < procs; i++ {
				// Lock 0 chains 0 -> 1 -> 2 -> 3, lock 1 the other way.
				if err := lockedAdd(s.Node(i), 0, word(0), 1); err != nil {
					t.Fatal(err)
				}
				if err := lockedAdd(s.Node(procs-1-i), 1, word(1), 1); err != nil {
					t.Fatal(err)
				}
			}
		}

		// What each node would send now: its own intervals, fewer than it
		// knows of.
		for i := 1; i < procs; i++ {
			e := lazyOf(s.Node(i))
			var arrive wire.Msg
			e.mu.Lock()
			known := len(e.intervalsSinceLocked(nil, e.lastEpoch))
			e.mu.Unlock()
			e.arrive(&arrive)
			for _, rec := range arrive.Intervals {
				if rec.Proc != mem.ProcID(i) {
					t.Errorf("node %d's arrival carries interval p%d/%d", i, rec.Proc, rec.Index)
				}
			}
			if len(arrive.Intervals) != 2*rounds || known <= len(arrive.Intervals) {
				t.Errorf("node %d arrives with %d intervals of the %d it knows, want its own %d",
					i, len(arrive.Intervals), known, 2*rounds)
			}
		}

		// LU also revalidates after the barrier, so only LI's barrier is
		// exactly the rendezvous; arrivals and exits are counted for both.
		rendezvous := func() (n int64) {
			for i := 0; i < procs; i++ {
				st := s.Node(i).Stats()
				n += st.KindMsgs[wire.KBarrierArrive] + st.KindMsgs[wire.KBarrierExit]
			}
			return n
		}
		before, beforeAll := rendezvous(), s.NetStats().Messages
		var wg sync.WaitGroup
		errs := make([]error, procs)
		for i := 0; i < procs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = s.Node(i).Barrier(0)
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("node %d: barrier: %v", i, err)
			}
		}
		if got := rendezvous() - before; got != 2*(procs-1) {
			t.Errorf("barrier moved %d arrivals and exits, want %d", got, 2*(procs-1))
		}
		if got := s.NetStats().Messages - beforeAll; mode == LazyInvalidate && got != 2*(procs-1) {
			t.Errorf("barrier moved %d messages, want %d", got, 2*(procs-1))
		}

		// Every node holds every interval, each equal to its creator's.
		wantClock, _ := logOf(lazyOf(s.Node(0)))
		for p := range wantClock {
			if wantClock[p] != 2*rounds-1 {
				t.Fatalf("clock after the barrier = %v, want every entry %d", wantClock, 2*rounds-1)
			}
		}
		creators := make([][]core.Interval, procs)
		for i := range creators {
			_, creators[i] = logOf(lazyOf(s.Node(i)))
		}
		for i := 0; i < procs; i++ {
			e := lazyOf(s.Node(i))
			clock, ivs := logOf(e)
			if !reflect.DeepEqual(clock, wantClock) {
				t.Errorf("node %d clock = %v, want %v", i, clock, wantClock)
			}
			if len(ivs) != procs*2*rounds {
				t.Fatalf("node %d holds %d intervals, want %d", i, len(ivs), procs*2*rounds)
			}
			for k, iv := range ivs {
				// Logs enumerate in (proc, index) order, so the creator's
				// copy sits at the same position of its own log.
				own := creators[iv.ID.Proc][k]
				if iv.ID != own.ID || !reflect.DeepEqual(iv.VC, own.VC) || !reflect.DeepEqual(iv.Pages, own.Pages) {
					t.Errorf("node %d holds %v as %v %v, creator has %v %v %v", i, iv.ID, iv.VC, iv.Pages, own.ID, own.VC, own.Pages)
				}
			}
			checkLogClosed(t, e)
		}
		for i := 0; i < procs; i++ {
			for w := 0; w < 2; w++ {
				if v, err := s.Node(i).ReadUint64(word(w)); err != nil || v != procs*rounds {
					t.Errorf("node %d reads word %d = %d, %v; want %d", i, w, v, err, procs*rounds)
				}
			}
		}
	})
}

// TestForgedArrivalIntervalsRecordedNotAbsorbedRepro: only its creator ships
// an interval, so an arrival naming another processor's is recorded and
// that record dropped — the master's view of that processor must not
// come from a third party — while the arriver's own record still lands.
func TestForgedArrivalIntervalsRecordedNotAbsorbedRepro(t *testing.T) {
	s, peer := puppetCluster(t, 1, Config{SpaceSize: 8192, PageSize: 1024, Mode: LazyInvalidate})
	n := s.Node(0)
	barErr := make(chan error, 1)
	go func() { barErr <- n.Barrier(0) }()

	arrive := &wire.Msg{Kind: wire.KBarrierArrive, Seq: 5, A: 0, B: 1, Sections: []wire.Section{{
		Mode: uint16(LazyInvalidate), VC: vc.VC{0, 0},
		Intervals: []wire.IntervalRec{
			{Proc: 0, Index: 0, VC: vc.VC{0, -1}, Pages: []mem.PageID{3}}, // the master's own, forged
			{Proc: 1, Index: 0, VC: vc.VC{-1, 0}, Pages: []mem.PageID{2}},
		},
	}}}
	if err := peer.Endpoint(1).Send(0, arrive.EncodeAppend(framebuf.Get())); err != nil {
		t.Fatal(err)
	}
	if err := <-barErr; err != nil {
		t.Fatalf("master barrier failed over a droppable forged record: %v", err)
	}
	const want = "carries interval p0/0 of another processor"
	waitNodeErr(t, n, want)
	clock, ivs := logOf(lazyOf(n))
	if !reflect.DeepEqual(clock, vc.VC{-1, 0}) || len(ivs) != 1 || ivs[0].ID != (core.IntervalID{Proc: 1, Index: 0}) {
		t.Errorf("master clock %v, log %v: want only the arriver's own p1/0 absorbed", clock, ivs)
	}
	if cerr := s.Close(); cerr == nil || !strings.Contains(cerr.Error(), want) {
		t.Fatalf("Close = %v, want the recorded forged-arrival cause", cerr)
	}
}

// TestGrantDuringPendingArrivalsStaysClosedRepro: an own-only arrival is not
// closed under happened-before, so the master must not let its log be
// seen part-way through a barrier's arrivals. Here node 3 has arrived —
// with an interval stamped after one of node 2's, which node 2 has not
// yet delivered — when a straggler goroutine of node 1 asks the master's
// handler for a lock. Whatever that grant teaches node 1 must be closed:
// it may name node 3's interval only together with node 2's.
func TestGrantDuringPendingArrivalsStaysClosedRepro(t *testing.T) {
	const procs, gpn = 4, 2
	s, err := New(Config{Procs: procs, SpaceSize: 64 * 1024, PageSize: 1024, Mode: LazyInvalidate, GoroutinesPerNode: gpn})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	const chain, masters mem.LockID = 0, 1
	// 2 then 3 through one lock: node 3's interval is stamped after 2's.
	for _, i := range []int{2, 3} {
		if err := lockedAdd(s.Node(i), chain, 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	// The master is the last holder of the lock the straggler will want.
	if err := lockedAdd(s.Node(0), masters, 1024, 1); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errs := make(chan error, procs*gpn)
	arriveAll := func(i int) {
		for g := 0; g < gpn; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := s.Node(i).Barrier(0); err != nil {
					errs <- fmt.Errorf("node %d: %w", i, err)
				}
			}()
		}
	}
	// Node 3 arrives; the master has not entered the barrier, so the
	// arrival waits on its rendezvous channel.
	arriveAll(3)
	master := s.Node(0)
	waitFor(t, "node 3's arrival to reach the master", func() bool { return len(master.barCh) == 1 })

	straggler := s.Node(1)
	if err := lockedAdd(straggler, masters, 1024, 1); err != nil {
		t.Fatal(err)
	}
	checkLogClosed(t, lazyOf(master))
	checkLogClosed(t, lazyOf(straggler))

	for _, i := range []int{0, 1, 2} {
		arriveAll(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for i := 0; i < procs; i++ {
		checkLogClosed(t, lazyOf(s.Node(i)))
		if v, err := s.Node(i).ReadUint64(0); err != nil || v != 2 {
			t.Errorf("node %d reads the chained word = %d, %v; want 2", i, v, err)
		}
		if v, err := s.Node(i).ReadUint64(1024); err != nil || v != 2 {
			t.Errorf("node %d reads the master's word = %d, %v; want 2", i, v, err)
		}
	}
}

// TestForgedRendezvousRecordedNotCounted: the master counts one message
// per peer in each rendezvous round — a barrier's arrivals, a GC round's
// readies. A message naming a node outside the cluster or the master
// itself is recorded and dropped, the round keeps waiting, and the real
// peer's message is the one answered.
func TestForgedRendezvousRecordedNotCounted(t *testing.T) {
	cases := []struct {
		name   string
		gc     bool // the forgery targets the GC round after the barrier
		forged wire.Msg
		answer wire.Kind
		want   string
	}{
		{"GC ready from node 7", true, wire.Msg{Kind: wire.KGCReady, Seq: 6, A: 0, B: 7},
			wire.KGCDone, "gcready claiming node 7 dropped"},
		{"arrival claiming node 0", false, wire.Msg{Kind: wire.KBarrierArrive, Seq: 6, A: 0, B: 0},
			wire.KBarrierExit, "arrive claiming node 0 dropped"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{SpaceSize: 8192, PageSize: 1024, Mode: LazyInvalidate}
			if tc.gc {
				cfg.GCEveryBarriers = 1
			}
			s, peer := puppetCluster(t, 1, cfg)
			n, ep := s.Node(0), peer.Endpoint(1)
			barErr := make(chan error, 1)
			go func() { barErr <- n.Barrier(0) }()
			if tc.gc {
				puppetSend(t, ep, 0, &wire.Msg{Kind: wire.KBarrierArrive, Seq: 5, A: 0, B: 1})
				awaitReply(t, ep, wire.KBarrierExit, 5)
			}
			puppetSend(t, ep, 0, &tc.forged)
			puppetSend(t, ep, 0, &wire.Msg{Kind: tc.forged.Kind, Seq: 7, A: 0, B: 1})
			awaitReply(t, ep, tc.answer, 7)
			if err := <-barErr; err != nil {
				t.Fatalf("master barrier failed over a droppable forgery: %v", err)
			}
			waitNodeErr(t, n, tc.want)
			if cerr := s.Close(); cerr == nil || !strings.Contains(cerr.Error(), tc.want) {
				t.Fatalf("Close = %v, want the recorded %q cause", cerr, tc.want)
			}
		})
	}
}

// TestRendezvousFloodAtNonMasterIsDropped: rendezvous messages are handed
// to the master's collecting round by the dispatch loop itself, so one
// that reaches any other node — here four forged arrivals, more than the
// channel holds — is recorded and dropped instead of blocking the loop:
// the node still serves a lock exchange, and Close returns naming the drop.
func TestRendezvousFloodAtNonMasterIsDropped(t *testing.T) {
	s, master := puppetCluster(t, 0, Config{SpaceSize: 8192, PageSize: 1024, Mode: LazyInvalidate})
	ep := master.Endpoint(0)
	for i := 0; i < 4; i++ {
		puppetSend(t, ep, 1, &wire.Msg{Kind: wire.KBarrierArrive, Seq: uint64(10 + i), A: 0, B: 0})
	}
	// Lock 1 is managed by node 1, which grants a first request directly.
	puppetSend(t, ep, 1, &wire.Msg{Kind: wire.KLockReq, Seq: 20, A: 1, B: 0})
	awaitReply(t, ep, wire.KLockGrant, 20)
	const want = "arrive from 0 dropped: this node is not the barrier master"
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case cerr := <-closed:
		if cerr == nil || !strings.Contains(cerr.Error(), want) {
			t.Fatalf("Close = %v, want the recorded %q cause", cerr, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return within 5 s")
	}
}
