package dsm

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/vc"
	"repro/internal/wire"
)

// Barrier arrivals carry the arriver's own intervals only. These tests
// pin two of the three properties that rests on: the master still ends up
// with the union and hands every node the whole log, and no grant ever
// exports a log that is not closed under happened-before. The third, that
// an arrival naming another processor's interval is a forgery, is a row of
// the hostile-peer table (TestForgedArrivalIntervalsRecordedNotAbsorbedRepro).

// lazyOf returns node n's engine, an LI or LU one.
func lazyOf(n *Node) *lazyEngine { return n.e.(*lazyEngine) }

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
			known := len(e.intervalsSinceLocked(&wire.Msg{}, e.lastEpoch))
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

// TestCollectingBarrierMovesOnlyArrivalsAndExits: the GC epoch has no
// round of its own. Four nodes collecting at every barrier pass a lock
// round, meet at a barrier that validates the epoch, then meet again with
// nothing written: the second barrier discards the first one's epoch on
// every node and moves its 2(n-1) arrivals and exits, not a message more.
func TestCollectingBarrierMovesOnlyArrivalsAndExits(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		const procs = 4
		s, err := New(Config{Procs: procs, SpaceSize: 64 * 1024, PageSize: 1024, Mode: mode, GCEveryBarriers: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		})
		for i := 0; i < procs; i++ {
			if err := lockedAdd(s.Node(i), 0, 0, 1); err != nil {
				t.Fatal(err)
			}
		}
		barriers(t, s, 1)
		before := s.NetStats().Messages
		barriers(t, s, 1)
		if got := s.NetStats().Messages - before; got != 2*(procs-1) {
			t.Errorf("a collecting barrier with nothing written moved %d messages, want %d", got, 2*(procs-1))
		}
		for i := 0; i < procs; i++ {
			if runs := s.Node(i).Stats().GCRuns; runs != 1 {
				t.Errorf("node %d completed %d GC epochs, want the first barrier's", i, runs)
			}
		}
	})
}

// TestGrantDuringPendingArrivalsStaysClosedRepro: an own-only arrival is not
// closed under happened-before, so the master must not let its log be
// seen part-way through a barrier's arrivals. Here node 3 has arrived —
// with an interval stamped after one of node 2's, which node 2 has not
// yet delivered — when node 1, which has not arrived yet, asks the
// master's handler for a lock. Whatever that grant teaches node 1 must be
// closed: it may name node 3's interval only together with node 2's.
func TestGrantDuringPendingArrivalsStaysClosedRepro(t *testing.T) {
	const procs = 4
	s, err := New(Config{Procs: procs, SpaceSize: 64 * 1024, PageSize: 1024, Mode: LazyInvalidate})
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
	errs := make(chan error, procs)
	arrive := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Node(i).Barrier(0); err != nil {
				errs <- fmt.Errorf("node %d: %w", i, err)
			}
		}()
	}
	// Node 3 arrives; the master has not entered the barrier, so the
	// arrival waits on its rendezvous channel.
	arrive(3)
	master := s.Node(0)
	waitFor(t, "node 3's arrival to reach the master", func() bool { return len(master.barCh) == 1 })

	straggler := s.Node(1)
	if err := lockedAdd(straggler, masters, 1024, 1); err != nil {
		t.Fatal(err)
	}
	checkLogClosed(t, lazyOf(master))
	checkLogClosed(t, lazyOf(straggler))

	for _, i := range []int{0, 1, 2} {
		arrive(i)
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
