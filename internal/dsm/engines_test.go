package dsm

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/hb"
	"repro/internal/mem"
)

// TestModeValidation: dsm.New accepts exactly the supported modes, and
// parsing/naming comes from one place.
func TestModeValidation(t *testing.T) {
	if _, err := New(Config{Procs: 2, SpaceSize: 4096, PageSize: 512, Mode: Mode(99)}); err == nil {
		t.Error("New accepted Mode(99)")
	} else if !strings.Contains(err.Error(), ModeNames()) {
		t.Errorf("error %q does not enumerate the supported modes %q", err, ModeNames())
	}
	for _, m := range Modes {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil || !strings.Contains(err.Error(), ModeNames()) {
		t.Errorf("ParseMode(bogus) error %v does not enumerate the supported modes", err)
	}
	if Mode(99).String() != "Mode(99)" {
		t.Errorf("Mode(99).String() = %q", Mode(99).String())
	}
	if Mode(99).Valid() {
		t.Error("Mode(99) reported valid")
	}
	if want := "LI, LU, EI, EU, SC"; ModeNames() != want {
		t.Errorf("ModeNames() = %q, want %q", ModeNames(), want)
	}
}

// TestSendErrorsSurfaceOnClose: protocol errors recorded by the handler
// goroutines surface through System.Close instead of vanishing; expected
// shutdown errors (interconnect closure) stay filtered.
func TestSendErrorsSurfaceOnClose(t *testing.T) {
	s, err := New(Config{Procs: 2, SpaceSize: 4096, PageSize: 512, Mode: LazyInvalidate})
	if err != nil {
		t.Fatal(err)
	}
	n := s.Node(0)
	n.noteErr("lock 3 grant to 1", errors.New("boom"))
	n.noteErr("shutdown race", fmt.Errorf("wrapped: %w", ErrClosed))
	cerr := s.Close()
	if cerr == nil {
		t.Fatal("Close returned nil despite a recorded protocol error")
	}
	if !strings.Contains(cerr.Error(), "lock 3 grant to 1") || !strings.Contains(cerr.Error(), "boom") {
		t.Errorf("Close error %q does not carry the recorded failure", cerr)
	}
	if strings.Contains(cerr.Error(), "shutdown race") {
		t.Errorf("Close error %q surfaces an expected shutdown error", cerr)
	}
	// Idempotent: same error on every call.
	if again := s.Close(); again == nil || again.Error() != cerr.Error() {
		t.Errorf("second Close = %v, want the same error", again)
	}
}

// TestLockChainContention drives one lock through deep request chains:
// five nodes hammer the same lock simultaneously, so the manager keeps
// forwarding requests to holders that have not released yet (the
// `pending` path), and each round ends with a cached local
// reacquisition. No existing test exercised the forwarded-request chain
// with more than two contenders.
func TestLockChainContention(t *testing.T) {
	allModes(t, func(t *testing.T, mode Mode) {
		const procs, iters = 5, 20
		s, err := New(Config{Procs: procs, SpaceSize: 64 * 1024, PageSize: 1024, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
		const l = mem.LockID(7)
		countUnderLock(t, []*System{s}, 1, l, 0, iters)
		// The storm is over and node 0 took the lock last: it reacquires
		// it locally (the `cached` path) — no lock messages may travel.
		n := s.Node(0)
		before := s.NetStats().Messages
		must(t, n.Acquire(l))
		must(t, n.Release(l))
		if after := s.NetStats().Messages; after != before {
			t.Errorf("cached reacquisition moved %d messages, want 0", after-before)
		}
	})
}

// TestGCHomeNeverTouchedPageRegression is the regression test for the
// barrier-time GC hole: a page whose home never accesses it is modified
// across several GC epochs (lock rounds between barriers), every epoch
// discards the covered diffs, and only afterwards does a node that never
// saw the page cold-miss on it. The home must have materialized the page
// during the GC rounds — on the seed, weakening runGC's home
// materialization made exactly this sequence panic with "asked for diff
// ... it does not hold" at the diff creator.
func TestGCHomeNeverTouchedPageRegression(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		const procs = 4
		s, err := New(Config{
			Procs: procs, SpaceSize: 32 * 1024, PageSize: 1024,
			Mode: mode, GCEveryBarriers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
		// Page 6: home is node 2, which never reads or writes it.
		// Node 3 never touches it either until the very end.
		const addr = mem.Addr(6 * 1024)
		const rounds = 3
		var wg sync.WaitGroup
		errs := make([]error, procs)
		for i := 0; i < procs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer func() {
					if errs[i] != nil {
						// Unblock peers parked in the barrier or GC round,
						// so a protocol failure reports instead of hanging.
						s.Close()
					}
				}()
				n := s.Node(i)
				for r := 0; r < rounds; r++ {
					switch i {
					case 0: // the writer, under a lock
						if err := n.Acquire(0); err != nil {
							errs[i] = err
							return
						}
						if err := n.WriteUint64(addr, uint64(1000+r)); err != nil {
							errs[i] = err
							return
						}
						if err := n.Release(0); err != nil {
							errs[i] = err
							return
						}
					case 1: // a reader that pulls the diff through the lock
						if err := n.Acquire(0); err != nil {
							errs[i] = err
							return
						}
						if _, err := n.ReadUint64(addr); err != nil {
							errs[i] = err
							return
						}
						if err := n.Release(0); err != nil {
							errs[i] = err
							return
						}
					}
					// GC epoch: every covered diff is discarded.
					if err := n.Barrier(0); err != nil {
						errs[i] = err
						return
					}
				}
				if i == 3 {
					// Cold miss after the final GC: served by the home's
					// materialized copy, no pre-epoch diffs exist anymore.
					v, err := n.ReadUint64(addr)
					if err != nil {
						errs[i] = err
						return
					}
					if v != uint64(1000+rounds-1) {
						errs[i] = fmt.Errorf("cold read after GC = %d, want %d", v, 1000+rounds-1)
					}
				}
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				// Report every node's error: the root cause (a GC
				// invariant violation, say) may sit behind the induced
				// shutdown errors of its peers.
				t.Errorf("node %d: %v", i, err)
			}
		}
		if t.Failed() {
			t.FailNow()
		}
		var discarded int64
		for i := 0; i < procs; i++ {
			discarded += s.Node(i).Stats().DiffsDiscarded
		}
		if discarded == 0 {
			t.Error("GC discarded no diffs: the regression scenario was not reached")
		}
	})
}

// TestFalseSharingLockedCounters hammers disjoint lock-protected
// counters that share one page: the eager engines must merge concurrent
// critical sections' diffs (EI reconciliation bases, EU updates landing
// on twins), and SC must ping-pong ownership, without losing an increment.
func TestFalseSharingLockedCounters(t *testing.T) {
	allModes(t, func(t *testing.T, mode Mode) {
		const procs, iters, counters = 4, 15, 4
		s, err := New(Config{Procs: procs, SpaceSize: 16 * 1024, PageSize: 4096, Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
		logs := hb.NewLogs(procs)
		driveSlots(t, []*System{s}, 1, func(node *Node, i int) error {
			n := recNode{node, logs[i]}
			for k := 0; k < iters; k++ {
				c := (i + k) % counters
				if err := n.Acquire(mem.LockID(c)); err != nil {
					return err
				}
				v, err := n.ReadUint64(mem.Addr(c * 512))
				if err != nil {
					return err
				}
				if err := n.WriteUint64(mem.Addr(c*512), v+1); err != nil {
					return err
				}
				if err := n.Release(mem.LockID(c)); err != nil {
					return err
				}
			}
			return n.Barrier(0)
		})
		n := recNode{s.Node(0), logs[0]}
		for c := 0; c < counters; c++ {
			_, err := n.ReadUint64(mem.Addr(c * 512))
			must(t, err)
		}
		checkHistory(t, logs, hb.RaceFree)
	})
}

// TestBarrierFalseSharingChurn is the regression test for the
// directory-order race this PR fixed: every node writes its own slice of
// one page with no locks, synchronizes, and checks every slice, over
// enough rounds and trials that ownership grants, revocations and
// in-flight installs interleave heavily. (A home that read its own
// memory directly instead of queueing behind its in-flight grants served
// stale pages here roughly once per ten trials.)
func TestBarrierFalseSharingChurn(t *testing.T) {
	trials := 10
	if testing.Short() {
		trials = 3
	}
	allModes(t, func(t *testing.T, mode Mode) {
		for trial := 0; trial < trials; trial++ {
			const procs, rounds = 4, 5
			s, err := New(Config{Procs: procs, SpaceSize: 16 * 1024, PageSize: 4096, Mode: mode})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			errs := make([]error, procs)
			for i := 0; i < procs; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					n := s.Node(i)
					for r := 0; r < rounds; r++ {
						if err := n.WriteUint64(mem.Addr(i*512), uint64(r*100+i)); err != nil {
							errs[i] = err
							return
						}
						if err := n.Barrier(0); err != nil {
							errs[i] = err
							return
						}
						for k := 0; k < procs; k++ {
							v, err := n.ReadUint64(mem.Addr(k * 512))
							if err != nil {
								errs[i] = err
								return
							}
							if v != uint64(r*100+k) {
								errs[i] = fmt.Errorf("round %d: node %d sees slot %d = %d, want %d", r, i, k, v, r*100+k)
								return
							}
						}
						if err := n.Barrier(0); err != nil {
							errs[i] = err
							return
						}
					}
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("trial %d node %d: %v", trial, i, err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatalf("trial %d Close: %v", trial, err)
			}
		}
	})
}

// TestEngineStatsMove checks that each engine's characteristic counters
// actually count: flushes and invalidations under EI, update diffs under
// EU, page ships and ownership transfers under SC.
func TestEngineStatsMove(t *testing.T) {
	run := func(mode Mode) []Stats {
		t.Helper()
		const procs = 3
		s, err := New(Config{Procs: procs, SpaceSize: 8 * 1024, PageSize: 1024, Mode: mode})
		must(t, err)
		defer func() {
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
		var wg sync.WaitGroup
		errs := make([]error, procs)
		for i := 0; i < procs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				n := s.Node(i)
				for r := 0; r < 3; r++ {
					if err := n.Acquire(0); err != nil {
						errs[i] = err
						return
					}
					v, err := n.ReadUint64(512)
					if err != nil {
						errs[i] = err
						return
					}
					if err := n.WriteUint64(512, v+1); err != nil {
						errs[i] = err
						return
					}
					if err := n.Release(0); err != nil {
						errs[i] = err
						return
					}
					if err := n.Barrier(0); err != nil {
						errs[i] = err
						return
					}
				}
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			must(t, err)
		}
		out := make([]Stats, procs)
		for i := range out {
			out[i] = s.Node(i).Stats()
		}
		return out
	}
	sum := func(sts []Stats, f func(Stats) int64) int64 {
		var total int64
		for _, st := range sts {
			total += f(st)
		}
		return total
	}

	ei := run(EagerInvalidate)
	if sum(ei, func(s Stats) int64 { return s.FlushedPages }) == 0 {
		t.Error("EI: no pages flushed")
	}
	if sum(ei, func(s Stats) int64 { return s.InvalsReceived }) == 0 {
		t.Error("EI: no invalidations received")
	}
	eu := run(EagerUpdate)
	if sum(eu, func(s Stats) int64 { return s.UpdatesReceived }) == 0 {
		t.Error("EU: no update diffs received")
	}
	sc := run(SeqConsistent)
	if sum(sc, func(s Stats) int64 { return s.PagesFetched }) == 0 {
		t.Error("SC: no pages shipped")
	}
	if sum(sc, func(s Stats) int64 { return s.OwnershipMoves }) == 0 {
		t.Error("SC: no ownership transfers")
	}
	if sum(sc, func(s Stats) int64 { return s.InvalsReceived }) == 0 {
		t.Error("SC: no invalidations received")
	}
	if sum(sc, func(s Stats) int64 { return s.IntervalsCreated })+sum(sc, func(s Stats) int64 { return s.DiffsApplied }) != 0 {
		t.Error("SC: lazy counters moved")
	}
}
