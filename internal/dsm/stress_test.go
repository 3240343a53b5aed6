package dsm

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/hb"
	"repro/internal/mem"
)

// TestRandomizedStress runs every node through a random mix of
// lock-protected shared-counter updates, owner-private writes, barrier
// rounds and cross-node reads, and hb.Check judges every read. A
// cross-node read races with the owner's writes of the current round, so
// it may return the previous round's value or the concurrent write; each
// round writes distinct values (i*1000+round*16+slot), so one two rounds
// old fails. The counters are read under their locks, so each read must
// return the last increment.
func TestRandomizedStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test in -short mode")
	}
	allModes(t, func(t *testing.T, mode Mode) {
		const (
			procs    = 6
			rounds   = 8
			counters = 3
		)
		s, err := New(Config{
			Procs: procs, SpaceSize: 256 * 1024, PageSize: 1024,
			Mode: mode, GCEveryBarriers: 3,
		})
		must(t, err)
		defer s.Close()

		// Layout: counters at page k (k < counters); private region for
		// node i at 64k + i*4k.
		counterAddr := func(k int) mem.Addr { return mem.Addr(k * 1024) }
		privAddr := func(i, slot int) mem.Addr { return mem.Addr(64*1024 + i*4096 + slot*8) }

		logs := hb.NewLogs(procs)
		var wg sync.WaitGroup
		errs := make([]error, procs)
		for i := 0; i < procs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(i) + 100))
				n := recNode{s.Node(i), logs[i]}
				for round := 0; round < rounds; round++ {
					for op := 0; op < 10; op++ {
						switch rng.Intn(3) {
						case 0: // locked counter increment
							k := rng.Intn(counters)
							if err := n.Acquire(mem.LockID(k)); err != nil {
								errs[i] = err
								return
							}
							v, err := n.ReadUint64(counterAddr(k))
							if err != nil {
								errs[i] = err
								return
							}
							if err := n.WriteUint64(counterAddr(k), v+1); err != nil {
								errs[i] = err
								return
							}
							if err := n.Release(mem.LockID(k)); err != nil {
								errs[i] = err
								return
							}
						case 1: // private write
							slot := rng.Intn(16)
							if err := n.WriteUint64(privAddr(i, slot), uint64(i*1000+round*16+slot)); err != nil {
								errs[i] = err
								return
							}
						case 2: // cross-node read of the previous round's data
							j := rng.Intn(procs)
							if _, err := n.ReadUint64(privAddr(j, rng.Intn(16))); err != nil {
								errs[i] = err
								return
							}
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
				t.Fatalf("node %d: %v", i, err)
			}
		}

		// Node 0, past the last barrier, reads each counter under its lock.
		n := recNode{s.Node(0), logs[0]}
		for k := 0; k < counters; k++ {
			must(t, n.Acquire(mem.LockID(k)))
			_, err := n.ReadUint64(counterAddr(k))
			must(t, err)
			must(t, n.Release(mem.LockID(k)))
		}
		st := checkHistory(t, logs, hb.AllowRaces)
		t.Logf("%d reads checked, %d racy", st.Reads, st.Races)
		if s.NetStats().Messages == 0 {
			t.Error("stress run produced no interconnect traffic")
		}
	})
}

// TestSequentialConsistencyForProperlyLabeled: per Gharachorloo et al.
// (paper §2), a properly-labeled program observes what a sequential
// memory would show it — which, for a race-free history, is exactly
// every read returning its hb1-maximal write.
func TestSequentialConsistencyForProperlyLabeled(t *testing.T) {
	allModes(t, func(t *testing.T, mode Mode) {
		const procs = 4
		s := newSys(t, procs, mode)

		// The program: round-robin token passing through locks; each node
		// appends its id to a shared log at the cursor, all protected by
		// one lock. Every observer then reads the whole log under the
		// lock: a lost or torn append is a stale read.
		total := 24
		logs := hb.NewLogs(procs)
		driveNodes(t, []*System{s}, func(node *Node) error {
			i := int(node.ID())
			n := recNode{node, logs[i]}
			for {
				if err := n.Acquire(0); err != nil {
					return err
				}
				cur, err := n.ReadUint64(0)
				if err != nil {
					return err
				}
				if cur >= uint64(total) {
					return n.Release(0)
				}
				// Append our id at the cursor and advance.
				if err := n.WriteUint64(mem.Addr(8+8*cur), uint64(i)+1); err != nil {
					return err
				}
				if err := n.WriteUint64(0, cur+1); err != nil {
					return err
				}
				if err := n.Release(0); err != nil {
					return err
				}
			}
		})
		for obs := 0; obs < procs; obs++ {
			n := recNode{s.Node(obs), logs[obs]}
			must(t, n.Acquire(0))
			for k := 0; k < total; k++ {
				_, err := n.ReadUint64(mem.Addr(8 + 8*k))
				must(t, err)
			}
			must(t, n.Release(0))
		}
		checkHistory(t, logs, hb.RaceFree)
	})
}

// TestTwoSystemsSideBySide checks complete isolation between DSM
// instances: writes and synchronization in one never leak into the other.
func TestTwoSystemsSideBySide(t *testing.T) {
	a := newSys(t, 2, LazyInvalidate)
	b := newSys(t, 2, LazyUpdate)
	runRound := func(s *System, val uint64) {
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				n := s.Node(i)
				if i == 0 {
					must(t, n.WriteUint64(0, val))
				}
				must(t, n.Barrier(0))
				v, err := n.ReadUint64(0)
				must(t, err)
				if v != val {
					t.Errorf("system with val %d: node %d read %d", val, i, v)
				}
			}(i)
		}
		wg.Wait()
	}
	runRound(a, 1)
	runRound(b, 2)
	if got := mustRead(t, a.Node(0), 0); got != 1 {
		t.Errorf("system a sees %d after system b's round", got)
	}
}

func mustRead(t *testing.T, n *Node, addr mem.Addr) uint64 {
	t.Helper()
	v, err := n.ReadUint64(addr)
	must(t, err)
	return v
}
