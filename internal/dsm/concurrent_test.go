package dsm

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/hb"
	"repro/internal/mem"
	"repro/internal/transport/tcp"
)

// Concurrent-access torture tests for the sharded node core: N
// application goroutines per node hammer disjoint and false-shared
// pages under every protocol engine, over the in-process network and
// over loopback TCP, and every read must return what the program's
// synchronization promises (hb.Check) — run these under -race
// to sweep the striped page state, the shard queues and the two-level
// lock/barrier machinery.

// tortureParams scales the hammering to the test mode.
func tortureParams(t *testing.T) (iters int) {
	t.Helper()
	if testing.Short() {
		return 8
	}
	return 25
}

// newSysGPN builds a simnet system with gpn application goroutines per
// node declared for the barrier rendezvous.
func newSysGPN(t *testing.T, procs, gpn int, mode Mode) *System {
	t.Helper()
	s, err := New(Config{
		Procs: procs, SpaceSize: 256 * 1024, PageSize: 1024,
		Mode: mode, GoroutinesPerNode: gpn,
	})
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

// driveSlots runs body once per (node, goroutine) slot across every
// local node of every system, genuinely concurrently, and fails the
// test on any error. slot = nodeID*gpn + g is a cluster-unique id.
func driveSlots(t *testing.T, systems []*System, gpn int, body func(n *Node, slot int) error) {
	t.Helper()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	for _, s := range systems {
		for _, n := range s.Local() {
			for g := 0; g < gpn; g++ {
				wg.Add(1)
				go func(n *Node, slot int) {
					defer wg.Done()
					if err := body(n, slot); err != nil {
						mu.Lock()
						if first == nil {
							first = err
						}
						mu.Unlock()
					}
				}(n, int(n.ID())*gpn+g)
			}
		}
	}
	wg.Wait()
	if first != nil {
		t.Fatal(first)
	}
}

// TestConcurrentDisjointPages: every goroutine owns a private page and
// rewrites it each round; after each barrier every goroutine reads its
// right neighbor's page. Independent pages must fault, install and diff
// in parallel without bleeding into each other.
func TestConcurrentDisjointPages(t *testing.T) {
	const procs, gpn = 4, 4
	iters := tortureParams(t)
	allModes(t, func(t *testing.T, mode Mode) {
		s := newSysGPN(t, procs, gpn, mode)
		slots := procs * gpn
		pageSz := s.Layout().PageSize()
		logs := hb.NewLogs(slots)
		driveSlots(t, []*System{s}, gpn, func(node *Node, slot int) error {
			n := recNode{node, logs[slot]}
			buf := make([]byte, pageSz)
			for k := 0; k < iters; k++ {
				for i := range buf {
					buf[i] = byte(slot*31 + k*7 + 1)
				}
				if err := n.Write(mem.Addr(slot*pageSz), buf); err != nil {
					return err
				}
				if err := n.Barrier(0); err != nil {
					return err
				}
				if err := n.Read(buf, mem.Addr((slot+1)%slots*pageSz)); err != nil {
					return err
				}
				if err := n.Barrier(1); err != nil {
					return err
				}
			}
			return nil
		})
		checkHistory(t, logs, hb.RaceFree)
	})
}

// TestConcurrentFalseSharedPage: every goroutine owns one uint64 word
// of a single shared page and bumps it each round — the multiple-writer
// protocols must merge the concurrent same-page writes (twins + diffs),
// SC must serialize them — and after each barrier every goroutine
// reads the whole word array.
func TestConcurrentFalseSharedPage(t *testing.T) {
	const procs, gpn = 4, 4
	iters := tortureParams(t)
	allModes(t, func(t *testing.T, mode Mode) {
		s := newSysGPN(t, procs, gpn, mode)
		slots := procs * gpn
		logs := hb.NewLogs(slots)
		driveSlots(t, []*System{s}, gpn, func(node *Node, slot int) error {
			n := recNode{node, logs[slot]}
			for k := 0; k < iters; k++ {
				if err := n.WriteUint64(mem.Addr(slot*8), uint64(slot+1)*uint64(k+1)); err != nil {
					return err
				}
				if err := n.Barrier(0); err != nil {
					return err
				}
				for sl := 0; sl < slots; sl++ {
					if _, err := n.ReadUint64(mem.Addr(sl * 8)); err != nil {
						return err
					}
				}
				if err := n.Barrier(1); err != nil {
					return err
				}
			}
			return nil
		})
		checkHistory(t, logs, hb.RaceFree)
	})
}

// TestConcurrentLockedCounters: all goroutines of all nodes hammer a
// shared counter under one lock (pure migratory data, local handoffs
// interleaved with remote transfers) while also bumping a false-shared
// per-slot tally under a second lock; both must come out exact, which
// slot 0's reads past the last barrier check.
func TestConcurrentLockedCounters(t *testing.T) {
	const procs, gpn = 4, 4
	iters := tortureParams(t)
	allModes(t, func(t *testing.T, mode Mode) {
		s := newSysGPN(t, procs, gpn, mode)
		slots := procs * gpn
		const counterAddr, tallyBase = 0, 4096
		logs := hb.NewLogs(slots)
		driveSlots(t, []*System{s}, gpn, func(node *Node, slot int) error {
			n := recNode{node, logs[slot]}
			for k := 0; k < iters; k++ {
				if err := n.Acquire(0); err != nil {
					return err
				}
				v, err := n.ReadUint64(counterAddr)
				if err != nil {
					return err
				}
				if err := n.WriteUint64(counterAddr, v+1); err != nil {
					return err
				}
				if err := n.Release(0); err != nil {
					return err
				}
				if err := n.Acquire(1); err != nil {
					return err
				}
				v, err = n.ReadUint64(mem.Addr(tallyBase + slot*8))
				if err != nil {
					return err
				}
				if err := n.WriteUint64(mem.Addr(tallyBase+slot*8), v+2); err != nil {
					return err
				}
				if err := n.Release(1); err != nil {
					return err
				}
			}
			return n.Barrier(0)
		})
		n0 := recNode{s.Node(0), logs[0]}
		_, err := n0.ReadUint64(counterAddr)
		must(t, err)
		for sl := 0; sl < slots; sl++ {
			_, err := n0.ReadUint64(mem.Addr(tallyBase + sl*8))
			must(t, err)
		}
		checkHistory(t, logs, hb.RaceFree)
	})
}

// TestConcurrentImageIdentical: the disjoint + false-shared mix, ending
// with a full-space read-out on node 0 — checked as slot 0's read past
// the last barrier — that must also be byte-identical across modes: the
// dsm-level analogue of the workload differential matrix.
func TestConcurrentImageIdentical(t *testing.T) {
	const procs, gpn = 4, 2
	iters := tortureParams(t)
	var images [][]byte
	allModes(t, func(t *testing.T, mode Mode) {
		s := newSysGPN(t, procs, gpn, mode)
		pageSz := s.Layout().PageSize()
		logs := hb.NewLogs(procs * gpn)
		driveSlots(t, []*System{s}, gpn, func(node *Node, slot int) error {
			n := recNode{node, logs[slot]}
			for k := 0; k < iters; k++ {
				// Private page, then a false-shared word on page 0.
				row := make([]byte, 64)
				for i := range row {
					row[i] = byte(slot ^ (k + i))
				}
				if err := n.Write(mem.Addr((1+slot)*pageSz), row); err != nil {
					return err
				}
				if err := n.WriteUint64(mem.Addr(slot*8), uint64(slot)<<8|uint64(k)); err != nil {
					return err
				}
				if err := n.Barrier(0); err != nil {
					return err
				}
			}
			return nil
		})
		img := make([]byte, s.Layout().SpaceSize())
		must(t, recNode{s.Node(0), logs[0]}.Read(img, 0))
		checkHistory(t, logs, hb.RaceFree)
		images = append(images, img)
	})
	for i := 1; i < len(images); i++ {
		if !bytes.Equal(images[i], images[0]) {
			t.Fatalf("images diverge between modes %s and %s", Modes[0], Modes[i])
		}
	}
}

// TestConcurrentOverTCP: the locked-counter hammer across a real
// loopback TCP cluster — every node an independent System on its own
// listener, gpn goroutines each — under every protocol engine.
func TestConcurrentOverTCP(t *testing.T) {
	const procs, gpn = 2, 3
	iters := tortureParams(t)
	allModes(t, func(t *testing.T, mode Mode) {
		cluster, err := tcp.NewLoopbackCluster(procs)
		if err != nil {
			t.Fatal(err)
		}
		systems := make([]*System, procs)
		for i, tr := range cluster {
			systems[i], err = New(Config{
				Procs: procs, SpaceSize: 64 * 1024, PageSize: 1024,
				Mode: mode, GoroutinesPerNode: gpn, Transport: tr,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer systems[i].Close()
		}
		countUnderLock(t, systems, gpn, 0, 0, iters)
	})
}
