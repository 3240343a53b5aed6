package dsm

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/hb"
	"repro/internal/mem"
	"repro/internal/transport/tcp"
)

// Concurrent-access torture tests for the sharded node core: many nodes,
// each driven by its one application goroutine, hammer disjoint and
// false-shared pages under every protocol engine, over the in-process
// network and over loopback TCP, and every read must return what the
// program's synchronization promises (hb.Check) — run these under -race
// to sweep the striped page state and the per-sender queues, whose workers
// serve peers beside each node's application goroutine.

// tortureParams scales the hammering to the test mode.
func tortureParams(t *testing.T) (iters int) {
	t.Helper()
	if testing.Short() {
		return 8
	}
	return 25
}

// driveNodes runs body on every local node of every system, one goroutine
// per node, genuinely concurrently, and fails the test on any error.
func driveNodes(t *testing.T, systems []*System, body func(n *Node) error) {
	t.Helper()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var first error
	for _, s := range systems {
		for _, n := range s.Local() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := body(n); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}()
		}
	}
	wg.Wait()
	if first != nil {
		t.Fatal(first)
	}
}

// TestConcurrentDisjointPages: every node owns a private page and
// rewrites it each round; after each barrier every node reads its right
// neighbor's page. Independent pages must fault, install and diff
// in parallel without bleeding into each other.
func TestConcurrentDisjointPages(t *testing.T) {
	const procs = 16
	iters := tortureParams(t)
	allModes(t, func(t *testing.T, mode Mode) {
		s := newSys(t, procs, mode)
		pageSz := s.Layout().PageSize()
		logs := hb.NewLogs(procs)
		driveNodes(t, []*System{s}, func(node *Node) error {
			slot := int(node.ID())
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
				if err := n.Read(buf, mem.Addr((slot+1)%procs*pageSz)); err != nil {
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

// TestConcurrentFalseSharedPage: every node owns one uint64 word of a
// single shared page and bumps it each round — the multiple-writer
// protocols must merge the concurrent same-page writes (twins + diffs),
// SC must serialize them — and after each barrier every node reads the
// whole word array.
func TestConcurrentFalseSharedPage(t *testing.T) {
	const procs = 16
	iters := tortureParams(t)
	allModes(t, func(t *testing.T, mode Mode) {
		s := newSys(t, procs, mode)
		logs := hb.NewLogs(procs)
		driveNodes(t, []*System{s}, func(node *Node) error {
			slot := int(node.ID())
			n := recNode{node, logs[slot]}
			for k := 0; k < iters; k++ {
				if err := n.WriteUint64(mem.Addr(slot*8), uint64(slot+1)*uint64(k+1)); err != nil {
					return err
				}
				if err := n.Barrier(0); err != nil {
					return err
				}
				for sl := 0; sl < procs; sl++ {
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

// TestConcurrentLockedCounters: all nodes hammer a shared counter under
// one lock (pure migratory data) while also bumping a false-shared
// per-node tally under a second lock; both must come out exact, which
// node 0's reads past the last barrier check.
func TestConcurrentLockedCounters(t *testing.T) {
	const procs = 16
	iters := tortureParams(t)
	allModes(t, func(t *testing.T, mode Mode) {
		s := newSys(t, procs, mode)
		const counterAddr, tallyBase = 0, 4096
		logs := hb.NewLogs(procs)
		driveNodes(t, []*System{s}, func(node *Node) error {
			slot := int(node.ID())
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
		for sl := 0; sl < procs; sl++ {
			_, err := n0.ReadUint64(mem.Addr(tallyBase + sl*8))
			must(t, err)
		}
		checkHistory(t, logs, hb.RaceFree)
	})
}

// TestConcurrentImageIdentical: the disjoint + false-shared mix, ending
// with a full-space read-out on node 0 — checked as its read past
// the last barrier — that must also be byte-identical across modes: the
// dsm-level analogue of the workload differential matrix.
func TestConcurrentImageIdentical(t *testing.T) {
	const procs = 8
	iters := tortureParams(t)
	var images [][]byte
	allModes(t, func(t *testing.T, mode Mode) {
		s := newSys(t, procs, mode)
		pageSz := s.Layout().PageSize()
		logs := hb.NewLogs(procs)
		driveNodes(t, []*System{s}, func(node *Node) error {
			slot := int(node.ID())
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
// listener — under every protocol engine.
func TestConcurrentOverTCP(t *testing.T) {
	const procs = 6
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
				Mode: mode, Transport: tr,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer systems[i].Close()
		}
		countUnderLock(t, systems, 0, 0, iters)
	})
}
