package repro_test

import (
	"sync"
	"testing"

	"repro"
)

// TestBatchedFramesRegressionGate is the outbox's CI gate: on the
// barrier-heavy LU write-share pattern over a real loopback TCP cluster
// (the BenchmarkRuntimeBatchedBarrierTCP shape), the measured region
// must move its messages in at most 0.75 frames per message. Without
// coalescing every message is its own frame by construction, so a
// failure means the pipeline stopped coalescing — frames crept back
// toward one per message.
func TestBatchedFramesRegressionGate(t *testing.T) {
	if testing.Short() {
		t.Skip("regression gate runs the full TCP pattern; skipped in short mode")
	}
	const (
		procs        = 4
		pagesPerNode = 4
		pageSize     = 1024
		regionPage   = 16 // write-share region: pages 16..31, page p homed at p%procs
		rounds       = 16
	)
	trs, err := repro.NewLoopbackTCPCluster(procs)
	if err != nil {
		t.Fatal(err)
	}
	systems := make([]*repro.DSM, procs)
	for i, tr := range trs {
		systems[i], err = repro.NewDSM(repro.DSMConfig{
			Procs: procs, SpaceSize: 64 * 1024, PageSize: pageSize,
			Mode: repro.LazyUpdate, Transport: tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer systems[i].Close()
	}
	a := repro.NewArena(systems[0].Layout())
	counter := repro.NewVar[uint64](a)
	lock := a.NewLock()
	pageAddr := func(owner, j int) repro.Addr {
		return repro.Addr((regionPage + j*procs + owner) * pageSize)
	}
	var wg sync.WaitGroup
	run := func(body func(i int, n *repro.Node) error) {
		for i := 0; i < procs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				if err := body(i, systems[i].Node(i)); err != nil {
					t.Error(err)
				}
			}(i)
		}
		wg.Wait()
	}
	// Warm-up round: every node writes its pages, then caches every
	// other node's, so the measured region is steady-state
	// revalidation traffic, not cold misses.
	run(func(i int, n *repro.Node) error {
		for j := 0; j < pagesPerNode; j++ {
			if err := n.WriteUint64(pageAddr(i, j), 1); err != nil {
				return err
			}
		}
		if err := n.Barrier(0); err != nil {
			return err
		}
		for owner := 0; owner < procs; owner++ {
			for j := 0; j < pagesPerNode; j++ {
				if _, err := n.ReadUint64(pageAddr(owner, j)); err != nil {
					return err
				}
			}
		}
		return n.Barrier(0)
	})
	var before repro.TransportStats
	for _, sys := range systems {
		before.Add(sys.NetStats())
	}
	run(func(i int, n *repro.Node) error {
		for k := 0; k < rounds; k++ {
			for j := 0; j < pagesPerNode; j++ {
				if err := n.WriteUint64(pageAddr(i, j), uint64(k)+2); err != nil {
					return err
				}
			}
			if err := repro.Locked(n, lock, func() error {
				_, err := counter.Add(n, 1)
				return err
			}); err != nil {
				return err
			}
			if err := n.Barrier(0); err != nil {
				return err
			}
		}
		return nil
	})
	var after repro.TransportStats
	for _, sys := range systems {
		after.Add(sys.NetStats())
	}
	msgs, frames := after.Messages-before.Messages, after.Frames-before.Frames
	if msgs <= 0 {
		t.Fatal("the measured region moved no messages — the pattern is not exercising the interconnect")
	}
	ratio := float64(frames) / float64(msgs)
	t.Logf("%d messages in %d frames: %.2f frames/message (%.2f frames/critsec)",
		msgs, frames, ratio, float64(frames)/float64(procs*rounds))
	if ratio > 0.75 {
		t.Errorf("%.2f frames per message, gate is 0.75 (25%% below one frame per message)", ratio)
	}
}
