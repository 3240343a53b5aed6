package dsm

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/wire"
)

// TestRPCHistogramCountsEveryRequest: with metrics configured, every
// request a node awaits is an observation of its rpc latency histogram —
// the diff fetches a miss sends as one group as well as its page fetches
// and lock requests. An LI writer rewrites four pages under a lock; the
// reader takes the lock and reads them, round after round.
func TestRPCHistogramCountsEveryRequest(t *testing.T) {
	const pages, rounds = 4, 3
	s, err := New(Config{Procs: 2, SpaceSize: 64 * 1024, PageSize: 1024, Mode: LazyInvalidate, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	writer, reader := s.Node(0), s.Node(1)
	for r := 0; r < rounds; r++ {
		must(t, writer.Acquire(0))
		for pg := 0; pg < pages; pg++ {
			must(t, writer.WriteUint64(mem.Addr(pg*1024), uint64(r+1)))
		}
		must(t, writer.Release(0))
		must(t, reader.Acquire(0))
		for pg := 0; pg < pages; pg++ {
			if v, err := reader.ReadUint64(mem.Addr(pg * 1024)); err != nil || v != uint64(r+1) {
				t.Fatalf("round %d: page %d reads %d, %v", r, pg, v, err)
			}
		}
		must(t, reader.Release(0))
	}
	st := reader.Stats()
	diffs := st.KindMsgs[wire.KDiffReq]
	sent := diffs + st.KindMsgs[wire.KPageReq] + st.KindMsgs[wire.KLockReq]
	if got := reader.rpcHist.Count(); diffs == 0 || got < sent {
		t.Errorf("the reader awaited %d requests (%d of them diff requests) and its rpc histogram counted %d", sent, diffs, got)
	}
}
