package dsm

import (
	"errors"
	"testing"

	"repro/internal/mem"
	"repro/internal/simnet"
	"repro/internal/wire"
)

// runEagerMultiPageFlush drives the deterministic per-home flush
// aggregation pattern: node 1 dirties four pages all homed at node 0
// inside one critical section, so the release-time flush stages four
// KFlushReqs for one destination.
func runEagerMultiPageFlush(t *testing.T) (Stats, TransportStats) {
	t.Helper()
	s, err := New(Config{
		Procs: 2, SpaceSize: 16 * 1024, PageSize: 1024,
		Mode: EagerUpdate,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := s.Node(1)
	if err := n.Acquire(0); err != nil {
		t.Fatal(err)
	}
	for _, pg := range []int{0, 2, 4, 6} { // even pages are homed at node 0
		if err := n.WriteUint64(mem.Addr(pg*1024), uint64(pg)+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Release(0); err != nil {
		t.Fatal(err)
	}
	st := n.Stats()
	net := s.NetStats()
	// The values must be committed at the home.
	h := s.Node(0)
	for _, pg := range []int{0, 2, 4, 6} {
		v, err := h.ReadUint64(mem.Addr(pg * 1024))
		if err != nil {
			t.Fatal(err)
		}
		if v != uint64(pg)+1 {
			t.Errorf("page %d word = %d, want %d", pg, v, pg+1)
		}
	}
	return st, net
}

// TestOutboxBatchesFlushBurst: the eager release's four same-home flush
// requests leave as one batch frame — four messages, fewer frames — and
// the node's outbox counters agree with the interconnect's.
func TestOutboxBatchesFlushBurst(t *testing.T) {
	st, net := runEagerMultiPageFlush(t)

	if st.KindMsgs[wire.KFlushReq] != 4 {
		t.Errorf("flusher sent %d KFlushReqs, want 4", st.KindMsgs[wire.KFlushReq])
	}
	if st.SentFrames >= st.SentMsgs {
		t.Errorf("the outbox coalesced nothing: %d msgs in %d frames", st.SentMsgs, st.SentFrames)
	}
	if st.SentBatches == 0 {
		t.Error("no batch frames sent")
	}
	if net.Frames >= net.Messages {
		t.Errorf("interconnect saw %d messages in %d frames — expected fewer frames", net.Messages, net.Frames)
	}
	if net.Batches == 0 {
		t.Error("interconnect counted no batch frames")
	}
	// Per-kind byte accounting sums to the total outbound bytes.
	var kindTotal int64
	for _, b := range st.KindBytes {
		kindTotal += b
	}
	if kindTotal != st.SentBytes {
		t.Errorf("per-kind bytes sum to %d, SentBytes = %d", kindTotal, st.SentBytes)
	}
}

// TestOutboxPreservesFIFO: staged (deferred) and immediate sends to one
// destination must leave in staging order. The protocol's directory
// invariants test this implicitly everywhere; here the outbox is driven
// directly so a regression points at the pipeline, not a protocol.
func TestOutboxPreservesFIFO(t *testing.T) {
	// Drive an outbox directly over a raw simnet pair, observing the
	// frames on the wire.
	raw := simnet.New(2)
	defer raw.Close()
	a, b := raw.Endpoint(0), raw.Endpoint(1)
	o := &outbox{n: &Node{id: 0, ep: a}, dsts: make([]outDest, 2)}

	mk := func(seq uint64) *wire.Msg { return &wire.Msg{Kind: wire.KInval, Seq: seq, A: 1} }
	o.stage(1, mk(1))
	o.stage(1, mk(2))
	if err := o.send(1, mk(3)); err != nil { // flushes 1,2,3 as one batch
		t.Fatal(err)
	}
	if err := o.send(1, mk(4)); err != nil { // plain frame
		t.Fatal(err)
	}
	var seqs []uint64
	for len(seqs) < 4 {
		_, payload, ok := b.Recv()
		if !ok {
			t.Fatal("raw recv failed")
		}
		if wire.IsBatch(payload) {
			msgs, err := wire.DecodeBatch(payload)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range msgs {
				seqs = append(seqs, m.Seq)
			}
		} else {
			m, err := wire.Decode(payload)
			if err != nil {
				t.Fatal(err)
			}
			seqs = append(seqs, m.Seq)
		}
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("arrival order %v, want staging order 1..4", seqs)
		}
	}
	tot := raw.Totals()
	if tot.Messages != 4 || tot.Frames != 2 || tot.Batches != 1 {
		t.Errorf("raw totals = %+v, want 4 msgs in 2 frames (1 batch)", tot)
	}
}

// failEndpoint fails every remote send, like a poisoned TCP stream.
type failEndpoint struct{ err error }

func (f *failEndpoint) ID() int                   { return 0 }
func (f *failEndpoint) Send(int, []byte) error    { return f.err }
func (f *failEndpoint) Recv() (int, []byte, bool) { return 0, nil, false }

// TestOutboxStickyFlushError: a send failure must reach whoever staged
// for the destination, not just whoever happened to flush it. A shard
// worker's drain-point flushAll can race into the window between an
// rpc's stage and its own flush; if the worker's flush eats the error,
// the requester's empty-queue flush must still return the
// destination's sticky failure — otherwise the requester parks in
// await forever while the error sits in the worker's log.
func TestOutboxStickyFlushError(t *testing.T) {
	broken := errors.New("peer stream broken")
	o := &outbox{n: &Node{id: 0, ep: &failEndpoint{err: broken}}, dsts: make([]outDest, 2)}

	// The rpc path stages its request...
	o.stage(1, &wire.Msg{Kind: wire.KLockReq, Seq: 1})
	// ...a concurrent worker drain flushes it and hits the dead stream.
	if err := o.flushAll(); !errors.Is(err, broken) {
		t.Fatalf("worker flush error = %v, want the send failure", err)
	}
	// The requester's own flush finds an empty queue — it must still
	// observe the sticky error instead of returning nil.
	if err := o.flushDst(1); !errors.Is(err, broken) {
		t.Fatalf("empty-queue flush error = %v, want sticky send failure", err)
	}
	// Later sends to the destination fail fast too.
	if err := o.send(1, &wire.Msg{Kind: wire.KLockReq, Seq: 2}); !errors.Is(err, broken) {
		t.Fatalf("send after break = %v, want sticky send failure", err)
	}
}
