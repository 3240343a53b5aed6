package dsm

import (
	"bytes"
	"errors"
	"fmt"
	stdnet "net"
	"testing"

	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/simnet"
	"repro/internal/testenv"
	"repro/internal/vc"
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

// captureEndpoint keeps the bytes of the last frame it was handed and
// recycles the buffer, like a receiver that has consumed it.
type captureEndpoint struct{ got []byte }

func (c *captureEndpoint) ID() int                   { return 0 }
func (c *captureEndpoint) Recv() (int, []byte, bool) { return 0, nil, false }
func (c *captureEndpoint) Send(_ int, payload []byte) error {
	c.got = append(c.got[:0], payload...)
	framebuf.Put(payload)
	return nil
}
func (c *captureEndpoint) SendBatch(_ int, frames stdnet.Buffers) error {
	c.got = c.got[:0]
	for _, f := range frames {
		c.got = append(c.got, f...)
	}
	return nil
}

// stageGrant is a lock grant as a releaser sends it: a 4-entry clock and
// one interval record.
func stageGrant(seq uint64) *wire.Msg {
	return &wire.Msg{
		Kind: wire.KLockGrant, Seq: seq, A: 3, VC: vc.VC{4, 5, 6, 7},
		Intervals: []wire.IntervalRec{{Proc: 1, Index: 5, VC: vc.VC{4, 5, 6, 6}, Pages: []mem.PageID{2, 9}}},
	}
}

// TestStageEncodesAtStage: staging is encoding. What a flush sends is,
// byte for byte, the plain encoding of a lone staged message and the batch
// frame of several — the wire format did not move when the encoder did —
// and the message is the caller's again when stage returns (mutating it
// afterwards changes nothing).
func TestStageEncodesAtStage(t *testing.T) {
	ep := &captureEndpoint{}
	o := &outbox{n: &Node{id: 0, ep: ep}, dsts: make([]outDest, 2)}
	for _, count := range []int{1, 3} {
		var want []byte
		if count > 1 {
			want = wire.AppendBatchHeader(want, count)
		}
		for i := 0; i < count; i++ {
			m := stageGrant(uint64(100 + i))
			if count == 1 {
				want = m.EncodeAppend(want)
			} else {
				want, _ = wire.AppendBatched(want, m)
			}
			o.stage(1, m)
			m.Seq, m.VC[0], m.Intervals[0].Pages[0] = 0, -1, 77 // dead to the outbox
		}
		if err := o.flushDst(1); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ep.got, want) {
			t.Errorf("%d staged: flushed frame\n%x\nwant\n%x", count, ep.got, want)
		}
	}
}

// TestStageFlushAllocatesNothingGate: staging and flushing one message,
// or a batch of three, allocates nothing once the frame free list is warm.
func TestStageFlushAllocatesNothingGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	o := &outbox{n: &Node{id: 0, ep: &captureEndpoint{}}, dsts: make([]outDest, 2)}
	for _, count := range []int{1, 3} {
		msgs := []*wire.Msg{stageGrant(1), stageGrant(2), stageGrant(3)}[:count]
		if allocs := testing.AllocsPerRun(200, func() {
			for _, m := range msgs {
				o.stage(1, m)
			}
			if err := o.flushDst(1); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%d staged: stage + flush allocate %.1f objects per round, want 0", count, allocs)
		}
	}
}

// BenchmarkWireStageFlush is the outbox's half of the message path, next
// to internal/wire's codec benches: one grant staged and flushed, and
// three staged and flushed as a batch.
func BenchmarkWireStageFlush(b *testing.B) {
	for _, count := range []int{1, 3} {
		b.Run(fmt.Sprintf("msgs=%d", count), func(b *testing.B) {
			o := &outbox{n: &Node{id: 0, ep: &captureEndpoint{}}, dsts: make([]outDest, 2)}
			msgs := []*wire.Msg{stageGrant(1), stageGrant(2), stageGrant(3)}[:count]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, m := range msgs {
					o.stage(1, m)
				}
				if err := o.flushDst(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
