package dsm

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/simnet"
	"repro/internal/testenv"
	"repro/internal/vc"
	"repro/internal/wire"
)

// flushPages are four pages homed at node 0 of three.
var flushPages = []int{0, 3, 6, 9}

// runEagerMultiPageFlush drives the per-home flush aggregation pattern:
// node 2 reads four pages homed at node 0, then node 1 dirties all four
// inside one critical section, so the release-time flush has one home for
// all four. It returns the flusher's stats, the home's before and after
// the release, and the interconnect's.
func runEagerMultiPageFlush(t *testing.T, mode Mode) (flusher, homeBefore, home Stats, net TransportStats) {
	t.Helper()
	s, err := New(Config{
		Procs: 3, SpaceSize: 16 * 1024, PageSize: 1024,
		Mode: mode,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h, n := s.Node(0), s.Node(1)
	for _, pg := range flushPages { // node 2 joins every copyset
		if _, err := s.Node(2).ReadUint64(mem.Addr(pg * 1024)); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Acquire(0); err != nil {
		t.Fatal(err)
	}
	for _, pg := range flushPages {
		if err := n.WriteUint64(mem.Addr(pg*1024), uint64(pg)+1); err != nil {
			t.Fatal(err)
		}
	}
	homeBefore = h.Stats()
	if err := n.Release(0); err != nil {
		t.Fatal(err)
	}
	flusher, home, net = n.Stats(), h.Stats(), s.NetStats()
	// The values must be committed at the home.
	for _, pg := range flushPages {
		v, err := h.ReadUint64(mem.Addr(pg * 1024))
		if err != nil {
			t.Fatal(err)
		}
		if v != uint64(pg)+1 {
			t.Errorf("page %d word = %d, want %d", pg, v, pg+1)
		}
	}
	return flusher, homeBefore, home, net
}

// TestOutboxBatchesFlushBurst: a release that dirtied four pages with one
// home, each cached at a third node, leaves as one message per destination,
// each its own frame.
//
// EI: the flusher sends the home one merged update, and the home
// invalidates the third node's four copies in one invalidation naming all
// four, then acknowledges: two messages, two frames, and the home's outbox
// counters agree with the interconnect's.
//
// EU: the flusher sends one merged update to the home and one to the third
// node, and no flush request.
func TestOutboxBatchesFlushBurst(t *testing.T) {
	t.Run("EI", func(t *testing.T) {
		flusher, before, home, net := runEagerMultiPageFlush(t, EagerInvalidate)
		if got := flusher.KindMsgs[wire.KUpdate]; got != 1 {
			t.Errorf("flusher sent %d updates, want one merged update", got)
		}
		if got := home.KindMsgs[wire.KInval] - before.KindMsgs[wire.KInval]; got != 1 {
			t.Errorf("the home sent %d invalidations, want one naming the copy's four pages", got)
		}
		if got := home.KindMsgs[wire.KUpdateAck] - before.KindMsgs[wire.KUpdateAck]; got != 1 {
			t.Errorf("the home sent %d update acknowledgements, want 1", got)
		}
		msgs, frames, batches := home.SentMsgs-before.SentMsgs, home.SentFrames-before.SentFrames, home.SentBatches-before.SentBatches
		if msgs != 2 || frames != 2 || batches != 0 {
			t.Errorf("the home's release traffic: %d msgs in %d frames, %d batches; want 2 in 2, none", msgs, frames, batches)
		}
		if net.Frames != net.Messages || net.Batches != 0 {
			t.Errorf("interconnect saw %d messages in %d frames, %d batches; want a frame per message", net.Messages, net.Frames, net.Batches)
		}
		// Per-kind byte accounting sums to the total outbound bytes.
		var kindTotal int64
		for _, b := range home.KindBytes {
			kindTotal += b
		}
		if kindTotal != home.SentBytes {
			t.Errorf("per-kind bytes sum to %d, SentBytes = %d", kindTotal, home.SentBytes)
		}
	})
	t.Run("EU", func(t *testing.T) {
		flusher, _, _, _ := runEagerMultiPageFlush(t, EagerUpdate)
		if flusher.KindMsgs[wire.KUpdate] != 2 || flusher.KindMsgs[wire.KFlushReq] != 0 {
			t.Errorf("flusher sent %d updates and %d flush requests, want one merged update to each other node",
				flusher.KindMsgs[wire.KUpdate], flusher.KindMsgs[wire.KFlushReq])
		}
	})
}

// TestOutboxPreservesFIFO: sends to one destination arrive in the order
// they were made, a frame each. The protocol's directory invariants test
// this implicitly everywhere; here a bare node's send is driven directly
// so a regression points at the send path, not a protocol.
func TestOutboxPreservesFIFO(t *testing.T) {
	// Drive a bare node's send over a raw simnet pair, observing the
	// frames on the wire.
	raw := simnet.New(2)
	defer raw.Close()
	a, b := raw.Endpoint(0), raw.Endpoint(1)
	n := &Node{id: 0, ep: a, dsts: make([]outDest, 2)}

	for seq := uint64(1); seq <= 4; seq++ {
		if err := n.send(1, &wire.Msg{Kind: wire.KInval, Seq: seq, Wants: []wire.Want{{Page: 1}}}); err != nil {
			t.Fatal(err)
		}
	}
	var seqs []uint64
	for len(seqs) < 4 {
		_, payload, ok := b.Recv()
		if !ok {
			t.Fatal("raw recv failed")
		}
		m, err := wire.Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		seqs = append(seqs, m.Seq)
		m.Release()
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("arrival order %v, want send order 1..4", seqs)
		}
	}
	tot := raw.Totals()
	if tot.Messages != 4 || tot.Frames != 4 || tot.Batches != 0 {
		t.Errorf("raw totals = %+v, want 4 msgs in 4 frames", tot)
	}
}

// failEndpoint fails every remote send, like a poisoned TCP stream, and
// counts the sends it was handed.
type failEndpoint struct {
	err   error
	sends int
}

func (f *failEndpoint) ID() int                   { return 0 }
func (f *failEndpoint) Send(int, []byte) error    { f.sends++; return f.err }
func (f *failEndpoint) Recv() (int, []byte, bool) { return 0, nil, false }

// TestOutboxStickyFlushError: a destination is fail-stop. The first send
// failure is returned to its sender, every later send to the destination
// returns the same error without reaching the transport, and it is the
// node's record of the peer's death: an rpc waiter parked on it is failed
// at once, and peerErr reports the cause.
func TestOutboxStickyFlushError(t *testing.T) {
	broken := errors.New("peer stream broken")
	ep := &failEndpoint{err: broken}
	n := &Node{id: 0, ep: ep, dsts: make([]outDest, 2), waiterTable: waiterTable{waiters: make(map[uint64]*rpcWaiter)}}

	w := n.register(1, 1, wire.KDiffReq)
	if err := n.peerErr(1); err != nil {
		t.Fatalf("peerErr before any send = %v, want nil", err)
	}
	if err := n.send(1, &wire.Msg{Kind: wire.KLockReq, Seq: 2}); !errors.Is(err, broken) {
		t.Fatalf("send error = %v, want the send failure", err)
	}
	if m := <-w.ch; m != nil {
		t.Fatalf("the parked waiter got %v, want its failure", m)
	}
	if err := n.send(1, &wire.Msg{Kind: wire.KLockReq, Seq: 3}); !errors.Is(err, broken) {
		t.Fatalf("send after break = %v, want sticky send failure", err)
	}
	if ep.sends != 1 {
		t.Errorf("the transport was handed %d sends, want only the one that broke the stream", ep.sends)
	}
	if err := n.peerErr(1); !errors.Is(err, broken) {
		t.Errorf("peerErr = %v, want the send failure", err)
	}
	if errs := n.takeErrs(); len(errs) != 1 {
		t.Errorf("recorded %v, want one peer liveness error", errs)
	}
}

// captureEndpoint appends the bytes of every frame it is handed to got,
// counts the frames, and recycles each buffer, like a receiver that has
// consumed it.
type captureEndpoint struct {
	got    []byte
	frames int
}

func (c *captureEndpoint) ID() int                   { return 0 }
func (c *captureEndpoint) Recv() (int, []byte, bool) { return 0, nil, false }
func (c *captureEndpoint) Send(_ int, payload []byte) error {
	c.got = append(c.got, payload...)
	framebuf.Put(payload)
	c.frames++
	return nil
}

// reset forgets what the endpoint was handed.
func (c *captureEndpoint) reset() { c.got, c.frames = c.got[:0], 0 }

// stageGrant is a lock grant as a releaser sends it: a 4-entry clock and
// one interval record.
func stageGrant(seq uint64) *wire.Msg {
	return &wire.Msg{
		Kind: wire.KLockGrant, Seq: seq, A: 3, VC: vc.VC{4, 5, 6, 7},
		Intervals: []wire.IntervalRec{{Proc: 1, Index: 5, VC: vc.VC{4, 5, 6, 6}, Pages: []mem.PageID{2, 9}}},
	}
}

// TestStageEncodesAtStage: sending is encoding. What reaches the
// transport is, byte for byte, the plain encoding of each message, a frame
// each in send order — the wire format did not move when the encoder did —
// and the message is the caller's again when send returns (mutating it
// afterwards changes nothing).
func TestStageEncodesAtStage(t *testing.T) {
	ep := &captureEndpoint{}
	n := &Node{id: 0, ep: ep, dsts: make([]outDest, 2)}
	for _, count := range []int{1, 3} {
		ep.reset()
		var want []byte
		for i := 0; i < count; i++ {
			m := stageGrant(uint64(100 + i))
			want = m.EncodeAppend(want)
			if err := n.send(1, m); err != nil {
				t.Fatal(err)
			}
			m.Seq, m.VC[0], m.Intervals[0].Pages[0] = 0, -1, 77 // dead to the sender
		}
		if ep.frames != count || !bytes.Equal(ep.got, want) {
			t.Errorf("%d sent: %d frames\n%x\nwant %d\n%x", count, ep.frames, ep.got, count, want)
		}
	}
}

// TestStageFlushAllocatesNothingGate: sending one message, or three,
// allocates nothing once the frame free list is warm.
func TestStageFlushAllocatesNothingGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	ep := &captureEndpoint{}
	n := &Node{id: 0, ep: ep, dsts: make([]outDest, 2)}
	for _, count := range []int{1, 3} {
		msgs := []*wire.Msg{stageGrant(1), stageGrant(2), stageGrant(3)}[:count]
		if allocs := testing.AllocsPerRun(200, func() {
			ep.reset()
			for _, m := range msgs {
				if err := n.send(1, m); err != nil {
					t.Fatal(err)
				}
			}
		}); allocs != 0 {
			t.Errorf("%d sent: send allocates %.1f objects per round, want 0", count, allocs)
		}
	}
}

// BenchmarkWireStageFlush is the send half of the message path, next
// to internal/wire's codec benches: one grant sent, and three, a frame
// each.
func BenchmarkWireStageFlush(b *testing.B) {
	noPoison(b)
	for _, count := range []int{1, 3} {
		b.Run(fmt.Sprintf("msgs=%d", count), func(b *testing.B) {
			ep := &captureEndpoint{}
			n := &Node{id: 0, ep: ep, dsts: make([]outDest, 2)}
			msgs := []*wire.Msg{stageGrant(1), stageGrant(2), stageGrant(3)}[:count]
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ep.reset()
				for _, m := range msgs {
					if err := n.send(1, m); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
