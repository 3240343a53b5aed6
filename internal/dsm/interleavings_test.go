package dsm

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/hb"
	"repro/internal/mem"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestLostUpdateRepro is the distilled mp3d counter pattern that once
// broke EI with several goroutines to a node, run on eight nodes of one
// goroutine each: four locks guard four uint64 words on ONE page, every
// node randomly picks a lock and increments its word, with barrier rounds
// mixed in. Early-committed neighbor words riding flushes, invalidations
// and reconciliation bases all hit the same page while other nodes are
// mid-critical-section, and each node's handler workers land them beside
// its application goroutine; every word must still count exactly.
//
// Every node records its history and hb.Check judges it: a read of a word
// must return what the lock's previous holder wrote, so a lost update
// shows up as the first stale read after the hand-off that lost it, with
// the reader's and the writer's hb1 clocks. A final delta cannot do that.
// Every word is read and written only under its lock, so the history is
// race-free.
func TestLostUpdateRepro(t *testing.T) {
	const procs, locks = 8, 4
	// Every hand-off crosses the interconnect, so half the torture count
	// keeps CI's hundred runs under the race detector within their time.
	rounds, iters := 3, tortureParams(t)/4
	allModes(t, func(t *testing.T, mode Mode) {
		s := newSys(t, procs, mode)
		logs := hb.NewLogs(procs)
		driveNodes(t, []*System{s}, func(node *Node) error {
			slot := int(node.ID())
			n := recNode{node, logs[slot]}
			rng := rand.New(rand.NewSource(int64(slot)*7919 + 17))
			for r := 0; r < rounds; r++ {
				for k := 0; k < iters; k++ {
					l := mem.LockID(rng.Intn(locks))
					if err := n.Acquire(l); err != nil {
						return err
					}
					v, err := n.ReadUint64(mem.Addr(int(l) * 8))
					if err != nil {
						return err
					}
					if err := n.WriteUint64(mem.Addr(int(l)*8), v+1); err != nil {
						return err
					}
					if err := n.Release(l); err != nil {
						return err
					}
				}
				if err := n.Barrier(0); err != nil {
					return err
				}
			}
			return nil
		})
		// Node 0 has passed the last barrier: its reads of the words now
		// follow every increment in hb1.
		n0 := recNode{s.Node(0), logs[0]}
		for l := 0; l < locks; l++ {
			if _, err := n0.ReadUint64(mem.Addr(l * 8)); err != nil {
				t.Fatal(err)
			}
		}
		checkHistory(t, logs, hb.RaceFree)
	})
}

// heldLink is an endpoint whose frames to node to — those holds reports,
// or all if it is nil — wait, while holding is set, until release sends
// them on in order.
type heldLink struct {
	transport.Endpoint
	to      int
	holds   func(frame []byte) bool
	mu      sync.Mutex
	holding bool
	held    [][]byte
}

func (h *heldLink) Send(dst int, frame []byte) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if dst == h.to && h.holding && (h.holds == nil || h.holds(frame)) {
		h.held = append(h.held, frame)
		return nil
	}
	return h.Endpoint.Send(dst, frame)
}

func (h *heldLink) waiting() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.held)
}

func (h *heldLink) release() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.holding = false
	for _, f := range h.held {
		if err := h.Endpoint.Send(h.to, f); err != nil {
			return err
		}
	}
	h.held = nil
	return nil
}

// TestEUUpdateOvertakesShipRepro: under EU a writer sends its diff straight
// to every copy its hint names, so the diff can reach a copy before the
// home's ship of the page does — over TCP, or under a delaying fault plan.
// Here the link from page 1's home (node 1) to the reader (node 2) holds
// the ship while node 0, whose own ship named node 2 a copy, writes the
// page under lock 0 and releases. The reader must park the diff and
// acknowledge it, so the release returns with the ship still held, and
// apply it when the ship lands: once it has the lock after the writer, it
// reads the writer's word. A reader that dropped the update reads 0.
func TestEUUpdateOvertakesShipRepro(t *testing.T) {
	const page1, word = mem.Addr(1024), 0xBEEF
	net := simnet.New(3)
	link := &heldLink{Endpoint: net.Endpoint(1), to: 2, holding: true}
	s, err := New(Config{Procs: 3, SpaceSize: 3 * 1024, PageSize: 1024, Mode: EagerUpdate, Transport: tapNet{net, link}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w, r := s.Node(0), s.Node(2)
	read := make(chan error, 1)
	go func() { _, err := r.ReadUint64(page1); read <- err }()
	waitFor(t, "the home to ship page 1 to the reader", func() bool { return link.waiting() > 0 })
	if _, err := w.ReadUint64(page1); err != nil { // the ship names node 2
		t.Fatal(err)
	}
	released := make(chan error, 1)
	go func() {
		err := w.Acquire(0)
		if err == nil {
			err = w.WriteUint64(page1+8, word)
		}
		if err == nil {
			err = w.Release(0)
		}
		released <- err
	}()
	select {
	case err := <-released:
		must(t, err)
	case <-time.After(5 * time.Second):
		t.Fatal("the writer's release waits for a copy whose ship is held")
	}
	e := r.e.(*eagerEngine)
	pmu := r.pageLock(1)
	pmu.Lock()
	parked := len(e.parked[1])
	pmu.Unlock()
	if parked != 1 {
		t.Errorf("the reader parked %d diffs of page 1 before its ship, want the writer's one", parked)
	}
	must(t, link.release())
	must(t, <-read)
	must(t, r.Acquire(0))
	got, err := r.ReadUint64(page1 + 8)
	must(t, err)
	must(t, r.Release(0))
	if got != word {
		t.Errorf("the reader reads %#x after the writer's release, want %#x", got, word)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestEIInvalidationOvertakesShipRepro: an EI home invalidates a copy's
// pages of a round in one message, naming them in page order, and a ship
// of one of them may be ahead of it on the link. The reader must process
// the two in the order the home sent them, whatever pages the
// invalidation names first. Here the reader (node 2) holds page 1 and
// fetches page 4, both homed at node 1, while the link from the home
// holds every frame, in order; node 0 writes both pages under lock 0 and
// releases. The home's one invalidation of the reader's copies names page
// 1, then page 4, and queues behind page 4's ship. Once the link lets
// both go and the reader has the lock after the writer, it must miss page
// 4 again and read the writer's word. A reader that ran the invalidation
// before it installed the ship installs that ship valid and reads 0.
func TestEIInvalidationOvertakesShipRepro(t *testing.T) {
	const page1, page4, word = mem.Addr(1024), mem.Addr(4 * 1024), 0xBEEF
	net := simnet.New(3)
	link := &heldLink{Endpoint: net.Endpoint(1), to: 2}
	s, err := New(Config{Procs: 3, SpaceSize: 6 * 1024, PageSize: 1024, Mode: EagerInvalidate, Transport: tapNet{net, link}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w, r := s.Node(0), s.Node(2)
	_, err = r.ReadUint64(page1)
	must(t, err)
	link.mu.Lock()
	link.holding = true
	link.mu.Unlock()
	read := make(chan error, 1)
	go func() { _, err := r.ReadUint64(page4); read <- err }()
	waitFor(t, "the home to ship page 4 to the reader", func() bool { return link.waiting() > 0 })
	must(t, w.Acquire(0))
	must(t, w.WriteUint64(page1+8, word))
	must(t, w.WriteUint64(page4+8, word))
	released := make(chan error, 1)
	go func() { released <- w.Release(0) }()
	waitFor(t, "the home to invalidate the reader's copies", func() bool { return link.waiting() == 2 })
	must(t, link.release())
	must(t, <-released)
	must(t, <-read)
	if got := r.Stats().InvalsReceived; got != 2 {
		t.Errorf("the reader invalidated %d pages, want pages 1 and 4", got)
	}
	must(t, r.Acquire(0))
	got, err := r.ReadUint64(page4 + 8)
	must(t, err)
	must(t, r.Release(0))
	if got != word {
		t.Errorf("the reader reads %#x after the writer's release, want %#x", got, word)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}

// TestTimedOutNodeStops: the first rpc timeout stops its node. The
// paper's channels are reliable, so a node that ran on past a response it
// gave up on would act on what it never received.
//
// In the grant rows node 1 writes 7 at 2048 (page 2, homed at node 2)
// under lock 0, and node 2's acquisition of lock 0 times out on node 1's
// grant, which the link holds and then lets go. Node 0 then asks for the
// lock, which its manager forwards to node 2, the last requester. A node 2
// that ran on would grant it with notices that lack node 1's interval,
// and node 0 would read 0; a stopped one drops the forward, and node 0's
// acquisition times out in turn.
//
// In the release rows, one per mode, node 0 writes its own page in a
// critical section, and its cold read of page 1 times out on a ship the
// home's link holds. Its release must then fail at once with that
// timeout, as must every later call, and a peer's miss on its page must
// time out in turn. A lazy node makes a page no interval it knows of wrote
// the zero page without a message, so there node 2 first writes page 1
// under lock 0 and learns of a write of node 0's page under lock 2: both
// misses ship.
//
// A wait parked when another gives up must give up at once. A worker may
// have taken up a message just before its node stopped: a response whose
// wait gave up is no protocol error, and a forward that finds the lock
// free once the acquisition that gave up has cleared it is not granted.
func TestTimedOutNodeStops(t *testing.T) {
	const timeout = 200 * time.Millisecond
	start := func(t *testing.T, mode Mode, link *heldLink, net *simnet.Network) *System {
		s, err := New(Config{Procs: 3, SpaceSize: 3 * 1024, PageSize: 1024, Mode: mode, RPCTimeout: timeout, Transport: tapNet{net, link}})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		link.mu.Lock()
		link.holding = true
		link.mu.Unlock()
		return s
	}
	for _, mode := range []Mode{LazyInvalidate, LazyUpdate} {
		t.Run(mode.String()+"/a grant its acquirer gave up on", func(t *testing.T) {
			net := simnet.New(3)
			link := &heldLink{Endpoint: net.Endpoint(1), to: 2, holds: func(frame []byte) bool { return wire.Kind(frame[0]) == wire.KLockGrant }}
			s := start(t, mode, link, net)
			r, w, x := s.Node(0), s.Node(1), s.Node(2)
			must(t, w.Acquire(0))
			must(t, w.WriteUint64(2048, 7))
			must(t, w.Release(0))
			if err := x.Acquire(0); !errors.Is(err, ErrRPCTimeout) {
				t.Fatalf("node 2's acquisition with its grant held returned %v, want a timeout", err)
			}
			must(t, link.release())
			err := r.Acquire(0)
			if err == nil {
				v, rerr := r.ReadUint64(2048)
				t.Fatalf("node 0 acquired lock 0 through the node that gave up on it and reads %d (%v), want a timeout", v, rerr)
			}
			if !errors.Is(err, ErrRPCTimeout) {
				t.Errorf("node 0's acquisition returned %v, want a timeout", err)
			}
		})
	}
	for _, mode := range Modes {
		t.Run(mode.String()+"/a release after a miss that gave up", func(t *testing.T) {
			net := simnet.New(3)
			link := &heldLink{Endpoint: net.Endpoint(1), to: 0}
			s := start(t, mode, link, net)
			n := s.Node(0)
			if mode == LazyInvalidate || mode == LazyUpdate {
				p := s.Node(2)
				must(t, n.Acquire(2))
				must(t, n.WriteUint64(16, 1))
				must(t, n.Release(2))
				must(t, p.Acquire(2))
				must(t, p.Release(2))
				must(t, p.Acquire(0))
				must(t, p.WriteUint64(1024, 2))
				must(t, p.Release(0))
			}
			must(t, n.Acquire(0))
			must(t, n.WriteUint64(8, 1))
			if _, err := n.ReadUint64(1024); !errors.Is(err, ErrRPCTimeout) {
				t.Fatalf("the read with its ship held returned %v, want a timeout", err)
			}
			for _, call := range []struct {
				name string
				do   func() error
			}{
				{"release", func() error { return n.Release(0) }},
				{"read of its own page", func() error { _, err := n.ReadUint64(8); return err }},
				{"barrier", func() error { return n.Barrier(0) }},
			} {
				begin := time.Now()
				err := call.do()
				if took := time.Since(begin); !errors.Is(err, ErrRPCTimeout) || took > timeout/2 {
					t.Errorf("the %s after the timeout returned %v in %v, want the timeout at once", call.name, err, took)
				}
			}
			if _, err := s.Node(2).ReadUint64(8); !errors.Is(err, ErrRPCTimeout) {
				t.Errorf("a peer's miss on the stopped node's page returned %v, want a timeout", err)
			}
		})
	}
	t.Run("a wait parked when another gives up", func(t *testing.T) {
		s, err := New(Config{Procs: 2, SpaceSize: 2 * 1024, PageSize: 1024, RPCTimeout: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		n, seq := s.Node(0), uint64(99)
		w := n.register(seq, 1, wire.KPageReq)
		awaited := make(chan error, 1)
		go func() { _, err := n.await(seq, w); awaited <- err }()
		n.fail(ErrRPCTimeout)
		select {
		case err := <-awaited:
			if !errors.Is(err, ErrRPCTimeout) {
				t.Errorf("the parked wait returned %v, want the timeout", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("the parked wait did not give up when its node stopped")
		}
	})
	t.Run("a response taken up before the stop", func(t *testing.T) {
		n := newSys(t, 2, LazyInvalidate).Node(0)
		n.fail(ErrRPCTimeout)
		n.deliverResponse(&wire.Msg{Kind: wire.KDiffResp, Seq: 99})
		if errs := n.takeErrs(); len(errs) != 0 {
			t.Errorf("a response whose wait gave up recorded %v", errs)
		}
	})
	t.Run("a forward taken up before the stop", func(t *testing.T) {
		n := newSys(t, 3, LazyInvalidate).Node(2)
		n.fail(ErrRPCTimeout)
		n.handleLockFwd(&wire.Msg{Kind: wire.KLockFwd, Seq: 1, A: 0, B: 0})
		if sent, errs := n.Stats().KindMsgs[wire.KLockGrant], n.takeErrs(); sent != 0 || len(errs) != 1 || !errors.Is(errs[0], ErrRPCTimeout) {
			t.Errorf("the stopped node sent %d grants and recorded %v, want none and the timeout", sent, errs)
		}
	})
}

// TestEIAckWaitsForEarlierInvalidationRepro: a copy an EI home took out of
// the copyset for one writer may not yet have processed its invalidation
// when the next writer of the page is due its acknowledgement, which must
// wait for it too. Node 2 holds page 1; node 0's release makes the home
// (node 1) invalidate node 2's copy on a link that holds the invalidation.
// The home's own release of the page then finds only node 0's copy to
// invalidate, but must not return before node 2's invalidation is
// acknowledged: the next holder of its lock could read the stale copy.
func TestEIAckWaitsForEarlierInvalidationRepro(t *testing.T) {
	const page1 = mem.Addr(1024)
	net := simnet.New(3)
	link := &heldLink{Endpoint: net.Endpoint(1), to: 2}
	s, err := New(Config{Procs: 3, SpaceSize: 3 * 1024, PageSize: 1024, Mode: EagerInvalidate, Transport: tapNet{net, link}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w, h, x := s.Node(0), s.Node(1), s.Node(2)
	_, err = x.ReadUint64(page1)
	must(t, err)
	link.mu.Lock()
	link.holding = true
	link.mu.Unlock()
	locked := func(n *Node, l mem.LockID, addr mem.Addr, v uint64) chan error {
		done := make(chan error, 1)
		go func() {
			err := n.Acquire(l)
			if err == nil {
				err = n.WriteUint64(addr, v)
			}
			if err == nil {
				err = n.Release(l)
			}
			done <- err
		}()
		return done
	}
	first := locked(w, 0, page1, 1)
	waitFor(t, "the home to invalidate node 2's copy", func() bool { return link.waiting() > 0 })
	home := locked(h, 1, page1+8, 2)
	select {
	case err := <-home:
		t.Fatalf("the home's release returned (%v) while node 2 had not processed an earlier invalidation", err)
	case <-time.After(100 * time.Millisecond):
	}
	must(t, link.release())
	must(t, <-first)
	must(t, <-home)
	must(t, x.Acquire(1))
	got, err := x.ReadUint64(page1 + 8)
	must(t, err)
	must(t, x.Release(1))
	if got != 2 {
		t.Errorf("node 2 reads %d after the home's release, want 2", got)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
}
