package dsm

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/framebuf"
	"repro/internal/hb"
	"repro/internal/mem"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestLostUpdateRepro is the distilled mp3d counter pattern that once
// broke EI at gpn>1: four locks guard four uint64 words on ONE page,
// every goroutine of every node randomly picks a lock and increments its
// word, with barrier rounds mixed in.
// Early-committed neighbor words riding flushes, invalidations
// and reconciliation bases all hit the same page while
// other local goroutines are mid-critical-section; every word must
// still count exactly.
//
// Every goroutine records its history and hb.Check judges it: a read of a
// word must return what the lock's previous holder wrote, so a lost
// update shows up as the first stale read after the hand-off that lost
// it, with the reader's and the writer's hb1 clocks — which is how a twin
// made under the stripe, its page registered dirty after it, was told
// apart from a missing notice or a wrong diff. A final delta cannot do
// that. Every word is read and written only under its lock, so the
// history is race-free.
func TestLostUpdateRepro(t *testing.T) {
	const procs, gpn, locks = 2, 4, 4
	rounds := 3
	iters := tortureParams(t)
	allModes(t, func(t *testing.T, mode Mode) {
		s := newSysGPN(t, procs, gpn, mode)
		logs := hb.NewLogs(procs * gpn)
		driveSlots(t, []*System{s}, gpn, func(node *Node, slot int) error {
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
		// Slot 0 lives on node 0 and has passed the last barrier: its
		// reads of the words now follow every increment in hb1.
		n0 := recNode{s.Node(0), logs[0]}
		for l := 0; l < locks; l++ {
			if _, err := n0.ReadUint64(mem.Addr(l * 8)); err != nil {
				t.Fatal(err)
			}
		}
		checkHistory(t, logs, hb.RaceFree)
	})
}

// TestReleaseWaitsForTheFlushCarryingItsWrites: the twin is the node's, so
// a flush carries every local goroutine's writes to the page, not just its
// own. Goroutine B writes word 2 of page 1 under lock 2, goroutine A word
// 0 under lock 0; A's release drains both into one merged update, whose
// acknowledgement the tap on its home swallows. B's release then has
// nothing of its own to push, but must not return — its word is not yet
// at the home, so the next holder of lock 2 could miss it — until the
// flush that carries it is acknowledged.
func TestReleaseWaitsForTheFlushCarryingItsWrites(t *testing.T) {
	for _, mode := range []Mode{EagerInvalidate, EagerUpdate} {
		t.Run(mode.String(), func(t *testing.T) {
			s, tp := newTapSys(t, Config{Procs: 2, SpaceSize: 8192, PageSize: 1024, Mode: mode, GoroutinesPerNode: 2}, 1)
			defer s.Close()
			n := s.Node(0)
			// Node 1 homes page 1 behind a tap that swallows the first
			// acknowledgement, which the test sends; a second flush it would
			// report.
			tp.mu.Lock()
			tp.swaps = []step{{op: opSwap, arg: byte(wire.KUpdateAck)}}
			tp.mu.Unlock()
			const page1 = mem.Addr(1024)
			must(t, n.Acquire(2)) // B
			must(t, n.WriteUint64(page1+16, 0xB))
			must(t, n.Acquire(0)) // A
			must(t, n.WriteUint64(page1, 0xA))
			relA := make(chan error, 1)
			go func() { relA <- n.Release(0) }()
			waitFor(t, "A's release to send a flush", func() bool { return len(tp.received(wire.KUpdate)) > 0 })
			req := tp.received(wire.KUpdate)[0]
			img := make([]byte, 1024)
			if len(req.Diffs) != 1 || req.Diffs[0].Page != 1 || req.Diffs[0].Diff.Apply(img) != nil ||
				binary.LittleEndian.Uint64(img) != 0xA || binary.LittleEndian.Uint64(img[16:]) != 0xB {
				t.Fatalf("A's flush diff does not carry both words: words 0 and 2 read %#x, %#x",
					binary.LittleEndian.Uint64(img), binary.LittleEndian.Uint64(img[16:]))
			}
			relB := make(chan error, 1)
			go func() { relB <- n.Release(2) }()
			select {
			case err := <-relB:
				t.Fatalf("B's release returned (%v) while the flush carrying its write was unacknowledged", err)
			case <-time.After(100 * time.Millisecond):
			}
			tp.Endpoint.Send(0, (&wire.Msg{Kind: wire.KUpdateAck, Seq: req.Seq}).EncodeAppend(framebuf.Get()))
			for name, rel := range map[string]chan error{"A": relA, "B": relB} {
				select {
				case err := <-rel:
					if err != nil {
						t.Errorf("%s's release: %v", name, err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%s's release did not return once the flush was acknowledged", name)
				}
			}
			if fl := tp.received(wire.KUpdate); len(fl) > 1 {
				t.Errorf("a second flush (%v): B's release had no write of its own left to push", fl[1].Kind)
			}
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		})
	}
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
// pages of a round in one message, which the copy processes on the shard
// of its first page, so the invalidation of a later page can run before
// that page's ship, sent earlier, is installed. Here the link from the
// home (node 1) to the reader (node 2) holds the ship of page 1 — the
// invalidation overtakes it on the wire instead — while node 0 writes
// pages 1 and 4 under lock 0 and releases. The home's one invalidation of
// the reader's copies names both, the reader acknowledges it, and the
// release returns with the ship still held. The ship must then install
// invalid: once the reader has the lock after the writer, it misses page
// 1 again and reads the writer's word. A reader that installed the stale
// ship as valid reads 0.
func TestEIInvalidationOvertakesShipRepro(t *testing.T) {
	const page1, page4, word = mem.Addr(1024), mem.Addr(4 * 1024), 0xBEEF
	net := simnet.New(3)
	link := &heldLink{Endpoint: net.Endpoint(1), to: 2, holding: true, holds: func(frame []byte) bool {
		return wire.Kind(frame[0]) == wire.KPageResp
	}}
	s, err := New(Config{Procs: 3, SpaceSize: 6 * 1024, PageSize: 1024, Mode: EagerInvalidate, Transport: tapNet{net, link}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w, r := s.Node(0), s.Node(2)
	link.mu.Lock()
	link.holding = false // the reader's copy of page 4 arrives as it comes
	link.mu.Unlock()
	_, err = r.ReadUint64(page4)
	must(t, err)
	link.mu.Lock()
	link.holding = true
	link.mu.Unlock()
	read := make(chan error, 1)
	go func() { _, err := r.ReadUint64(page1); read <- err }()
	waitFor(t, "the home to ship page 1 to the reader", func() bool { return link.waiting() > 0 })
	must(t, w.Acquire(0))
	must(t, w.WriteUint64(page1+8, word))
	must(t, w.WriteUint64(page4+8, word))
	released := make(chan error, 1)
	go func() { released <- w.Release(0) }()
	select {
	case err := <-released:
		must(t, err)
	case <-time.After(5 * time.Second):
		t.Fatal("the writer's release waits for a copy whose ship is held")
	}
	if got := r.Stats().InvalsReceived; got != 2 {
		t.Errorf("the reader invalidated %d pages before its ship, want pages 1 and 4", got)
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

// TestEIShipBeforeOwnUpdateRepro: an EI home never invalidates its writer's
// copy, so a ship the writer installs while its own update is on the way
// home must not lose that update's words. The home's shard workers may
// serve a page request before an update that reached the home first; here
// the writer's link holds its update of page 1 instead, while the home
// (node 1) invalidates the writer's copy and a second goroutine of the
// writer's node misses the page. Once the update lands and the release
// returns, the writer reads its own word; a writer that installed the ship
// as it came reads 0.
func TestEIShipBeforeOwnUpdateRepro(t *testing.T) {
	const page1, word = mem.Addr(1024), 0xA
	net := simnet.New(2)
	link := &heldLink{Endpoint: net.Endpoint(0), to: 1, holding: true, holds: func(frame []byte) bool {
		return wire.Kind(frame[0]) == wire.KUpdate
	}}
	s, err := New(Config{Procs: 2, SpaceSize: 2 * 1024, PageSize: 1024, Mode: EagerInvalidate, GoroutinesPerNode: 2, Transport: tapNet{net, link}})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w, h := s.Node(0), s.Node(1)
	homeWrites := func(l mem.LockID, addr mem.Addr) { // invalidating the writer's copy
		must(t, h.Acquire(l))
		must(t, h.WriteUint64(addr, 1))
		must(t, h.Release(l))
	}
	_, err = w.ReadUint64(page1)
	must(t, err)
	homeWrites(1, page1+16)
	must(t, w.Acquire(0))
	must(t, w.WriteUint64(page1, word))
	released := make(chan error, 1)
	go func() { released <- w.Release(0) }()
	waitFor(t, "the writer's update to be held", func() bool { return link.waiting() > 0 })
	homeWrites(2, page1+24)
	if v, err := w.ReadUint64(page1 + 24); err != nil || v != 1 {
		t.Fatalf("the second goroutine's miss reads %d (%v), want the home's 1", v, err)
	}
	must(t, link.release())
	must(t, <-released)
	got, err := w.ReadUint64(page1)
	must(t, err)
	if got != word {
		t.Errorf("the writer reads %#x of its own word after its release, want %#x", got, word)
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
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
