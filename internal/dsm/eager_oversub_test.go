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
// 0 under lock 0; A's release drains both into one flush, whose
// acknowledgment the tap on its home withholds — under EI by swallowing the
// flush request, under EU by swallowing the home's acknowledgement of the
// merged update it applied. B's release then has nothing of its own to
// push, but must not return — its word is not yet at the home, so the next
// holder of lock 2 could miss it — until the flush that carries it is
// acknowledged.
func TestReleaseWaitsForTheFlushCarryingItsWrites(t *testing.T) {
	for _, c := range []struct {
		mode                  Mode
		flush, withhold, done wire.Kind
	}{
		{EagerInvalidate, wire.KFlushReq, wire.KFlushReq, wire.KFlushDone},
		{EagerUpdate, wire.KUpdate, wire.KUpdateAck, wire.KUpdateAck},
	} {
		t.Run(c.mode.String(), func(t *testing.T) {
			s, tp := newTapSys(t, Config{Procs: 2, SpaceSize: 8192, PageSize: 1024, Mode: c.mode, GoroutinesPerNode: 2}, 1)
			defer s.Close()
			n := s.Node(0)
			// Node 1 homes page 1 behind a tap that swallows the first
			// acknowledgement, which the test sends; a second flush it would
			// report.
			tp.mu.Lock()
			tp.swaps = []step{{op: opSwap, arg: byte(c.withhold)}}
			tp.mu.Unlock()
			const page1 = mem.Addr(1024)
			must(t, n.Acquire(2)) // B
			must(t, n.WriteUint64(page1+16, 0xB))
			must(t, n.Acquire(0)) // A
			must(t, n.WriteUint64(page1, 0xA))
			relA := make(chan error, 1)
			go func() { relA <- n.Release(0) }()
			waitFor(t, "A's release to send a flush", func() bool { return len(tp.received(c.flush)) > 0 })
			req := tp.received(c.flush)[0]
			if c.mode == EagerUpdate {
				img := make([]byte, 1024)
				if len(req.Diffs) != 1 || req.Diffs[0].Page != 1 || req.Diffs[0].Diff.Apply(img) != nil ||
					binary.LittleEndian.Uint64(img) != 0xA || binary.LittleEndian.Uint64(img[16:]) != 0xB {
					t.Fatalf("A's flush diff does not carry both words: words 0 and 2 read %#x, %#x",
						binary.LittleEndian.Uint64(img), binary.LittleEndian.Uint64(img[16:]))
				}
			}
			relB := make(chan error, 1)
			go func() { relB <- n.Release(2) }()
			select {
			case err := <-relB:
				t.Fatalf("B's release returned (%v) while the flush carrying its write was unacknowledged", err)
			case <-time.After(100 * time.Millisecond):
			}
			tp.Endpoint.Send(0, (&wire.Msg{Kind: c.done, Seq: req.Seq, A: req.A}).EncodeAppend(framebuf.Get()))
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
			if fl := tp.received(c.flush); len(fl) > 1 {
				t.Errorf("a second flush (%v): B's release had no write of its own left to push", fl[1].Kind)
			}
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		})
	}
}

// heldLink is an endpoint whose frames to node to wait, while holding is
// set, until release sends them on in order.
type heldLink struct {
	transport.Endpoint
	to      int
	mu      sync.Mutex
	holding bool
	held    [][]byte
}

func (h *heldLink) Send(dst int, frame []byte) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if dst == h.to && h.holding {
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
