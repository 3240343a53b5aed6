package dsm

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/wire"
)

// TestFalseSharedLockedCountersOversubscribed is the distilled mp3d
// counter pattern that once broke EI at gpn>1: four locks guard four
// uint64 words on ONE page, every goroutine of every node randomly
// picks a lock and increments its word, with barrier rounds mixed in.
// Early-committed neighbor words riding flushes, invalidations
// and reconciliation bases all hit the same page while
// other local goroutines are mid-critical-section; every word must
// still count exactly.
//
// The oracle is a shadow of each word kept beside the DSM (the DSM lock
// serializes its holders; the mutex is for the race detector), compared
// at every read inside the critical section. A lost update therefore
// shows up as the first stale read right after the hand-off that lost
// it, named with the reader and the last writer — which is how ROADMAP
// item 1 (a twin made under the stripe, its page registered dirty after
// it) was told apart from a missing notice or a wrong diff. A final
// delta cannot do that.
func TestFalseSharedLockedCountersOversubscribed(t *testing.T) {
	const procs, gpn, locks = 2, 4, 4
	rounds := 3
	iters := tortureParams(t)
	type shadow struct {
		mu                sync.Mutex
		val               uint64
		slot, round, iter int // the last writer's
		node              mem.ProcID
	}
	allModes(t, func(t *testing.T, mode Mode) {
		s := newSysGPN(t, procs, gpn, mode)
		var shadows [locks]shadow
		var stale sync.Once
		driveSlots(t, []*System{s}, gpn, func(n *Node, slot int) error {
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
					sh := &shadows[l]
					sh.mu.Lock()
					if v != sh.val {
						stale.Do(func() {
							t.Errorf("%s: first stale read: slot %d (node %d) round %d iter %d holds lock %d and reads %d, "+
								"but slot %d (node %d) wrote %d in round %d iter %d and released",
								mode, slot, n.ID(), r, k, l, v, sh.slot, sh.node, sh.val, sh.round, sh.iter)
						})
						// Carry on from the true value: later reads are then
						// judged on their own hand-off, and the run ends.
						v = sh.val
					}
					sh.val, sh.slot, sh.node, sh.round, sh.iter = v+1, slot, n.ID(), r, k
					sh.mu.Unlock()
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
		n0 := s.Node(0)
		for l := range shadows {
			v, err := n0.ReadUint64(mem.Addr(l * 8))
			if err != nil {
				t.Fatal(err)
			}
			if want := shadows[l].val; v != want {
				t.Errorf("%s: after the last barrier counter %d = %d, want %d", mode, l, v, want)
			}
		}
	})
}

// TestReleaseWaitsForTheFlushCarryingItsWrites: the twin is the node's, so
// a flush carries every local goroutine's writes to the page, not just its
// own. Goroutine B writes word 2 of page 1 under lock 2, goroutine A word
// 0 under lock 0; A's release drains both into one flush, whose
// acknowledgment the puppet home withholds. B's release then has nothing
// of its own to push, but must not return — its word is not yet at the
// home, so the next holder of lock 2 could miss it — until the flush that
// carries it is acknowledged.
func TestReleaseWaitsForTheFlushCarryingItsWrites(t *testing.T) {
	for _, mode := range []Mode{EagerInvalidate, EagerUpdate} {
		t.Run(mode.String(), func(t *testing.T) {
			s, home := puppetCluster(t, 1, Config{SpaceSize: 8192, PageSize: 1024, Mode: mode, GoroutinesPerNode: 2})
			n, ep := s.Node(0), home.Endpoint(1)
			// The puppet homes page 1: it ships the page on a miss and hands
			// the test every flush, unanswered. The buffer has room for
			// flushes the test does not expect, so it can report them.
			flushes := make(chan *wire.Msg, 4)
			go func() {
				for {
					_, payload, ok := ep.Recv()
					if !ok {
						return
					}
					msgs, _ := decodeFrame(payload)
					for _, m := range msgs {
						switch m.Kind {
						case wire.KPageReq:
							resp := &wire.Msg{Kind: wire.KPageResp, Seq: m.Seq, A: m.A, Data: make([]byte, 1024)}
							ep.Send(0, resp.EncodeAppend(framebuf.Get()))
						case wire.KFlushReq:
							flushes <- m
						}
					}
				}
			}()
			const page1 = mem.Addr(1024)
			must(t, n.Acquire(2)) // B
			must(t, n.WriteUint64(page1+16, 0xB))
			must(t, n.Acquire(0)) // A
			must(t, n.WriteUint64(page1, 0xA))
			relA := make(chan error, 1)
			go func() { relA <- n.Release(0) }()
			var req *wire.Msg
			select {
			case req = <-flushes:
			case <-time.After(5 * time.Second):
				t.Fatal("A's release sent no flush")
			}
			if mode == EagerUpdate {
				img := make([]byte, 1024)
				if len(req.Diffs) != 1 || req.Diffs[0].Diff.Apply(img) != nil ||
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
			puppetSend(t, ep, 0, &wire.Msg{Kind: wire.KFlushDone, Seq: req.Seq, A: req.A})
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
			select {
			case m := <-flushes:
				t.Errorf("a second flush (page %d): B's release had no write of its own left to push", m.A)
			default:
			}
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		})
	}
}
