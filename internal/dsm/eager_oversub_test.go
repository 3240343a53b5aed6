package dsm

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/mem"
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
