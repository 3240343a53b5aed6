package dsm

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"repro/internal/mem"
)

// predictGCRuns returns the GC epochs (Stats.GCRuns) every node of a lazy
// System with GCEveryBarriers k and pages pages has discarded after one
// barrier per entry of intervals, each the number of intervals all nodes
// closed in that barrier's episode: a barrier validates an epoch at every
// k-th episode and whenever the intervals since the last epoch reach
// pages, and the next barrier discards it.
func predictGCRuns(k, pages int, intervals []int) int64 {
	var runs int64
	due, since := false, 0
	for b, n := range intervals {
		if due {
			runs++
		}
		since += n
		due = k > 0 && ((b+1)%k == 0 || since >= pages)
		if due {
			since = 0
		}
	}
	return runs
}

// TestGCEpochsAgree runs a program whose phases alternate a step of more
// intervals than the space has pages with steps of fewer, which together
// stay under it: every node must run the GC epochs the rule predicts —
// they decide alone, from the clock the barrier left them — and every
// node's image must be the sequential one. Without GC no epoch runs,
// however long the history grows, and every node's log holds all of it.
func TestGCEpochsAgree(t *testing.T) {
	const procs, pageSize, pages, gcEvery = 4, 1024, 16, 8
	// Critical sections per node and step; each closes one interval.
	plan := []int{5, 1, 1, 1, 5, 1, 1, 1, 5, 1, 1, 1}
	intervals := make([]int, len(plan))
	total := 0
	for s, cs := range plan {
		intervals[s] = procs * cs
		total += intervals[s]
	}
	if predictGCRuns(gcEvery, pages, intervals) == predictGCRuns(gcEvery, math.MaxInt, intervals) {
		t.Fatal("the plan runs the same epochs without the history rule")
	}
	// Lock l guards page l: a counter every section on it adds one to, and
	// one word per node, the step it last wrote it in.
	counter := func(l int) mem.Addr { return mem.Addr(l * pageSize) }
	slot := func(l, id int) mem.Addr { return mem.Addr(l*pageSize + 8*(1+id)) }
	want := make([]byte, pages*pageSize)
	add := func(addr mem.Addr, v uint64) {
		binary.LittleEndian.PutUint64(want[addr:], binary.LittleEndian.Uint64(want[addr:])+v)
	}
	bothModes(t, func(t *testing.T, mode Mode) {
		for _, gcEvery := range []int{gcEvery, 0} {
			t.Run(fmt.Sprintf("gc%d", gcEvery), func(t *testing.T) {
				clear(want)
				s, err := New(Config{Procs: procs, SpaceSize: pages * pageSize, PageSize: pageSize, Mode: mode, GCEveryBarriers: gcEvery})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() {
					if err := s.Close(); err != nil {
						t.Errorf("Close: %v", err)
					}
				})
				for step, cs := range plan {
					for id := range procs {
						for j := range cs {
							l := (id + j) % procs
							add(counter(l), 1)
							binary.LittleEndian.PutUint64(want[slot(l, id):], uint64(step+1))
						}
					}
					onEvery(t, s, func(n *Node) error {
						id := int(n.ID())
						for j := range cs {
							l := (id + j) % procs
							if err := n.Acquire(mem.LockID(l)); err != nil {
								return err
							}
							v, err := n.ReadUint64(counter(l))
							if err == nil {
								err = n.WriteUint64(counter(l), v+1)
							}
							if err == nil {
								err = n.WriteUint64(slot(l, id), uint64(step+1))
							}
							if err == nil {
								err = n.Release(mem.LockID(l))
							}
							if err != nil {
								return err
							}
						}
						if err := n.Barrier(0); err != nil {
							return err
						}
						for l := range procs {
							got, err := n.ReadUint64(counter(l))
							if err != nil {
								return err
							}
							if w := binary.LittleEndian.Uint64(want[counter(l):]); got != w {
								return fmt.Errorf("node %d read counter %d = %d after step %d, want %d", id, l, got, step, w)
							}
						}
						return nil
					})
				}
				wantRuns := predictGCRuns(gcEvery, pages, intervals)
				buf := make([]byte, pageSize)
				for _, n := range s.Local() {
					if runs := n.Stats().GCRuns; runs != wantRuns {
						t.Errorf("node %d ran %d GC epochs, want %d", n.ID(), runs, wantRuns)
					}
					held := lazyOf(n).logCount()
					if gcEvery == 0 && held != total {
						t.Errorf("node %d's log holds %d intervals without GC, want all %d", n.ID(), held, total)
					}
					if gauge := n.Stats().LogRecords; gauge != int64(held) {
						t.Errorf("node %d's LogRecords reads %d, its log holds %d", n.ID(), gauge, held)
					}
					for pg := range pages {
						must(t, n.Read(buf, mem.Addr(pg*pageSize)))
						if w := want[pg*pageSize : (pg+1)*pageSize]; string(buf) != string(w) {
							t.Errorf("node %d's page %d differs from the sequential image", n.ID(), pg)
						}
					}
				}
			})
		}
	})
}

// logCount returns how many interval records e's log holds.
func (e *lazyEngine) logCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.log.Count()
}

// BenchmarkGCEpoch times an LI barrier that runs a GC epoch: four nodes
// each write a word of their four pages in a critical section of their
// own, untimed, and read a word of every other node's, so that the barrier
// invalidates twelve copies on each; the barrier then validates them for
// the epoch (one diff request to each other node), discards the epoch the
// barrier before validated and sweeps its records out of the log.
func BenchmarkGCEpoch(b *testing.B) {
	noPoison(b)
	const procs, pageSize, mine = 4, 1024, 4
	s, err := New(Config{Procs: procs, SpaceSize: procs * mine * pageSize, PageSize: pageSize, Mode: LazyInvalidate, GCEveryBarriers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { must(b, s.Close()) })
	d := newDriver(b, s, func(n *Node, step int) error {
		id := int(n.ID())
		if err := n.Acquire(mem.LockID(id)); err != nil {
			return err
		}
		for k := range mine {
			if err := n.WriteUint64(mem.Addr((id*mine+k)*pageSize), uint64(step)); err != nil {
				return err
			}
		}
		if err := n.Release(mem.LockID(id)); err != nil {
			return err
		}
		for pg := range procs * mine {
			if pg/mine != id {
				if _, err := n.ReadUint64(mem.Addr(pg * pageSize)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	for step := range 2 { // the first epoch, then its discard
		d.all(b, step)
		d.all(b, ringBarrier)
	}
	runs := s.Node(0).Stats().GCRuns
	b.ResetTimer()
	for i := range b.N {
		b.StopTimer()
		d.all(b, 2+i)
		b.StartTimer()
		d.all(b, ringBarrier)
	}
	b.StopTimer()
	if got := s.Node(0).Stats().GCRuns - runs; got != int64(b.N) {
		b.Fatalf("%d barriers discarded %d GC epochs", b.N, got)
	}
}
