package core

import (
	"math/rand"
	"testing"

	"repro/internal/mem"
	"repro/internal/proto"
)

// driveRandom feeds a random legal operation sequence to the engine and
// returns the procs/pages dimensions used.
func driveRandom(e *Engine, procs int, seed int64, ops int) {
	r := rand.New(rand.NewSource(seed))
	held := map[int]mem.LockID{}
	for i := 0; i < ops; i++ {
		p := mem.ProcID(r.Intn(procs))
		switch r.Intn(9) {
		case 0, 1, 2:
			e.Read(p, mem.Addr(r.Intn(15*1024)), 1+r.Intn(32))
		case 3, 4, 5:
			e.Write(p, mem.Addr(r.Intn(15*1024)), 1+r.Intn(32))
		case 6, 7:
			if l, ok := held[int(p)]; ok {
				e.Release(p, l)
				delete(held, int(p))
			} else {
				l := mem.LockID(r.Intn(4))
				free := true
				for _, hl := range held {
					if hl == l {
						free = false
					}
				}
				if free {
					e.Acquire(p, l)
					held[int(p)] = l
				}
			}
		case 8:
			if len(held) == 0 && r.Intn(5) == 0 {
				arr := make([]mem.ProcID, procs)
				for q := range arr {
					arr[q] = mem.ProcID(q)
				}
				e.Barrier(arr, 0)
			}
		}
	}
	for p, l := range held {
		e.Release(mem.ProcID(p), l)
	}
}

// checkInvariants asserts the lazy engine's structural invariants:
//
//  1. a Valid page has no outstanding write notices (LI invalidates and
//     LU updates at every synchronization point, misses at access time);
//  2. applied clocks never exceed the processor's own clock;
//  3. the engine's copyset bit is set exactly for Valid holders.
func checkInvariants(t *testing.T, e *Engine, procs int) {
	t.Helper()
	for p := 0; p < procs; p++ {
		ps := &e.procs[p]
		if !ps.v.Dominates(e.zero) {
			t.Fatalf("p%d clock below zero: %v", p, ps.v)
		}
		for pg := range ps.status {
			pgid := mem.PageID(pg)
			st := ps.status[pg]
			bit := e.copyset[pg]&(1<<uint(p)) != 0
			if (st == psValid) != bit {
				t.Fatalf("p%d page %d: status %d but copyset bit %v", p, pg, st, bit)
			}
			if a := ps.applied[pg]; a != nil {
				for q := range a {
					if a[q] > ps.v[q] {
						t.Fatalf("p%d page %d: applied %v exceeds clock %v", p, pg, a, ps.v)
					}
				}
			}
			if st == psValid {
				if e.log.HasOutstanding(pgid, e.appliedOf(ps, pgid), ps.v, mem.ProcID(p)) {
					t.Fatalf("p%d page %d: valid with outstanding notices", p, pg)
				}
			}
		}
	}
}

func TestEngineInvariantsUnderRandomLoad(t *testing.T) {
	for _, flavor := range []Flavor{Invalidate, Update} {
		for seed := int64(1); seed <= 6; seed++ {
			lay := mem.MustLayout(16*1024, 1024)
			e := NewEngine(lay, 6, flavor, proto.Options{})
			driveRandom(e, 6, seed, 1500)
			checkInvariants(t, e, 6)
		}
	}
}

func TestEngineInvariantsWithAblations(t *testing.T) {
	for _, opts := range []proto.Options{
		{NoPiggyback: true},
		{NoDiffs: true},
		{ExclusiveWriter: true},
	} {
		lay := mem.MustLayout(16*1024, 512)
		e := NewEngine(lay, 6, Invalidate, opts)
		driveRandom(e, 6, 42, 1200)
		checkInvariants(t, e, 6)
	}
}

// TestClocksRespectCausality: after a releaser-to-acquirer chain, the
// acquirer's clock dominates every releaser's clock at release time, and
// interval VCs in the log are internally consistent (VC[own] == index).
func TestClocksRespectCausality(t *testing.T) {
	lay := mem.MustLayout(16*1024, 1024)
	e := NewEngine(lay, 4, Invalidate, proto.Options{})
	driveRandom(e, 4, 7, 2000)
	log := e.Log()
	for p := 0; p < 4; p++ {
		for idx := int32(0); ; idx++ {
			if !e.Clock(mem.ProcID(p)).Covers(p, idx) {
				break
			}
			iv := log.Get(IntervalID{Proc: mem.ProcID(p), Index: idx})
			if iv.VC[p] != idx {
				t.Fatalf("interval %v: own clock entry %d != index", iv.ID, iv.VC[p])
			}
			// Monotonicity within a processor: later intervals dominate.
			if idx > 0 {
				prev := log.Get(IntervalID{Proc: mem.ProcID(p), Index: idx - 1})
				if !iv.VC.Dominates(prev.VC) {
					t.Fatalf("interval %v clock %v does not dominate predecessor %v",
						iv.ID, iv.VC, prev.VC)
				}
			}
		}
	}
}

// TestOutstandingConsistentWithNotices: for every processor and page, the
// outstanding set contains exactly the known, unapplied, non-self
// modifying intervals — cross-checked against a brute-force scan.
func TestOutstandingConsistentWithNotices(t *testing.T) {
	lay := mem.MustLayout(16*1024, 1024)
	e := NewEngine(lay, 4, Invalidate, proto.Options{})
	driveRandom(e, 4, 11, 1500)
	log := e.Log()
	for p := 0; p < 4; p++ {
		ps := &e.procs[p]
		for pg := 0; pg < lay.NumPages(); pg++ {
			pgid := mem.PageID(pg)
			applied := e.appliedOf(ps, pgid)
			got := log.Outstanding(nil, pgid, applied, ps.v, mem.ProcID(p))
			want := map[IntervalID]bool{}
			for q := 0; q < 4; q++ {
				if q == p {
					continue
				}
				for idx := applied[q] + 1; idx <= ps.v[q]; idx++ {
					iv := log.Get(IntervalID{Proc: mem.ProcID(q), Index: idx})
					if iv.ModsFor(pgid) != nil {
						want[iv.ID] = true
					}
				}
			}
			if len(got) != len(want) {
				t.Fatalf("p%d page %d: Outstanding %v vs brute force %v", p, pg, got, want)
			}
			for _, id := range got {
				if !want[id] {
					t.Fatalf("p%d page %d: unexpected outstanding %v", p, pg, id)
				}
			}
		}
	}
}
