// Nbody is a domain-specific example in the mold of the paper's Water
// (§5.2.4): a barrier-stepped molecular dynamics loop on the live DSM.
// Each node owns a band of molecules; every step it reads neighbor
// positions within a cutoff window, accumulates force contributions into
// neighbors' records under per-molecule locks, then integrates its own
// band between barriers. Garbage collection runs every other barrier,
// demonstrating bounded diff retention over a long run.
//
// Molecule state lives in strided typed arrays from the façade's Arena —
// one 64-byte record per molecule, like Water's padded molecule structs —
// instead of hand-computed record offsets.
//
// Run with: go run ./examples/nbody
package main

import (
	"fmt"
	"log"
	"sync"

	"repro"
)

const (
	procs     = 8
	molecules = 128
	steps     = 10
	window    = 3
	recBytes  = 64 // per-molecule record stride: value + padding
	molLocks  = 16
)

// schema is the simulation's shared layout: positions and forces as
// padded per-molecule records, a global potential sum, and the lock
// namespace (sum lock first, then the molecule-lock stripes).
type schema struct {
	pos, force repro.Array[uint64]
	sum        repro.Var[uint64]
	sumLock    repro.Lock
	molLock    []repro.Lock
	step       repro.Barrier
}

func newSchema(d *repro.DSM) *schema {
	a := repro.NewArena(d.Layout())
	s := &schema{
		pos:     repro.NewStridedArray[uint64](a, molecules, recBytes),
		force:   repro.NewStridedArray[uint64](a, molecules, recBytes),
		sum:     repro.NewVar[uint64](a),
		sumLock: a.NewLock(),
		step:    a.NewBarrier(),
	}
	for i := 0; i < molLocks; i++ {
		s.molLock = append(s.molLock, a.NewLock())
	}
	return s
}

func (s *schema) lockOf(mol int) repro.Lock { return s.molLock[mol%molLocks] }

func main() {
	d, err := repro.NewDSM(repro.DSMConfig{
		Procs:           procs,
		SpaceSize:       1 << 20,
		PageSize:        1024,
		Mode:            repro.LazyInvalidate,
		GCEveryBarriers: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer d.Close()
	s := newSchema(d)

	per := molecules / procs
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			n := d.Node(p)
			lo, hi := p*per, (p+1)*per

			// Initialize the owned band, then the fork barrier.
			for i := lo; i < hi; i++ {
				check(s.pos.At(i).Store(n, uint64(i)))
				check(s.force.At(i).Store(n, 0))
			}
			check(s.step.Wait(n))

			for step := 0; step < steps; step++ {
				// Force phase: read neighbors in the cutoff window and
				// push contributions into their force sums under locks.
				for i := lo; i < hi; i++ {
					self, err := s.pos.At(i).Load(n)
					check(err)
					for dIdx := 1; dIdx <= window; dIdx++ {
						j := (i + dIdx) % molecules
						pj, err := s.pos.At(j).Load(n)
						check(err)
						contrib := (self + pj) % 97
						check(repro.Locked(n, s.lockOf(j), func() error {
							_, err := s.force.At(j).Add(n, contrib)
							return err
						}))
					}
				}
				check(s.step.Wait(n))
				// Update phase: integrate owned molecules; fold into the
				// global sum.
				var local uint64
				for i := lo; i < hi; i++ {
					f, err := s.force.At(i).Load(n)
					check(err)
					if _, err := s.pos.At(i).Add(n, f%7); err != nil {
						check(err)
					}
					check(s.force.At(i).Store(n, 0))
					local += f
				}
				check(repro.Locked(n, s.sumLock, func() error {
					_, err := s.sum.Add(n, local)
					return err
				}))
				check(s.step.Wait(n))
			}
		}(p)
	}
	wg.Wait()

	n := d.Node(0)
	var sum uint64
	check(repro.Locked(n, s.sumLock, func() error {
		var err error
		sum, err = s.sum.Load(n)
		return err
	}))
	st := d.NetStats()
	var gcRuns, discarded int64
	for i := 0; i < procs; i++ {
		ns := d.Node(i).Stats()
		gcRuns += ns.GCRuns
		discarded += ns.DiffsDiscarded
	}
	fmt.Printf("nbody: %d molecules, %d steps on %d nodes\n", molecules, steps, procs)
	fmt.Printf("global potential sum: %d\n", sum)
	fmt.Printf("interconnect: %d messages, %d KB\n", st.Messages, st.Bytes/1024)
	fmt.Printf("gc: %d runs, %d diffs discarded\n", gcRuns, discarded)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
