package workload

import (
	"math/rand"

	"repro/internal/mem"
)

// MP3D models the SPLASH rarefied-fluid-flow Monte Carlo simulation (paper
// §5.2.3): each timestep moves particles through a space-cell array and is
// separated by barriers, with locks guarding global event counters. The
// particles are partitioned per processor, but a moved particle updates
// whichever space cell it lands in — so the cell array is written by every
// processor and read back in the collision phase, making access misses the
// dominant traffic (the paper's explanation for why the update protocols
// send fewer messages here and why lazy protocols send less data: diffs,
// not whole pages).
type MP3D struct {
	Procs     int
	Particles int
	Cells     int
	Steps     int
	Seed      int64

	particles Region // Particles x 32 bytes, partitioned by processor
	cells     Region // Cells x 16 bytes, written by all
	counters  Region // global event counters
	space     mem.Addr
}

// NewMP3D returns the workload at the given scale (scales particles and
// steps).
func NewMP3D(procs int, scale float64, seed int64) *MP3D {
	w := &MP3D{
		Procs:     procs,
		Particles: int(3200 * scale),
		Cells:     2048,
		Steps:     4,
		Seed:      seed,
	}
	var s Space
	w.particles = s.AllocArray(w.Particles, 32)
	w.cells = s.AllocArray(w.Cells, 16)
	w.counters = s.AllocArray(4, 8)
	w.space = s.Used()
	return w
}

// Name implements Program.
func (w *MP3D) Name() string { return "mp3d" }

// Config implements Program.
func (w *MP3D) Config() Config {
	return Config{
		NumProcs:    w.Procs,
		SpaceSize:   w.space,
		NumLocks:    4,
		NumBarriers: 2,
	}
}

// Proc implements Program.
func (w *MP3D) Proc(c Ctx) {
	p := c.Proc()
	rng := rand.New(rand.NewSource(splitRNG(w.Seed, int64(p))))

	perProc := (w.Particles + w.Procs - 1) / w.Procs
	// A processor past the last particle or cell gets an empty partition.
	lo := min(p*perProc, w.Particles)
	hi := min(lo+perProc, w.Particles)
	cellsPer := (w.Cells + w.Procs - 1) / w.Procs
	clo := min(p*cellsPer, w.Cells)
	chi := min(clo+cellsPer, w.Cells)

	// Partitioned initialization, then the fork barrier.
	for i := lo; i < hi; i++ {
		c.Write(w.particles.Elem(i, 32), 32)
	}
	for i := clo; i < chi; i++ {
		c.Write(w.cells.Elem(i, 16), 16)
	}
	if p == 0 {
		for i := 0; i < 4; i++ {
			c.Write(w.counters.Elem(i, 8), 8)
		}
	}
	c.Barrier(0)

	// Particle positions: the original assigns particles to processors
	// round-robin with no spatial correlation, so most of a processor's
	// particles sit in cells scattered across the whole tunnel; a
	// boundary-layer fraction stays clustered near the processor's own
	// cell partition. Per-step movement is a local drift. The scattered
	// majority is what makes every cell page multi-writer and misses
	// dominate the traffic (§5.2.3).
	pos := make([]int, hi-lo)
	for i := range pos {
		if (lo+i)%4 == 0 {
			pos[i] = (lo + i) * w.Cells / w.Particles // boundary layer
		} else {
			pos[i] = int((uint32(lo+i) * 2654435761) % uint32(w.Cells))
		}
	}

	for step := 0; step < w.Steps; step++ {
		// Move phase: each particle is read, drifts to a nearby cell, and
		// the destination cell's population is updated.
		for i := lo; i < hi; i++ {
			c.Read(w.particles.Elem(i, 32), 32)
			c.Write(w.particles.Elem(i, 32), 32)
			pp := pos[i-lo] + rng.Intn(65) - 28 // drift, biased downstream
			if pp < 0 {
				pp += w.Cells
			}
			if pp >= w.Cells {
				pp -= w.Cells
			}
			pos[i-lo] = pp
			// Every move examines the destination cell; only collisions
			// (a fraction of moves, as in the original's Monte Carlo
			// collision step) update it.
			c.Read(w.cells.Elem(pp, 16), 16)
			if rng.Intn(4) == 0 {
				c.Write(w.cells.Elem(pp, 16), 16)
			}
			if rng.Intn(32) == 0 {
				lock := rng.Intn(4)
				c.Acquire(lock)
				c.Update(w.counters.Elem(lock, 8), 8)
				c.Release(lock)
			}
		}
		c.Barrier(1)
		// Collision phase: each processor sweeps its slice of the cell
		// array — reading state written by every other processor — and
		// resets it.
		for i := clo; i < chi; i++ {
			c.Read(w.cells.Elem(i, 16), 16)
			c.Write(w.cells.Elem(i, 16), 16)
		}
		c.Barrier(1)
	}
}
