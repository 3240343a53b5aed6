package workload

import (
	"math/rand"

	"repro/internal/mem"
)

// partitionSlabAlign keeps every processor's slab page-pure at any page
// size the runtime is configured with (the largest size the tests use).
const partitionSlabAlign = 4096

// Partition is the writer-dominant workload: each processor owns a
// contiguous slab of the shared space and sweeps it with writes every
// step, with a handful of lock-protected global counter updates per step
// for the critical-section denominator. No processor ever touches
// another's slab, so every slab page has exactly one writer — but the
// runtime homes page pg at node pg % Procs, so a slab's pages are homed
// round the whole cluster, and the eager protocols send each dirty
// page's home an update at every release and barrier even though there
// is no other cacher. It runs in -app all beside the paper's five
// programs as the one whose data pages each have a single writer.
//
// The per-step sweep writes every other 64-byte chunk, so a 1KiB page
// sees 8 writes per step.
type Partition struct {
	Procs  int
	Chunks int // 64-byte chunks per processor slab
	Steps  int
	Seed   int64

	slabs    Region // Procs x Chunks x 64 bytes, slab i written only by processor i
	counters Region // global event counters, lock-protected
	space    mem.Addr
}

// NewPartition returns the workload at the given scale (scales the slab
// size).
func NewPartition(procs int, scale float64, seed int64) *Partition {
	slabBytes := int(32768 * scale)
	if slabBytes < 2*partitionSlabAlign {
		slabBytes = 2 * partitionSlabAlign
	}
	slabBytes = (slabBytes + partitionSlabAlign - 1) / partitionSlabAlign * partitionSlabAlign
	w := &Partition{
		Procs:  procs,
		Chunks: slabBytes / 64,
		Steps:  12,
		Seed:   seed,
	}
	var s Space
	w.slabs = s.AllocArray(procs*w.Chunks, 64)
	w.counters = s.AllocArray(4, 8)
	w.space = s.Used()
	return w
}

// Name implements Program.
func (w *Partition) Name() string { return "partition" }

// Config implements Program.
func (w *Partition) Config() Config {
	return Config{
		NumProcs:    w.Procs,
		SpaceSize:   w.space,
		NumLocks:    4,
		NumBarriers: 2,
	}
}

// Proc implements Program.
func (w *Partition) Proc(c Ctx) {
	p := c.Proc()
	rng := rand.New(rand.NewSource(splitRNG(w.Seed, int64(p))))
	lo := p * w.Chunks
	hi := lo + w.Chunks

	// Partitioned initialization, then the fork barrier.
	for i := lo; i < hi; i++ {
		c.Write(w.slabs.Elem(i, 64), 64)
	}
	if p == 0 {
		for i := 0; i < 4; i++ {
			c.Write(w.counters.Elem(i, 8), 8)
		}
	}
	c.Barrier(0)

	for step := 0; step < w.Steps; step++ {
		// Sweep the owned slab: every other chunk, write-only.
		for i := lo; i < hi; i += 2 {
			c.Write(w.slabs.Elem(i, 64), 64)
		}
		// Global event counters under locks: the critical sections the
		// traffic is normalized by. Byte-increments commute, so the
		// image is schedule-independent.
		for k := 0; k < 4; k++ {
			lock := rng.Intn(4)
			c.Acquire(lock)
			c.Update(w.counters.Elem(lock, 8), 8)
			c.Release(lock)
		}
		c.Barrier(1)
	}
}
