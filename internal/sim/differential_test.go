package sim

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/dsm"
	"repro/internal/mem"
	"repro/internal/proto"
	"repro/internal/workload"
)

// Cross-protocol differential fuzz: randomized data-race-free programs are
// executed on the lockstep backend, and the resulting trace is replayed
// under every protocol engine — LRC (LI, LU), eager RC (EI, EU) and the
// Ivy SC baseline — with the value plane running beside each engine; the
// same programs then run for real on the live runtime in both modes. The
// protocols differ in traffic, never in values: every final memory image
// must equal the lockstep reference, and for the invalidate-family engines
// every synchronized read must observe current bytes.

// fuzzMix is an independent deterministic stream per (seed, lane).
func fuzzMix(seed, lane int64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(lane)*0xd1342543de82ef95 + 1
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// fuzzProg is a randomized data-race-free program. Its shared state is a
// set of lock-guarded regions (one per lock, plus an 8-byte cursor each)
// and per-processor private slices; barriers separate phases. Within one
// phase each guarded region is touched by a single commuting operation
// family (fill-writes, updates, or fetch-adds) chosen from a structure
// stream shared by all processors, so the final image is independent of
// the interleaving — and every read is synchronized, so the value plane's
// read-currency asserts must hold under the invalidate protocols.
type fuzzProg struct {
	procs, locks, phases, ops int
	seed                      int64

	counters workload.Region   // one 8-byte cursor per lock
	shared   []workload.Region // one guarded region per lock
	private  []workload.Region // one slice per processor
	space    mem.Addr
}

func newFuzzProg(seed int64, procs int) *fuzzProg {
	p := &fuzzProg{procs: procs, locks: 4, phases: 5, ops: 80, seed: seed}
	var s workload.Space
	p.counters = s.AllocArray(p.locks, 8)
	for l := 0; l < p.locks; l++ {
		p.shared = append(p.shared, s.AllocArray(48, 16))
	}
	for q := 0; q < procs; q++ {
		p.private = append(p.private, s.AllocArray(40, 16))
	}
	p.space = s.Used()
	return p
}

func (p *fuzzProg) Name() string { return "fuzz" }

func (p *fuzzProg) Config() workload.Config {
	return workload.Config{
		NumProcs:    p.procs,
		SpaceSize:   p.space,
		NumLocks:    p.locks,
		NumBarriers: 2,
	}
}

func (p *fuzzProg) Proc(c workload.Ctx) {
	me := c.Proc()
	mine := p.private[me]
	for phase := 0; phase < p.phases; phase++ {
		// Operation family per guarded region this phase — identical on
		// every processor (derived from (seed, phase), not the proc).
		structR := rand.New(rand.NewSource(fuzzMix(p.seed, int64(phase))))
		family := make([]int, p.locks)
		for l := range family {
			family[l] = structR.Intn(3)
		}
		r := rand.New(rand.NewSource(fuzzMix(p.seed, int64(1000+phase*64+me))))
		for op := 0; op < p.ops; op++ {
			switch r.Intn(8) {
			case 0, 1:
				// Private writes: single-writer, program-ordered.
				off := mem.Addr(r.Intn(int(mine.Size) - 16))
				if r.Intn(2) == 0 {
					c.Write(mine.At(off), 8+r.Intn(8))
				} else {
					c.Update(mine.At(off), 4+r.Intn(8))
				}
			case 2:
				c.Read(mine.At(mem.Addr(r.Intn(int(mine.Size)-16))), 16)
			default:
				l := r.Intn(p.locks)
				reg := p.shared[l]
				workload.Locked(c, l, func() {
					off := mem.Addr(r.Intn(int(reg.Size) - 16))
					switch family[l] {
					case 0:
						c.Write(reg.At(off), 8+r.Intn(8))
					case 1:
						c.Update(reg.At(off), 4+r.Intn(8))
					case 2:
						c.FetchAddUint64(p.counters.Elem(l, 8), uint64(1+r.Intn(5)))
					}
					c.Read(reg.At(off), 8)
				})
			}
		}
		c.Barrier(phase % 2)
	}
}

func TestCrossProtocolDifferentialFuzz(t *testing.T) {
	seeds, pageSizes := []int64{1, 2, 3, 4, 5, 6}, []int{512, 2048}
	if testing.Short() {
		seeds, pageSizes = seeds[:2], pageSizes[:1]
	}
	for _, seed := range seeds {
		prog := newFuzzProg(seed, 5)
		ref, err := workload.Execute(prog)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !bytes.Equal(ref.Trace.Image(), ref.Image) {
			t.Fatalf("seed %d: trace value replay diverges from lockstep image", seed)
		}
		for _, name := range AllProtocolNames {
			// LI and SC move data exclusively at access misses, so the
			// value plane can additionally assert that every synchronized
			// read observes current bytes. EI's false-sharing ack-merge
			// and the update protocols' pushes move data outside misses,
			// invisible to the plane; the lazy pair's value paths are
			// checked for real on the live runtime below.
			checkReads := name == "LI" || name == "SC"
			for _, ps := range pageSizes {
				img, err := ReplayImage(ref.Trace, name, ps, proto.Options{}, checkReads)
				if err != nil {
					t.Fatalf("seed %d %s/%d: %v", seed, name, ps, err)
				}
				if !bytes.Equal(img, ref.Image) {
					t.Errorf("seed %d %s/%d: final image diverges from reference", seed, name, ps)
				}
			}
		}
		for _, mode := range []dsm.Mode{dsm.LazyInvalidate, dsm.LazyUpdate} {
			res, err := workload.RunOnRuntime(prog, workload.RuntimeConfig{PageSize: pageSizes[0], Mode: mode})
			if err != nil {
				t.Fatalf("seed %d runtime %s: %v", seed, mode, err)
			}
			if !bytes.Equal(res.Image, ref.Image) {
				t.Errorf("seed %d runtime %s: final image diverges from reference", seed, mode)
			}
		}
	}
}

// TestReplayImageMatchesWorkloadTraces replays every SPLASH workload trace
// through every protocol engine's value plane: the images agree with the
// lockstep reference across all five protocols and page sizes.
func TestReplayImageMatchesWorkloadTraces(t *testing.T) {
	if testing.Short() {
		t.Skip("full five-protocol image sweep skipped in short mode")
	}
	for _, name := range workload.Names {
		ref, err := workload.ExecuteCached(name, 8, 0.1, 42)
		if err != nil {
			t.Fatal(err)
		}
		for _, protoName := range AllProtocolNames {
			for _, ps := range []int{512, 1024} {
				img, err := ReplayImage(ref.Trace, protoName, ps, proto.Options{}, false)
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", name, protoName, ps, err)
				}
				if !bytes.Equal(img, ref.Image) {
					t.Errorf("%s/%s/%d: image diverges from reference", name, protoName, ps)
				}
			}
		}
	}
}
