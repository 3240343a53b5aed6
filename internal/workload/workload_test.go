package workload

import (
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/mem"
	"repro/internal/trace"
)

const (
	testProcs = 8
	testScale = 0.1
	testSeed  = 7
)

func genAll(t *testing.T) map[string]*trace.Trace {
	t.Helper()
	out := map[string]*trace.Trace{}
	for _, name := range Names {
		tr, err := GenerateCached(name, testProcs, testScale, testSeed)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		out[name] = tr
	}
	return out
}

func TestAllWorkloadsGenerateValidTraces(t *testing.T) {
	for name, tr := range genAll(t) {
		if err := tr.Validate(); err != nil {
			t.Errorf("%s: invalid trace: %v", name, err)
		}
		if tr.Name != name {
			t.Errorf("%s: trace named %q", name, tr.Name)
		}
		if tr.NumProcs != testProcs {
			t.Errorf("%s: NumProcs = %d", name, tr.NumProcs)
		}
		c := tr.Count()
		ops := c.Reads + c.Writes + c.Acquires + c.Releases + c.BarrierArrivals
		if ops < 1000 {
			t.Errorf("%s: only %d operations", name, ops)
		}
	}
}

func TestGenerationIsDeterministic(t *testing.T) {
	for _, name := range Names {
		p1, err := New(name, testProcs, testScale, testSeed)
		if err != nil {
			t.Fatal(err)
		}
		t1, err := Generate(p1)
		if err != nil {
			t.Fatal(err)
		}
		p2, err := New(name, testProcs, testScale, testSeed)
		if err != nil {
			t.Fatal(err)
		}
		t2, err := Generate(p2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(t1.Events, t2.Events) {
			t.Errorf("%s: two generations with the same seed differ", name)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	p1, _ := New("locusroute", testProcs, testScale, 1)
	t1, err := Generate(p1)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := New("locusroute", testProcs, testScale, 2)
	t2, err := Generate(p2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(t1.Events, t2.Events) {
		t.Error("different seeds produced identical traces")
	}
}

func TestGenerateCachedReturnsSameTrace(t *testing.T) {
	a, err := GenerateCached("water", testProcs, testScale, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateCached("water", testProcs, testScale, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cache returned distinct traces for identical parameters")
	}
}

func TestNewRejectsBadArgs(t *testing.T) {
	if _, err := New("bogus", 8, 1, 1); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := New("water", 0, 1, 1); err == nil {
		t.Error("zero processors accepted")
	}
	if _, err := New("water", 8, -1, 1); err == nil {
		t.Error("negative scale accepted")
	}
	if _, err := Generate(&LocusRoute{Procs: 100}); err == nil {
		t.Error("processor count above 64 accepted")
	}
}

func TestWorkloadCharacters(t *testing.T) {
	// Each program's synchronization mix must match its §5.2 description.
	traces := genAll(t)

	lr := traces["locusroute"].Count()
	if lr.Acquires < 50 || lr.BarrierArrivals > testProcs {
		t.Errorf("locusroute: lock-dominated expected: %+v", lr)
	}

	ch := traces["cholesky"].Count()
	if ch.BarrierArrivals > testProcs { // only the fork barrier
		t.Errorf("cholesky: should use no barriers beyond the fork: %+v", ch)
	}
	if ch.Acquires < 30 {
		t.Errorf("cholesky: lock-based task queue expected: %+v", ch)
	}

	mp := traces["mp3d"].Count()
	if mp.BarrierArrivals < 4*testProcs {
		t.Errorf("mp3d: barrier-per-phase expected: %+v", mp)
	}

	wa := traces["water"].Count()
	if wa.BarrierArrivals < 4*testProcs || wa.Acquires < 20 {
		t.Errorf("water: barriers plus molecule locks expected: %+v", wa)
	}

	pt := traces["pthor"].Count()
	perEvent := float64(pt.Acquires) / float64(len(traces["pthor"].Events))
	if perEvent < 0.05 {
		t.Errorf("pthor: lock-heavy expected, acquires are %.1f%% of events", 100*perEvent)
	}

	// Water communicates least: fewest shared accesses per processor.
	if len(traces["water"].Events) >= len(traces["pthor"].Events) {
		t.Error("water trace not smaller than pthor's")
	}
}

func TestLockContentionProducesFIFOGrants(t *testing.T) {
	// A program where every processor fights over one lock: grants must
	// alternate (FIFO), never granting a held lock.
	tr, err := Generate(&contended{procs: 4, iters: 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	c := tr.Count()
	if c.Acquires != 40 || c.Releases != 40 {
		t.Errorf("contended counts: %+v", c)
	}
}

// contended is a minimal test program: all processors hammer one lock.
type contended struct {
	procs, iters int
}

func (c *contended) Name() string { return "contended" }
func (c *contended) Config() Config {
	return Config{NumProcs: c.procs, SpaceSize: 4096, NumLocks: 1, NumBarriers: 1}
}
func (c *contended) Proc(ctx Ctx) {
	for i := 0; i < c.iters; i++ {
		Locked(ctx, 0, func() {
			ctx.Update(0, 8)
		})
	}
	ctx.Barrier(0)
}

// barrierHeavy exercises repeated barrier episodes with the same id.
type barrierHeavy struct {
	procs, rounds int
}

func (b *barrierHeavy) Name() string { return "barrierheavy" }
func (b *barrierHeavy) Config() Config {
	return Config{NumProcs: b.procs, SpaceSize: 4096, NumLocks: 1, NumBarriers: 1}
}
func (b *barrierHeavy) Proc(ctx Ctx) {
	for i := 0; i < b.rounds; i++ {
		ctx.Write(mem.Addr(ctx.Proc()*64), 8)
		ctx.Barrier(0)
	}
}

func TestRepeatedBarrierEpisodes(t *testing.T) {
	tr, err := Generate(&barrierHeavy{procs: 4, rounds: 5})
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Count()
	if c.BarrierArrivals != 20 {
		t.Errorf("BarrierArrivals = %d, want 20", c.BarrierArrivals)
	}
}

func TestCtxHelpers(t *testing.T) {
	r, err := Execute(&helperProg{})
	if err != nil {
		t.Fatal(err)
	}
	c := r.Trace.Count()
	if c.Reads != 5 || c.Writes != 4 { // Update/AddVal = read+write each
		t.Errorf("helper counts: %+v", c)
	}
	// The image reflects the value semantics: the update incremented bytes
	// [0,8), the fill write landed at [16,24), and the counter at 32 holds
	// its two fetch-add deltas.
	img := r.Image
	if img[0] != 1 {
		t.Errorf("img[0] = %d after one update, want 1", img[0])
	}
	for i := 16; i < 24; i++ {
		if img[i] != trace.Fill(mem.Addr(i)) {
			t.Errorf("img[%d] = %#x, want fill %#x", i, img[i], trace.Fill(mem.Addr(i)))
		}
	}
	if got := binary.LittleEndian.Uint64(img[32:]); got != 7 {
		t.Errorf("counter = %d, want 7", got)
	}
	if !reflect.DeepEqual(r.Trace.Image(), img) {
		t.Error("trace value replay diverges from execution image")
	}
}

type helperProg struct{}

func (h *helperProg) Name() string { return "helper" }
func (h *helperProg) Config() Config {
	return Config{NumProcs: 1, SpaceSize: 4096, NumLocks: 1, NumBarriers: 1}
}
func (h *helperProg) Proc(ctx Ctx) {
	if ctx.NumProcs() != 1 || ctx.Proc() != 0 {
		panic("ctx identity wrong")
	}
	ctx.Update(0, 8)
	ctx.Read(8, 8)
	ctx.Write(16, 8)
	if got := ctx.FetchAddUint64(32, 3); got != 0 {
		panic("fetch-add did not start at zero")
	}
	if got := ctx.FetchAddUint64(32, 4); got != 3 {
		panic("fetch-add lost the first delta")
	}
	if got := ctx.ReadUint64(32); got != 7 {
		panic("read-back of counter wrong")
	}
}

func TestSpaceAllocator(t *testing.T) {
	var s Space
	r1 := s.AllocArray(10, 8)
	r2 := s.AllocArray(3, 512)
	if r1.Base != 0 || r1.Size != 80 {
		t.Errorf("r1 = %+v", r1)
	}
	if r2.Base%512 != 0 {
		t.Errorf("r2 not page-aligned: %+v", r2)
	}
	if r2.Base < r1.Base+r1.Size {
		t.Error("regions overlap")
	}
	if got := r1.Elem(2, 8); got != 16 {
		t.Errorf("Elem = %d", got)
	}
}

func TestRegionAtPanicsOutside(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-region offset accepted")
		}
	}()
	Region{Base: 0, Size: 8}.At(8)
}

func TestSpaceAllocBadAlign(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("bad alignment accepted")
		}
	}()
	var s Space
	s.Alloc(8, 3)
}

func TestSplitRNGIsStable(t *testing.T) {
	if splitRNG(1, 2) != splitRNG(1, 2) {
		t.Error("splitRNG not deterministic")
	}
	if splitRNG(1, 2) == splitRNG(1, 3) || splitRNG(1, 2) == splitRNG(2, 2) {
		t.Error("splitRNG collides on adjacent lanes")
	}
}

// TestEveryShapeRunsOrIsRefused: every workload at every processor count
// and scale either is refused by New with an error or runs through Execute
// without a panic — a one-processor pthor once asked Intn for another
// processor out of none, and a 64-processor mp3d at a small scale handed a
// processor past the last particle a negative partition.
func TestEveryShapeRunsOrIsRefused(t *testing.T) {
	for _, name := range Names {
		for _, procs := range []int{1, 2, 3, 5, 16, 64} {
			for _, scale := range []float64{0.01, 0.05, 1} {
				p, err := New(name, procs, scale, 1)
				if err != nil {
					if name != "pthor" || procs != 1 {
						t.Errorf("%s p%d scale %g refused: %v", name, procs, scale, err)
					}
					continue
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s p%d scale %g panics: %v", name, procs, scale, r)
						}
					}()
					if _, err := Execute(p); err != nil {
						t.Errorf("%s p%d scale %g: %v", name, procs, scale, err)
					}
				}()
			}
		}
	}
}
