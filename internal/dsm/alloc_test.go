package dsm

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"sync"
	"testing"

	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/page"
	"repro/internal/simnet"
	"repro/internal/testenv"
	"repro/internal/transport"
	"repro/internal/wire"
)

// TestAccessHitAllocatesNothingGate: an 8-byte read or write that hits — the
// operation an application performs millions of times between two
// synchronization points — touches the heap under no engine. The write
// hits are to a page the interval has already twinned.
func TestAccessHitAllocatesNothingGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	allModes(t, func(t *testing.T, mode Mode) {
		n := newSys(t, 2, mode).Node(0)
		const addr = mem.Addr(1024 + 16)
		if err := n.WriteUint64(addr, 1); err != nil {
			t.Fatal(err)
		}
		var v uint64
		if allocs := testing.AllocsPerRun(1000, func() {
			x, err := n.ReadUint64(addr)
			if err != nil {
				t.Fatal(err)
			}
			v += x
		}); allocs != 0 {
			t.Errorf("a read hit allocates %.1f objects, want 0", allocs)
		}
		if allocs := testing.AllocsPerRun(1000, func() {
			if err := n.WriteUint64(addr, v); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("a write hit allocates %.1f objects, want 0", allocs)
		}
	})
}

// The lock-ring shape: every critical section rewrites a 64-byte record,
// four to a page, under its lock, and then a word of the node's private
// page; a barrier ends every step.
const (
	ringProcs, ringLocks, ringPageSize = 4, 32, 4096
	ringSpacing                        = ringPageSize / 4
	ringPrivBase                       = ringLocks * ringSpacing
)

// newRingSys returns a lock-ring cluster that collects every gcEvery
// barriers.
func newRingSys(t *testing.T, gcEvery int) *System {
	t.Helper()
	s, err := New(Config{
		Procs: ringProcs, SpaceSize: ringPrivBase + ringProcs*ringPageSize, PageSize: ringPageSize,
		Mode: LazyInvalidate, GCEveryBarriers: gcEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

// ringSteps runs steps [first, last) of the lock ring (ringDriver.steps).
func ringSteps(t *testing.T, s *System, first, last int) {
	t.Helper()
	newRingDriver(t, s).steps(t, first, last)
}

// ringDriver runs the lock ring on one goroutine per node that lives as
// long as the test, so that driving the ring allocates nothing of its own.
// A node is sent a step to run that step's critical sections, or
// ringBarrier to enter the barrier, and answers on done.
type ringDriver struct {
	cmds []chan int
	done chan error
}

const ringBarrier = -1

func newRingDriver(t *testing.T, s *System) *ringDriver {
	d := &ringDriver{done: make(chan error)}
	for id := 0; id < ringProcs; id++ {
		cmds := make(chan int)
		d.cmds = append(d.cmds, cmds)
		go func(n *Node) {
			for step := range cmds {
				if step == ringBarrier {
					d.done <- n.Barrier(0)
				} else {
					d.done <- ringSections(n, step)
				}
			}
		}(s.Node(id))
	}
	t.Cleanup(func() {
		for _, cmds := range d.cmds {
			close(cmds)
		}
	})
	return d
}

// steps runs steps [first, last): one node at a time runs its critical
// sections (every node has released its step's twins before the next
// capture, so each step asks the same of the pools), then all nodes meet
// at the barrier.
func (d *ringDriver) steps(t *testing.T, first, last int) {
	t.Helper()
	for step := first; step < last; step++ {
		for _, cmds := range d.cmds {
			cmds <- step
			if err := <-d.done; err != nil {
				t.Fatal(err)
			}
		}
		for _, cmds := range d.cmds {
			cmds <- ringBarrier
		}
		for range d.cmds {
			if err := <-d.done; err != nil {
				t.Fatal(err)
			}
		}
	}
}

// ringSections runs node n's critical sections of step: each takes a lock
// from its last holder, rewrites the lock's record — the grant's write
// notice invalidated the page, so the write misses — and releases it, which
// closes the record's interval; a private word written after it opens the
// next.
func ringSections(n *Node, step int) error {
	var rec [64]byte
	binary.LittleEndian.PutUint64(rec[:], uint64(step+1))
	for m := 0; m < ringLocks/ringProcs; m++ {
		l := (int(n.id)+step)%ringProcs + ringProcs*m
		err := n.Acquire(mem.LockID(l))
		if err == nil {
			err = n.Write(mem.Addr(l*ringSpacing), rec[:])
		}
		if err == nil {
			err = n.Release(mem.LockID(l))
		}
		if err == nil {
			err = n.WriteUint64(mem.Addr(ringPrivBase+int(n.id)*ringPageSize+8*m), uint64(step))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// TestCriticalSectionAllocatesNothingGate counts the objects a critical
// section allocates once the lock ring is warm: each takes a lock from
// another node (a grant carrying write notices), misses on the record the
// notices invalidated (a diff request and response), writes it (twin
// capture) and releases (an interval close with its slot array), and every
// fourth barrier runs a GC epoch (the bulk validation's prefetch, the
// discard and the sweep). Each of those recycles what it builds — twin and
// diff leases, slot arrays, want and request lists, message shells and
// their clocks — so a critical section allocates nothing. What a warm
// epoch may still allocate is a message shell's interval slab growing to
// the largest block it has decoded: 0-4 objects after 48 epochs, on a
// loaded box too. The bound, one object per 10 critical sections, is
// crossed by any per-operation allocation (a slot array made per interval
// close measures 2 per critical section).
func TestCriticalSectionAllocatesNothingGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	const gcEvery, warmEpochs = 4, 48
	s := newRingSys(t, gcEvery)
	d := newRingDriver(t, s)
	step := 0
	epoch := func() {
		d.steps(t, step, step+gcEvery)
		step += gcEvery
	}
	for range warmEpochs {
		epoch()
	}
	before := s.Node(0).Stats()
	allocs := testing.AllocsPerRun(4, epoch)
	after := s.Node(0).Stats()
	if after.GCRuns-before.GCRuns != 5 || after.AccessMisses == before.AccessMisses ||
		after.IntervalsCreated == before.IntervalsCreated || after.DiffsFetched == before.DiffsFetched {
		t.Fatalf("the measured epochs ran %d GC epochs, %d misses, %d intervals, %d fetched diffs on node 0: want 5 and more than none",
			after.GCRuns-before.GCRuns, after.AccessMisses-before.AccessMisses,
			after.IntervalsCreated-before.IntervalsCreated, after.DiffsFetched-before.DiffsFetched)
	}
	if perCS := allocs / (gcEvery * ringLocks); perCS > 0.1 {
		t.Errorf("a warm critical section allocates %.3f objects (%.0f per epoch of %d), want 0", perCS, allocs, gcEvery*ringLocks)
	} else {
		t.Logf("%.0f objects per epoch of %d critical sections", allocs, gcEvery*ringLocks)
	}
}

// TestLockBurstRecyclesTwinsAndStoreGate runs two lock-only bursts of 2,000
// critical sections on one four-node System, with a GC epoch between them.
// Node by node, every section takes a lock the node manages and rewrites
// four pages it homes, so nothing is sent: what a section allocates is its
// twins and its interval's store entry. Each node parks 2 MiB of twins in a
// burst, the System twice the twin budget, which trims the System to what
// the page pool keeps; so the epoch's release refills the pool the second
// burst captures from, and the second burst's intervals land in the cells
// and arrays the first left in the store's rings. It allocates under 0.1
// objects per section. A budget per node (none trimmed, twice what the pool
// keeps released at the epoch) measures 3.9 per section, and a slot array
// made per interval close 1.
func TestLockBurstRecyclesTwinsAndStoreGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	const procs, pageSize, pages, perNode, width = 4, 1024, 64, 500, 4
	s, err := New(Config{Procs: procs, SpaceSize: procs * pages * pageSize, PageSize: pageSize, Mode: LazyInvalidate, GCEveryBarriers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	burst := func(round int) {
		for _, n := range s.Local() {
			l := mem.LockID(n.ID()) // managed here, as the home of pg ≡ n.ID() is n
			for i := 0; i < perNode; i++ {
				must(t, n.Acquire(l))
				for j := 0; j < width; j++ {
					pg := int(n.ID()) + procs*((width*i+j)%pages)
					must(t, n.WriteUint64(mem.Addr(pg*pageSize+8), uint64(round)<<32|uint64(i)))
				}
				must(t, n.Release(l))
			}
		}
	}
	trimmed := func() (sum int64) {
		for _, n := range s.Local() {
			sum += n.Stats().DiffsTrimmed
		}
		return sum
	}
	burst(1)
	var wg sync.WaitGroup
	for _, n := range s.Local() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := n.Barrier(0); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if runs := s.Node(0).Stats().GCRuns; runs != 1 {
		t.Fatalf("%d GC epochs ran between the bursts, want 1", runs)
	}
	trimmed0 := trimmed()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	burst(2)
	runtime.ReadMemStats(&after)
	if trimmed() == trimmed0 {
		t.Fatal("the second burst never reached the twin budget")
	}
	perCS := float64(after.Mallocs-before.Mallocs) / (procs * perNode)
	if perCS >= 0.1 {
		t.Errorf("a critical section of the second burst allocates %.3f objects, want < 0.1", perCS)
	} else {
		t.Logf("%.3f objects per critical section", perCS)
	}
}

// TestTwinPoolCoversBudgetGate runs the lock ring over three epochs: every
// critical section twins a shared page and a private one, every interval
// parks its twins until the GC epoch, and the epoch releases them all at
// once. The System's parked twins stay far below the twin budget, and the
// page pool, which all its nodes share, keeps as many bytes as the budget,
// so once the pool has been through an epoch every capture is served from
// it: the last epoch must not miss once. (A pool 128 buffers deep dropped
// most of what an epoch released and allocated it again over the next
// steps.)
func TestTwinPoolCoversBudgetGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	const gcEvery = 8
	s := newRingSys(t, gcEvery)
	ringSteps(t, s, 0, 2*gcEvery)
	before := s.Node(0).Stats()
	gets0, _ := page.PoolStats()
	ringSteps(t, s, 2*gcEvery, 3*gcEvery)
	after := s.Node(0).Stats()
	gets1, _ := page.PoolStats()
	if after.GCRuns != 3 {
		t.Fatalf("%d GC epochs ran, want 3", after.GCRuns)
	}
	// The nodes' peaks added up bound the System's.
	var peaks int64
	for _, n := range s.Local() {
		peaks += n.Stats().TwinBytesPeak
	}
	if peaks > twinBudget/2 {
		t.Fatalf("the nodes' twin bytes peaked at %d together: the run was meant to stay far below the budget of %d", peaks, twinBudget)
	}
	if gets1 == gets0 {
		t.Fatal("the last epoch captured no twins")
	}
	if missed := after.TwinPoolMisses - before.TwinPoolMisses; missed != 0 {
		t.Errorf("the last epoch's %d captures missed the pool %d times, want 0", gets1-gets0, missed)
	}
}

// TestLogFlatInRunLength: a GC epoch sweeps the interval log, so what a
// node's log holds follows the history since the last epoch, not the run.
// The lock ring runs for 8 and for 64 epochs and one step past the last;
// every node's log then holds that one step's intervals, the same number
// after both runs, where an unswept log would hold eight times as many
// after the longer one.
func TestLogFlatInRunLength(t *testing.T) {
	const gcEvery = 2
	held := func(epochs int) []int {
		s := newRingSys(t, gcEvery)
		ringSteps(t, s, 0, epochs*gcEvery+1)
		counts := make([]int, ringProcs)
		for id := range counts {
			e := lazyOf(s.Node(id))
			if runs := s.Node(id).Stats().GCRuns; runs != int64(epochs) {
				t.Fatalf("node %d ran %d GC epochs, want %d", id, runs, epochs)
			}
			e.mu.Lock()
			counts[id] = e.log.Count()
			e.mu.Unlock()
		}
		return counts
	}
	short, long := held(8), held(64)
	// A step closes two intervals per critical section: the record's at its
	// release, the private word's at the next acquire or the barrier.
	bound := 2 * ringLocks
	for id := range short {
		if short[id] != long[id] || long[id] == 0 || long[id] > bound {
			t.Errorf("node %d's log holds %d intervals after 8 epochs and %d after 64, want the same, at most %d", id, short[id], long[id], bound)
		}
	}
}

// TestZeroPageServeAllocatesNothingGate: a node asked for a page it never
// materialized answers from the system's one read-only zero page — no
// 4 KiB of zeros made per request to be encoded away, no clock — under
// every engine, and the answer is a few bytes long.
func TestZeroPageServeAllocatesNothingGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	allModes(t, func(t *testing.T, mode Mode) {
		// Page 0 is homed at node 0 and untouched; node 1 asks.
		s, c := newCatchSys(t, servePair(mode), 0, 1)
		allocs, size := pageServeAllocs(s.Node(0), c)
		if allocs != 0 {
			t.Errorf("serving a never-materialized page allocates %.1f objects, want 0", allocs)
		}
		if size == 0 || size > 16 {
			t.Errorf("a zero page ships as %d bytes, want 1..16", size)
		}
	})
}

// TestWrittenPageServeAllocatesNothingGate: a node asked for a page it holds
// and wrote — its owner, under the directory engines — sends a view of
// its committed contents under the page's stripe instead of copying the
// page per request, under every engine, also while a later write is still
// uncommitted (the view is then the twin).
func TestWrittenPageServeAllocatesNothingGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	allModes(t, func(t *testing.T, mode Mode) {
		s, c := newCatchSys(t, servePair(mode), 0, 1)
		n, pageSize := s.Node(0), s.Layout().PageSize()
		must(t, n.Acquire(0))
		must(t, n.Write(0, bytes.Repeat([]byte{0x5A}, pageSize)))
		must(t, n.Release(0))
		must(t, n.WriteUint64(8, 1))
		allocs, size := pageServeAllocs(n, c)
		if allocs != 0 {
			t.Errorf("serving a written page allocates %.1f objects, want 0", allocs)
		}
		if size < pageSize {
			t.Errorf("a written page ships as %d bytes, want its contents", size)
		}
	})
}

// pageServeAllocs has n answer node 1's request for page 0 the way its
// engine does — the lazy page request, the eager home's ship, SC's
// owner-side fetch —
// and returns the objects one answer allocates and its size, as c caught it
// on its way to node 1.
func pageServeAllocs(n *Node, c *catcher) (allocs float64, size int) {
	req := &wire.Msg{Seq: 1, A: 0, B: 1}
	var serve func()
	switch e := n.e.(type) {
	case *lazyEngine:
		serve = func() { e.handlePageReq(req) }
	case *eagerEngine:
		serve = func() { e.dir.shipOwn(req, e.update) }
	case *scEngine:
		serve = func() { e.dir.serveFetch(req, 1) }
	}
	allocs = testing.AllocsPerRun(200, func() {
		serve()
		buf := c.take()
		size = len(buf)
		framebuf.Put(buf)
	})
	return allocs, size
}

// servePair is a two-node cluster's configuration, as newSys makes it.
func servePair(mode Mode) Config {
	return Config{Procs: 2, SpaceSize: 64 * 1024, PageSize: 1024, Mode: mode}
}

// catcher is a node's endpoint that keeps the frames the node sends dst
// instead of delivering them, so a test can read what a handler sent to a
// node that never asked; every other send passes through.
type catcher struct {
	transport.Endpoint
	dst    int
	mu     sync.Mutex
	frames [][]byte
}

func (c *catcher) Send(dst int, frame []byte) error {
	if dst != c.dst {
		return c.Endpoint.Send(dst, frame)
	}
	c.mu.Lock()
	c.frames = append(c.frames, frame)
	c.mu.Unlock()
	return nil
}

// take returns the first frame caught since the last take, nil if none,
// and recycles the rest.
func (c *catcher) take() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	var buf []byte
	if len(c.frames) > 0 {
		buf = c.frames[0]
		for _, f := range c.frames[1:] {
			framebuf.Put(f)
		}
	}
	clear(c.frames)
	c.frames = c.frames[:0]
	return buf
}

// newCatchSys starts a System over simnet whose node pid sends node dst
// into a catcher, and closes it when the test ends.
func newCatchSys(t *testing.T, cfg Config, pid, dst int) (*System, *catcher) {
	t.Helper()
	net := simnet.New(cfg.Procs)
	c := &catcher{Endpoint: net.Endpoint(pid), dst: dst}
	cfg.Transport = tapNet{net, c}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s, c
}

// allocatedBy returns the bytes the process allocated while f ran. The
// clusters under test are idle but for what f drives, so this is f's own
// bill, handler goroutines included. The gates below take the cheapest of
// their runs: the frame list is FIFO and shared with every test before
// them, so some runs grow a small frame to fit a page, and the gates are
// on a run whose pools all hit.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// warmDiffPool leaves n bodies of a dense diff of a pageSize page in the
// page pool, as a GC epoch leaves the bodies it discarded.
func warmDiffPool(n, pageSize int) {
	tw, cur := page.NewTwin(make([]byte, pageSize)), bytes.Repeat([]byte{1}, pageSize)
	warm := make([]*page.Diff, n)
	for i := range warm {
		warm[i], _ = page.MakeDiff(tw, cur)
	}
	for _, d := range warm {
		d.Release()
	}
	tw.Release()
}

// TestDenseDiffServeAllocatesNoBodyGate: with a warm pool, the first serve of
// a deferred dense 4 KiB diff — MakeDiff into a pooled lease, the response
// encoded into a pooled frame — allocates nothing: the lease brings the
// diff's header, run table and window with its body. A header made per
// diff measured 120 B, and a body made with make took it past 4,864 B.
func TestDenseDiffServeAllocatesNoBodyGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	const pageSize, serves, bound = 4096, 50, 64
	s, c := newCatchSys(t, Config{Procs: 2, SpaceSize: 8 * pageSize, PageSize: pageSize, Mode: LazyInvalidate}, 0, 1)
	n := s.Node(0)
	e := n.e.(*lazyEngine)
	pg := mem.PageID(0)
	for n.homeOf(pg) != n.id {
		pg++
	}
	warmDiffPool(serves, pageSize)
	buf := make([]byte, pageSize)
	req := &wire.Msg{Kind: wire.KDiffReq, A: 1, Wants: make([]wire.Want, 1)}
	least := ^uint64(0)
	for i := 0; i < serves; i++ {
		// A fresh interval rewrites every byte of the page; its diff stays
		// deferred until the request below asks for it.
		for k := range buf {
			buf[k] = byte(i + 1)
		}
		if err := n.Write(s.Layout().Base(pg), buf); err != nil {
			t.Fatal(err)
		}
		e.release()
		req.Seq, req.Wants[0] = uint64(i), wire.Want{Page: pg, Proc: n.id, Index: e.clock()[n.id]}
		made := n.Stats().DiffsCreated
		spent := allocatedBy(func() { e.handleDiffReq(req, 1) })
		if n.Stats().DiffsCreated != made+1 {
			t.Fatal("the serve did not materialize a deferred diff")
		}
		sent := c.take()
		if len(sent) < pageSize {
			t.Fatalf("the response is %d bytes, want a dense page's diff", len(sent))
		}
		framebuf.Put(sent)
		least = min(least, spent)
	}
	if least >= bound {
		t.Errorf("materializing and serving one dense %d-byte diff allocates %d B, want < %d", pageSize, least, bound)
	} else {
		t.Logf("%d B per materialize + serve", least)
	}
}

// TestEagerFlushBurstAllocatesNoScratchGate: one EU release that dirtied four
// dense pages cached at the three other nodes — one merged update to each of
// them carrying all four pages, each applied inline, a page's home among
// them — allocates nothing on all four nodes together. No diff body or
// header (a lease, returned when the burst is acknowledged), no burst
// scratch (updates and acknowledgements live in the flusher's and the
// receivers' frames, the drained pages and the records by destination in
// the flush's scratch), no goroutine (a home spawns one only to forward an
// update to copies its writer did not know of). Bodies and bursts grown from
// nil were 31 KB of this flush's 36 KB; headers, diff records and
// acknowledgement lists made per flush measure 1,048 B, and a goroutine per
// page at its home, the route through the home before updates merged, 128 B.
func TestEagerFlushBurstAllocatesNoScratchGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	const procs, pages, pageSize, flushes, bound = 4, 4, 4096, 30, 256
	s, err := New(Config{Procs: procs, SpaceSize: procs * pages * pageSize, PageSize: pageSize, Mode: EagerUpdate})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	flusher := s.Node(0)
	buf := make([]byte, pages*pageSize)
	rewrite := func(i int) {
		for k := range buf {
			buf[k] = byte(i + 1)
		}
		if err := flusher.Write(0, buf); err != nil {
			t.Fatal(err)
		}
	}
	flush := func() {
		if err := flusher.e.preRelease(); err != nil {
			t.Fatal(err)
		}
	}
	rewrite(0)
	flush()
	got := make([]byte, len(buf))
	for id := 1; id < procs; id++ {
		if err := s.Node(id).Read(got, 0); err != nil { // join every copyset
			t.Fatal(err)
		}
	}
	warmDiffPool(pages, pageSize)
	least := ^uint64(0)
	for i := 1; i <= flushes; i++ {
		rewrite(i)
		before := flusher.Stats()
		spent := allocatedBy(flush)
		if after := flusher.Stats(); after.FlushedPages-before.FlushedPages != pages {
			t.Fatalf("the flush pushed %d pages, want %d", after.FlushedPages-before.FlushedPages, pages)
		}
		least = min(least, spent)
	}
	for id := 1; id < procs; id++ {
		if err := s.Node(id).Read(got, 0); err != nil || !bytes.Equal(got, buf) {
			t.Fatalf("node %d does not hold the last flush (err %v)", id, err)
		}
	}
	if least >= bound {
		t.Errorf("one EU flush of %d dense pages to %d cachers allocates %d B, want < %d", pages, procs-1, least, bound)
	} else {
		t.Logf("%d B per flush", least)
	}
}
