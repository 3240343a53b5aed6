package dsm

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
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
// hits are to words the interval has already logged.
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

// newRingSys returns a lock-ring cluster of mode that collects every
// gcEvery barriers.
func newRingSys(t *testing.T, mode Mode, gcEvery int) *System {
	t.Helper()
	s, err := New(Config{
		Procs: ringProcs, SpaceSize: ringPrivBase + ringProcs*ringPageSize, PageSize: ringPageSize,
		Mode: mode, GCEveryBarriers: gcEvery,
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

// ringDriver runs a program on one goroutine per node that lives as long
// as the test, so that driving it allocates nothing of its own. A node is
// sent a step to run that step's part (the lock ring's: its critical
// sections), or ringBarrier to enter the barrier, and answers on done.
type ringDriver struct {
	cmds []chan int
	done chan error
}

const ringBarrier = -1

func newRingDriver(t *testing.T, s *System) *ringDriver { return newDriver(t, s, ringSections) }

// newDriver returns a driver whose nodes run part for each step.
func newDriver(t *testing.T, s *System, part func(n *Node, step int) error) *ringDriver {
	d := &ringDriver{done: make(chan error)}
	for _, n := range s.Local() {
		cmds := make(chan int)
		d.cmds = append(d.cmds, cmds)
		go func() {
			for step := range cmds {
				if step == ringBarrier {
					d.done <- n.Barrier(0)
				} else {
					d.done <- part(n, step)
				}
			}
		}()
	}
	t.Cleanup(func() {
		for _, cmds := range d.cmds {
			close(cmds)
		}
	})
	return d
}

// steps runs steps [first, last): one node at a time runs its critical
// sections (every node has committed its step's write logs before the
// next one writes, so each step asks the same of the pools), then all nodes meet
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
		d.all(t, ringBarrier)
	}
}

// all runs step on every node at once.
func (d *ringDriver) all(t *testing.T, step int) {
	t.Helper()
	for _, cmds := range d.cmds {
		cmds <- step
	}
	for range d.cmds {
		if err := <-d.done; err != nil {
			t.Fatal(err)
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
// section allocates once the lock ring is warm, under LI and LU: each takes
// a lock from another node (a grant carrying write notices, and under LU
// the releaser's diffs), brings the record the notices invalidated current
// (LI: a miss's diff request and response; LU: the acquire's revalidation,
// which fetches what the grant did not carry), writes it (the first write
// of each word logs it) and releases (an interval close cutting its diffs
// into the store), and every fourth barrier runs a GC epoch (the bulk
// validation's round, the discard and the sweep). Each of those recycles
// what it builds — write logs, diff leases, the store's chunks, slabs and
// body slabs, want and request lists, message shells, their clocks and
// the slabs their blocks take from the wire slab pool — so a critical
// section allocates nothing: 0-4 objects per warm epoch, on a loaded box
// too. The bound, one object per 10 critical sections, is crossed by any
// per-operation allocation (a slot array made per interval close measures
// 2 per critical section; under LU, the acquire's revalidation list cloned
// and its grant's diff list grown per critical section 0.31).
func TestCriticalSectionAllocatesNothingGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	for _, mode := range []Mode{LazyInvalidate, LazyUpdate} {
		t.Run(mode.String(), func(t *testing.T) {
			const gcEvery, warmEpochs = 4, 48
			s := newRingSys(t, mode, gcEvery)
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
			// LU takes no access misses: its acquires bring the records current.
			missed := after.AccessMisses > before.AccessMisses || mode == LazyUpdate
			if after.GCRuns-before.GCRuns != 5 || !missed ||
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
		})
	}
}

// TestBarrierNoticesAllocateNothingGate: a barrier round moves an epoch's
// write notices — four LI nodes each close 240 intervals on a lock and page
// of their own between barriers, so each arrival carries 240 records, the
// master absorbs 720 and each exit carries the 720 its node lacks — and
// allocates nothing once warm: the arrivals and exits are built in, and
// decoded into, slabs of the wire slab pool, the master absorbs in place,
// and the GC epoch every barrier runs recycles the log's chunks. A block
// decoded into slabs of its own measured 18 objects a round (three per
// arrival and exit), the bound is one.
func TestBarrierNoticesAllocateNothingGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	const procs, pageSize, intervals, warm, measured = 4, 1024, 240, 8, 8
	s, err := New(Config{Procs: procs, SpaceSize: procs * pageSize, PageSize: pageSize, Mode: LazyInvalidate, GCEveryBarriers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	d := newDriver(t, s, func(n *Node, step int) error {
		l, base := mem.LockID(n.ID()), mem.Addr(int(n.ID())*pageSize) // its lock and its page, both managed and homed here
		for i := range intervals {
			err := n.Acquire(l)
			if err == nil {
				err = n.WriteUint64(base+mem.Addr(8*(i%(pageSize/8))), uint64(step))
			}
			if err == nil {
				err = n.Release(l)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	var mallocs uint64
	for step := range warm + measured {
		d.all(t, step)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d.all(t, ringBarrier)
		runtime.ReadMemStats(&after)
		if step >= warm {
			mallocs += after.Mallocs - before.Mallocs
		}
	}
	if got := s.Node(1).Stats().IntervalsCreated; got != (warm+measured)*intervals {
		t.Fatalf("node 1 closed %d intervals, want %d", got, (warm+measured)*intervals)
	}
	if per := float64(mallocs) / measured; per >= 1 {
		t.Errorf("a warm barrier round moving %d write notices allocates %.2f objects, want under 1", procs*intervals, per)
	} else {
		t.Logf("%.2f objects per barrier round", per)
	}
}

// TestLockBurstRecyclesTwinsAndStoreGate runs two lock-only bursts of 2,000
// critical sections on one four-node System, with a GC epoch between them:
// two barriers, the first validating the epoch, the second discarding it.
// Node by node, every section takes a lock the node manages and rewrites a
// word of four pages it homes, so nothing is sent: what a section
// allocates is its pages' write logs and its interval's store entry and
// bodies. The epoch's sweep releases the first burst's body slabs to the
// page pool, and the second burst's intervals take the store's chunks and
// slabs the sweep freed and their body slabs from the pool. It allocates
// under 0.1 objects per section. Twins captured per section and a twin
// budget counted per node measured 3.9 per section, a slot array made per
// interval close 1.
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
	burst(1)
	barriers(t, s, 2)
	if runs := s.Node(0).Stats().GCRuns; runs != 1 {
		t.Fatalf("%d GC epochs ran between the bursts, want 1", runs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	burst(2)
	runtime.ReadMemStats(&after)
	perCS := float64(after.Mallocs-before.Mallocs) / (procs * perNode)
	if perCS >= 0.1 {
		t.Errorf("a critical section of the second burst allocates %.3f objects, want < 0.1", perCS)
	} else {
		t.Logf("%.3f objects per critical section", perCS)
	}
}

// TestFirstEpochStoreAllocatesPerSlabGate runs 2,048 critical sections on
// each node of a fresh four-node LI System, before any GC epoch: every
// section takes a lock the node manages and rewrites one word of a page it
// homes, so nothing is sent and each section closes one interval, whose
// slot and entry the retained-diff store takes. A store that has never
// been swept has nothing to recycle, so this is what its storage costs a
// fresh cluster: its objects, counted by a memory profile of every
// allocation made in lazy_store.go, must be at most one per 64 interval
// closes. Slots bump-allocated from 6 KiB slabs and entries in 2 KiB
// chunks measure one per 85 (24 a node); a slot array made per interval
// close, with a ring of them that doubles, one per close.
func TestFirstEpochStoreAllocatesPerSlabGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	const procs, pageSize, pages, perNode = 4, 1024, 16, 2048
	s, err := New(Config{Procs: procs, SpaceSize: procs * pages * pageSize, PageSize: pageSize, Mode: LazyInvalidate, GCEveryBarriers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	allocs := storeAllocs(func() {
		for _, n := range s.Local() {
			l := mem.LockID(n.ID()) // managed here, as the home of pg ≡ n.ID() is n
			for i := range perNode {
				pg := int(n.ID()) + procs*(i%pages)
				must(t, n.Acquire(l))
				must(t, n.WriteUint64(mem.Addr(pg*pageSize+8*(i%(pageSize/8))), uint64(i)))
				must(t, n.Release(l))
			}
		}
	})
	var closes int64
	for _, n := range s.Local() {
		st := n.Stats()
		if st.GCRuns != 0 {
			t.Fatalf("node %d ran %d GC epochs, want none", n.ID(), st.GCRuns)
		}
		closes += st.IntervalsCreated
	}
	if closes != procs*perNode {
		t.Fatalf("the sections closed %d intervals, want %d", closes, procs*perNode)
	}
	if allocs*64 > closes {
		t.Errorf("the store made %d objects for %d interval closes (one per %.1f), want at most one per 64",
			allocs, closes, float64(closes)/float64(max(allocs, 1)))
	} else {
		t.Logf("%d store objects for %d interval closes", allocs, closes)
	}
}

// storeAllocs returns the objects allocated while f ran whose allocating
// frame — the first outside the runtime and core.AppendDoubling — lies in
// lazy_store.go: the retained-diff store's own storage. It profiles every
// allocation while it counts; the profile is published by a GC cycle, so
// it runs two on each side.
func storeAllocs(f func()) int64 {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	count := func() (objs int64) {
		runtime.GC()
		runtime.GC()
		var recs []runtime.MemProfileRecord
		for {
			n, ok := runtime.MemProfile(recs, true)
			if ok {
				recs = recs[:n]
				break
			}
			recs = make([]runtime.MemProfileRecord, n+64)
		}
		for i := range recs {
			frames := runtime.CallersFrames(recs[i].Stack())
			for {
				fr, more := frames.Next()
				if !strings.HasPrefix(fr.Function, "runtime.") && !strings.HasPrefix(fr.Function, "repro/internal/core.AppendDoubling") {
					if strings.HasSuffix(fr.File, "/lazy_store.go") {
						objs += recs[i].AllocObjects
					}
					break
				}
				if !more {
					break
				}
			}
		}
		return objs
	}
	before := count()
	f()
	return count() - before
}

// TestBodySlabsComeFromThePoolGate runs the lock ring over three epochs:
// every critical section writes a shared record and a private word, every
// interval close cuts its diffs into the store's body slabs, and the
// epoch's discard, at the barrier after the one that validated it, sweeps
// the slabs it covers back to the page pool, which all the System's nodes
// share. So once the pool has been through an epoch, the next epoch's body
// slabs — and every diff lease a serve or a miss reads a body into — come
// from it: the third epoch must take some, and miss the pool not once.
func TestBodySlabsComeFromThePoolGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	const gcEvery = 8
	s := newRingSys(t, LazyInvalidate, gcEvery)
	ringSteps(t, s, 0, 2*gcEvery+1)
	before := s.Node(0).Stats()
	gets0, _ := page.PoolStats()
	ringSteps(t, s, 2*gcEvery+1, 3*gcEvery+1)
	after := s.Node(0).Stats()
	gets1, _ := page.PoolStats()
	if after.GCRuns != 3 {
		t.Fatalf("%d GC epochs ran, want 3", after.GCRuns)
	}
	for _, n := range s.Local() {
		e := lazyOf(n)
		e.mu.Lock()
		held := len(e.store.procs[n.id].bodies)
		e.mu.Unlock()
		if held == 0 {
			t.Fatalf("node %d's store holds no body slab after the third epoch", n.id)
		}
	}
	if gets1 == gets0 {
		t.Fatal("the third epoch took nothing from the pool")
	}
	if missed := after.TwinPoolMisses - before.TwinPoolMisses; missed != 0 {
		t.Errorf("the third epoch's %d pool gets missed %d times, want 0", gets1-gets0, missed)
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
		s := newRingSys(t, LazyInvalidate, gcEvery)
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
		// Page 0 is homed at node 0 and untouched; node 1 asks — under SC,
		// where only a page's home fetches it, node 0 itself, by loopback.
		from := 1
		if mode == SeqConsistent {
			from = 0
		}
		s, c := newCatchSys(t, servePair(mode), 0, from)
		allocs, size := pageServeAllocs(s.Node(0), c, 0, mem.ProcID(from))
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
// uncommitted (the view then has the log's old words swapped in).
func TestWrittenPageServeAllocatesNothingGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	allModes(t, func(t *testing.T, mode Mode) {
		// Node 0 writes page 0, which it homes, and node 1 asks — under SC
		// for page 1, which node 1 homes and fetches from its owner, node 0
		// since the write.
		pg := mem.PageID(0)
		if mode == SeqConsistent {
			pg = 1
		}
		s, c := newCatchSys(t, servePair(mode), 0, -1)
		n, pageSize := s.Node(0), s.Layout().PageSize()
		addr := mem.Addr(pg) * mem.Addr(pageSize)
		must(t, n.Acquire(0))
		must(t, n.Write(addr, bytes.Repeat([]byte{0x5A}, pageSize)))
		must(t, n.Release(0))
		must(t, n.WriteUint64(addr+8, 1))
		c.catch(1)
		allocs, size := pageServeAllocs(n, c, pg, 1)
		if allocs != 0 {
			t.Errorf("serving a written page allocates %.1f objects, want 0", allocs)
		}
		if size < pageSize {
			t.Errorf("a written page ships as %d bytes, want its contents", size)
		}
	})
}

// pageServeAllocs has n answer node from's request for page pg the way its
// engine does — the lazy page request, the eager home's ship, SC's
// owner-side fetch — and returns the objects one answer allocates and its
// size, as c caught it on its way to from.
func pageServeAllocs(n *Node, c *catcher, pg mem.PageID, from mem.ProcID) (allocs float64, size int) {
	req := &wire.Msg{Seq: 1, A: int32(pg), B: int32(from)}
	var serve func()
	switch e := n.e.(type) {
	case *lazyEngine:
		serve = func() { e.handlePageReq(req) }
	case *eagerEngine:
		serve = func() { e.dir.shipOwn(req, e.update) }
	case *scEngine:
		serve = func() { e.dir.serveFetch(req, from) }
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
	c.mu.Lock()
	if dst != c.dst {
		c.mu.Unlock()
		return c.Endpoint.Send(dst, frame)
	}
	c.frames = append(c.frames, frame)
	c.mu.Unlock()
	return nil
}

// catch makes c keep what the node sends dst from now on, and no longer
// what it sends the destination before; -1 keeps nothing.
func (c *catcher) catch(dst int) {
	c.mu.Lock()
	c.dst = dst
	c.mu.Unlock()
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
// (none for -1) into a catcher, and closes it when the test ends.
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

// TestDenseDiffServeAllocatesNoBodyGate: with a warm pool, the serve of a
// dense 4 KiB diff — its body read out of the store's body slab into a
// pooled lease, the response encoded into a pooled frame — allocates
// nothing: the lease brings the diff's header with its body. A header made per diff measured 120 B, and a body made with
// make took it past 4,864 B.
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
		// A fresh interval rewrites every byte of the page; its close cuts
		// the diff into the store, and the request below asks for it.
		for k := range buf {
			buf[k] = byte(i + 1)
		}
		if err := n.Write(s.Layout().Base(pg), buf); err != nil {
			t.Fatal(err)
		}
		made := n.Stats().DiffsCreated
		e.release()
		if n.Stats().DiffsCreated != made+1 {
			t.Fatal("the interval close did not cut the page's diff")
		}
		req.Seq, req.Wants[0] = uint64(i), wire.Want{Page: pg, Proc: n.id, Index: e.clock()[n.id]}
		spent := allocatedBy(func() { e.handleDiffReq(req, 1) })
		sent := c.take()
		if len(sent) < pageSize {
			t.Fatalf("the response is %d bytes, want a dense page's diff", len(sent))
		}
		framebuf.Put(sent)
		least = min(least, spent)
	}
	if least >= bound {
		t.Errorf("serving one dense %d-byte diff allocates %d B, want < %d", pageSize, least, bound)
	} else {
		t.Logf("%d B per serve", least)
	}
}

// TestWideDiffRequestAllocatesNothingGate: one diff request of 64 wants —
// a fault that brings every invalid page its responders serve asks for as
// many — is answered without allocating: the response's records come from
// the wire slab pool, the diffs are the store's bodies read into pooled
// leases, and the response is encoded into a pooled frame. Records on the
// handler's stack that a 33rd want overflowed allocated per request.
func TestWideDiffRequestAllocatesNothingGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	const pageSize, wants = 1024, 64
	s, c := newCatchSys(t, Config{Procs: 2, SpaceSize: wants * pageSize, PageSize: pageSize, Mode: LazyInvalidate}, 0, 1)
	n := s.Node(0)
	e := n.e.(*lazyEngine)
	for pg := range wants {
		must(t, n.WriteUint64(s.Layout().Base(mem.PageID(pg))+8, uint64(pg)+1))
	}
	e.release()
	req := &wire.Msg{Kind: wire.KDiffReq, A: 1, Wants: make([]wire.Want, wants)}
	for pg := range req.Wants {
		req.Wants[pg] = wire.Want{Page: mem.PageID(pg), Proc: n.id, Index: e.clock()[n.id]}
	}
	serve := func() {
		req.Seq++
		e.handleDiffReq(req, 1)
		framebuf.Put(c.take())
	}
	serve() // the first serve warms the pools
	if allocs := testing.AllocsPerRun(100, serve); allocs != 0 {
		t.Errorf("serving a request of %d wants allocates %.1f objects, want 0", wants, allocs)
	}
	if got := n.Stats().DiffsCreated; got != wants {
		t.Errorf("%d diffs made, want %d: one per want, at the first serve", got, wants)
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
		if err := flusher.e.release(); err != nil {
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

// BenchmarkIntervalClose times LI critical sections on a one-node System —
// an acquire, a one-word write, which logs the word, and the release, which
// closes the interval: the log is cut into a body in the retained-diff
// store's slabs and the record enters the log — so nothing is sent. fresh
// runs them on Systems no GC epoch ever sweeps, a new one every 4,096
// sections (untimed), so the store and the log take their chunks and slabs
// as they grow; warm runs a GC epoch every 1,024 sections (two untimed
// barriers), so the store, the log and the page pool take back what the
// sweep freed. allocs/op is what a close costs a fresh cluster and a warm
// one.
func BenchmarkIntervalClose(b *testing.B) {
	noPoison(b)
	const pageSize, pages, epoch, life = 1024, 16, 1024, 4096
	for _, warm := range []bool{false, true} {
		name := map[bool]string{false: "fresh", true: "warm"}[warm]
		b.Run(name, func(b *testing.B) {
			var s *System
			start := func() {
				if s != nil {
					must(b, s.Close())
				}
				var err error
				if s, err = New(Config{Procs: 1, SpaceSize: pages * pageSize, PageSize: pageSize, Mode: LazyInvalidate, GCEveryBarriers: 1}); err != nil {
					b.Fatal(err)
				}
			}
			section := func(i int) {
				n := s.Node(0)
				if warm && i%epoch == 0 {
					b.StopTimer()
					must(b, n.Barrier(0))
					b.StartTimer()
				}
				must(b, n.Acquire(0))
				must(b, n.WriteUint64(mem.Addr(i%pages*pageSize+8*(i/pages%(pageSize/8))), uint64(i)))
				must(b, n.Release(0))
			}
			start()
			if warm {
				for i := range 8 * epoch {
					section(i)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := range b.N {
				if !warm && i%life == 0 {
					b.StopTimer()
					start()
					b.StartTimer()
				}
				section(i)
			}
			b.StopTimer()
			must(b, s.Close())
		})
	}
}
