package dsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"sync"
	"testing"

	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/page"
	"repro/internal/testenv"
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

// TestTouchTableLivesUntilFirstBarrier: an access ticks the home table's
// touch counts only while first-touch is still collecting claims. Under
// block placement the counts are never allocated; under first-touch the
// first cluster barrier takes them, and later accesses find nothing to
// tick.
func TestTouchTableLivesUntilFirstBarrier(t *testing.T) {
	if s := newSys(t, 2, LazyInvalidate); s.Node(0).homes.touch.Load() != nil {
		t.Error("block placement allocated a touch table")
	}
	s, err := New(Config{Procs: 2, SpaceSize: 8192, PageSize: 1024, Mode: LazyInvalidate, Placement: PlaceFirstTouch})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	run := func(n *Node) error {
		addr := 1024 + 8*mem.Addr(n.ID()) // both nodes touch page 1
		if err := n.WriteUint64(addr, 1); err != nil {
			return err
		}
		touch := n.homes.touch.Load()
		if touch == nil || (*touch)[1].Load() != 1 {
			return errors.New("no touch recorded before the first barrier")
		}
		if err := n.Barrier(0); err != nil {
			return err
		}
		if err := n.WriteUint64(addr, 2); err != nil {
			return err
		}
		if n.homes.touch.Load() != nil || (*touch)[1].Load() != 1 {
			return errors.New("the touch table outlived the first barrier")
		}
		return nil
	}
	var wg sync.WaitGroup
	for _, n := range s.Local() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := run(n); err != nil {
				t.Errorf("node %d: %v", n.ID(), err)
			}
		}()
	}
	wg.Wait()
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

// ringSteps runs steps [first, last) of the lock ring, one node at a time
// (every node has released its step's twins before the next capture, so
// each step asks the same of the pools), all nodes meeting at the barrier.
func ringSteps(t *testing.T, s *System, first, last int) {
	t.Helper()
	for step := first; step < last; step++ {
		for id := 0; id < ringProcs; id++ {
			n := s.Node(id)
			var rec [64]byte
			for m := 0; m < ringLocks/ringProcs; m++ {
				l := (id+step)%ringProcs + ringProcs*m
				binary.LittleEndian.PutUint64(rec[:], uint64(step+1))
				err := n.Acquire(mem.LockID(l))
				if err == nil {
					err = n.Write(mem.Addr(l*ringSpacing), rec[:])
				}
				if err == nil {
					err = n.Release(mem.LockID(l))
				}
				if err == nil {
					err = n.WriteUint64(mem.Addr(ringPrivBase+id*ringPageSize+8*m), uint64(step))
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		var wg sync.WaitGroup
		for id := 0; id < ringProcs; id++ {
			wg.Add(1)
			go func(n *Node) {
				defer wg.Done()
				if err := n.Barrier(0); err != nil {
					t.Error(err)
				}
			}(s.Node(id))
		}
		wg.Wait()
	}
}

// TestTwinPoolCoversBudgetGate runs the lock ring over three epochs: every
// critical section twins a shared page and a private one, every interval
// parks its twins until the GC epoch, and the epoch releases them all at
// once. The parked twins stay far below the twin budget, and the page pool
// keeps as many bytes as the budget, so once the pool has been through an
// epoch every capture is served from it: the last epoch must not miss
// once. (A pool 128 buffers deep dropped most of what an epoch released
// and allocated it again over the next steps.)
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
	if after.TwinBytesPeak > twinBudget/2 {
		t.Fatalf("TwinBytesPeak = %d: the run was meant to stay far below the budget of %d", after.TwinBytesPeak, twinBudget)
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
		allocs, size := pageServeAllocs(newSys(t, 2, mode).Node(0))
		if allocs != 0 {
			t.Errorf("serving a never-materialized page allocates %.1f objects, want 0", allocs)
		}
		if size == 0 || size > 16 {
			t.Errorf("a zero page ships as %d bytes, want 1..16", size)
		}
	})
}

// TestWrittenPageServeAllocatesNothingGate: a node asked for a page it holds
// and wrote — its owner, under the directory engines — stages a view of
// its committed contents under the page's stripe instead of copying the
// page per request, under every engine, also while a later write is still
// uncommitted (the view is then the twin).
func TestWrittenPageServeAllocatesNothingGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	allModes(t, func(t *testing.T, mode Mode) {
		s := newSys(t, 2, mode)
		n, pageSize := s.Node(0), s.Layout().PageSize()
		must(t, n.Acquire(0))
		must(t, n.Write(0, bytes.Repeat([]byte{0x5A}, pageSize)))
		must(t, n.Release(0))
		must(t, n.WriteUint64(8, 1))
		allocs, size := pageServeAllocs(n)
		if allocs != 0 {
			t.Errorf("serving a written page allocates %.1f objects, want 0", allocs)
		}
		if size < pageSize {
			t.Errorf("a written page ships as %d bytes, want its contents", size)
		}
	})
}

// pageServeAllocs has n answer node 1's request for page 0 the way its
// engine does — the lazy page request, the directory's owner-side fetch —
// and returns the objects one answer allocates and its staged size.
func pageServeAllocs(n *Node) (allocs float64, size int) {
	req := &wire.Msg{Seq: 1, A: 0, B: 1}
	var serve func()
	switch e := n.e.(type) {
	case *lazyEngine:
		serve = func() { e.handlePageReq(req) }
	case *eagerEngine:
		serve = func() { e.dir.serveFetch(req, 1) }
	case *scEngine:
		serve = func() { e.dir.serveFetch(req, 1) }
	}
	d := &n.out.dsts[1]
	allocs = testing.AllocsPerRun(200, func() {
		serve()
		buf := takeStaged(d)
		size = len(buf)
		framebuf.Put(buf)
	})
	return allocs, size
}

// takeStaged takes back what is staged for d, instead of flushing it at a
// node that never asked.
func takeStaged(d *outDest) []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	buf := d.buf
	d.buf, d.ends = nil, d.ends[:0]
	d.count.Store(0)
	return buf
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
// a deferred dense 4 KiB diff — MakeDiff into a pooled body, the response
// encoded into a pooled frame — allocates the diff's bookkeeping (its
// struct, one run, one window) and nothing the size of a page: 120 B,
// where a body made with make took it past 4,864 B.
func TestDenseDiffServeAllocatesNoBodyGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	const pageSize, serves, bound = 4096, 50, 512
	s, err := New(Config{Procs: 2, SpaceSize: 8 * pageSize, PageSize: pageSize, Mode: LazyInvalidate})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	n := s.Node(0)
	e := n.e.(*lazyEngine)
	pg := mem.PageID(0)
	for n.homeOf(pg) != n.id {
		pg++
	}
	warmDiffPool(serves, pageSize)
	dst := &n.out.dsts[1]
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
		staged := takeStaged(dst)
		if len(staged) < pageSize {
			t.Fatalf("the response is %d bytes, want a dense page's diff", len(staged))
		}
		framebuf.Put(staged)
		least = min(least, spent)
	}
	if least >= bound {
		t.Errorf("materializing and serving one dense %d-byte diff allocates %d B, want < %d", pageSize, least, bound)
	} else {
		t.Logf("%d B per materialize + serve", least)
	}
}

// TestEagerFlushBurstAllocatesNoScratchGate: one EU release that dirtied four
// dense pages cached at the three other nodes — four KFlushReqs in one
// burst, four home transactions fanning twelve updates out — allocates, on
// all four nodes together, the messages' bookkeeping: no diff body (pooled,
// returned when the burst is acknowledged) and no []pend / []outMsg
// scratch (bursts of up to four live in the flusher's and the homes'
// frames). The two were 31 KB of this flush's 36 KB: four 4,864 B bodies,
// and bursts appended a message at a time into slices grown from nil;
// 4.3 KB is left.
func TestEagerFlushBurstAllocatesNoScratchGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	const procs, pages, pageSize, flushes, bound = 4, 4, 4096, 30, 8 << 10
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
