package dsm

import (
	"encoding/binary"
	"sync"
	"testing"

	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/page"
	"repro/internal/wire"
)

// TestAccessHitAllocatesNothing: an 8-byte read or write that hits — the
// operation an application performs millions of times between two
// synchronization points — touches the heap under no engine. The write
// hits are to a page the interval has already twinned.
func TestAccessHitAllocatesNothing(t *testing.T) {
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

// TestTwinPoolCoversBudget runs the lock-ring shape — every critical
// section twins a shared page and a private one, every interval parks its
// twins until the GC epoch, and the epoch releases them all at once —
// over three epochs. The parked twins stay far below the twin budget, and
// the page pool keeps as many bytes as the budget, so once the pool has
// been through an epoch every capture is served from it: the last epoch
// must not miss once. (A pool 128 buffers deep dropped most of what an
// epoch released and allocated it again over the next steps.)
func TestTwinPoolCoversBudget(t *testing.T) {
	const (
		procs, locks, pageSize = 4, 32, 4096
		spacing                = pageSize / 4
		privBase               = locks * spacing
		gcEvery                = 8
	)
	s, err := New(Config{
		Procs: procs, SpaceSize: privBase + procs*pageSize, PageSize: pageSize,
		Mode: LazyInvalidate, GCEveryBarriers: gcEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	// One node at a time runs its critical sections, then all meet at the
	// barrier: every node has released its epoch's twins before the next
	// capture, so the pool's demand is the same in every epoch.
	epoch := func(first int) {
		for step := first; step < first+gcEvery; step++ {
			for id := 0; id < procs; id++ {
				n := s.Node(id)
				var rec [64]byte
				for m := 0; m < locks/procs; m++ {
					l := (id+step)%procs + procs*m
					binary.LittleEndian.PutUint64(rec[:], uint64(step+1))
					err := n.Acquire(mem.LockID(l))
					if err == nil {
						err = n.Write(mem.Addr(l*spacing), rec[:])
					}
					if err == nil {
						err = n.Release(mem.LockID(l))
					}
					if err == nil {
						err = n.WriteUint64(mem.Addr(privBase+id*pageSize+8*m), uint64(step))
					}
					if err != nil {
						t.Fatal(err)
					}
				}
			}
			var wg sync.WaitGroup
			for id := 0; id < procs; id++ {
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
	epoch(0)
	epoch(gcEvery)
	before := s.Node(0).Stats()
	gets0, _ := page.PoolStats()
	epoch(2 * gcEvery)
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

// TestZeroPageServeAllocatesNothing: a node asked for a page it never
// materialized answers from the system's one read-only zero page — no
// 4 KiB of zeros made per request to be encoded away, no clock — under
// every engine, and the answer is a few bytes long.
func TestZeroPageServeAllocatesNothing(t *testing.T) {
	allModes(t, func(t *testing.T, mode Mode) {
		n := newSys(t, 2, mode).Node(0)
		// Page 0 is homed at node 0 and untouched; node 1 asks.
		req := &wire.Msg{Seq: 1, A: 0, B: 1}
		var serve func()
		switch e := n.rt.engineFor(0).(type) {
		case *lazyEngine:
			serve = func() { e.handlePageReq(req) }
		case *eagerEngine:
			serve = func() { e.serveFetch(req, 1) }
		case *scEngine:
			serve = func() { e.serveFetch(req, 1) }
		}
		d := &n.out.dsts[1]
		size := 0
		allocs := testing.AllocsPerRun(200, func() {
			serve()
			// Take the staged answer back instead of flushing it at a node
			// that never asked.
			d.mu.Lock()
			size = len(d.buf)
			framebuf.Put(d.buf)
			d.buf, d.ends = nil, d.ends[:0]
			d.count.Store(0)
			d.mu.Unlock()
		})
		if allocs != 0 {
			t.Errorf("serving a never-materialized page allocates %.1f objects, want 0", allocs)
		}
		if size == 0 || size > 16 {
			t.Errorf("a zero page ships as %d bytes, want 1..16", size)
		}
	})
}
