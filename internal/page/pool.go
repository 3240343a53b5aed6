package page

import (
	"sync"
	"sync/atomic"

	"repro/internal/framebuf"
)

// Size-classed free lists of leases for the data plane: a mutex-guarded
// stack per class, non-blocking get/put. A lease is a counted hold on one
// pooled buffer together with the header that holds it — a Twin and a Diff
// are the same header under two method sets — so the header, the buffer
// and the diff's run table and payload windows are recycled as one: a
// steady-state capture, diff, flatten or clone allocates nothing. Twins and
// diff bodies are the traffic — every write-notice capture copies a full
// page, every made, flattened or cloned diff lays its wire body out in one
// buffer — with FlattenDiffs' scratch page the only other user. A lease's
// class follows its buffer, not the page: a sparse diff takes 64 B, a dense
// 4 KiB one (4,100 B with its run header) the 8 KiB class. A header keeps
// the capacity of its run table and windows across uses.
//
// Retention is bounded in bytes, not leases: each class keeps up to
// PoolBytes of buffers, the bytes of twins one node may park in deferred
// diff slots (internal/dsm's twin budget is this constant). A
// garbage-collection epoch releases everything a node parked or stored at
// once, and the captures and diffs of the next epoch take it all back, so a
// pool shallower than the budget drops leases at every epoch only to
// allocate them again. With the two equal, a workload whose parked twins fit
// the budget captures from the pool alone once it has been through one
// epoch; PoolStats counts the gets that did not (a cluster of several nodes
// in one process shares the pool and can still overflow it).
//
// Ownership discipline: a lease is recycled by its last holder. Twins and
// made diffs are counted (Twin.Release, Diff.Release) and go back, header
// and buffer, at the last release; after it the holder must not touch the
// header at all — the next capture or diff reuses it. FlattenDiffs returns
// its scratch before returning. A diff is made with one count, its maker's:
// internal/dsm's lazy store (a slot) drops it where the diff dies — the
// GC epoch's discard — a range serve's merge once its response is
// encoded, and the eager engine, whose diffs are made, used and dropped in one
// transaction, when the transaction is acknowledged. A reader that outlives
// the lock pinning the store's slot (a response or grant encoded after the
// engine lock is dropped, a miss applying a stored diff) takes a count
// under that lock and drops it when it has read. A decoded diff is not a
// lease: it borrows its frame and counts nothing, see Diff.Clone.
//
// Under internal/framebuf's poison-on-release test mode a released lease is
// poisoned before it is listed: its buffer is overwritten and a diff's run
// table rewritten to runs at a negative offset, so a twin or diff read
// after its last release — through a stale header or a window of its body
// — fails the differential tests at once (Diff.Apply refuses such runs).

const (
	// minPoolShift..maxPoolShift bound the pooled classes: 64 B to 64 KiB
	// in powers of two, covering every page size the runtime configures.
	minPoolShift = 6
	maxPoolShift = 16
	numClasses   = maxPoolShift - minPoolShift + 1

	// PoolBytes bounds the bytes each class retains.
	PoolBytes = 4 << 20
)

// lease is the header the pool recycles: a counted hold on buf. A twin
// uses buf alone; a diff lays its wire body out in buf, with runs its run
// table and data[i] run i's payload, a window of buf. A decoded diff fills
// the same header over a received frame and owns nothing (owned false).
type lease struct {
	buf   []byte
	runs  []Run
	data  [][]byte
	owned bool
	// refs counts the holders of an owned lease.
	refs atomic.Int32
}

// leaseClass is one size class's free stack.
type leaseClass struct {
	mu   sync.Mutex
	free []*lease
}

var (
	classes    [numClasses]leaseClass
	poolGets   atomic.Int64
	poolMisses atomic.Int64
)

// PoolStats returns how many pooled-size buffers were asked of the pool
// and how many of those it had to allocate, since the process started.
func PoolStats() (gets, misses int64) {
	return poolGets.Load(), poolMisses.Load()
}

// classFor returns the pool class whose buffers hold n bytes, or -1 when
// n is outside the pooled range.
func classFor(n int) int {
	if n <= 0 || n > 1<<maxPoolShift {
		return -1
	}
	c := 0
	for 1<<(minPoolShift+c) < n {
		c++
	}
	return c
}

// getLease returns an owned lease with one reference over a length-n
// buffer and an empty run table and window list, recycled from the pool
// when the fitting class has one and freshly allocated otherwise. Contents
// are unspecified: every caller must overwrite the bytes it will later
// read.
func getLease(n int) *lease {
	c := classFor(n)
	if c < 0 {
		return newLease(make([]byte, n))
	}
	poolGets.Add(1)
	cl := &classes[c]
	cl.mu.Lock()
	if last := len(cl.free) - 1; last >= 0 {
		l := cl.free[last]
		cl.free[last] = nil
		cl.free = cl.free[:last]
		cl.mu.Unlock()
		l.buf, l.runs, l.data = l.buf[:n], l.runs[:0], l.data[:0]
		l.refs.Store(1)
		return l
	}
	cl.mu.Unlock()
	poolMisses.Add(1)
	return newLease(make([]byte, n, 1<<(minPoolShift+c)))
}

func newLease(buf []byte) *lease {
	l := &lease{buf: buf, owned: true}
	l.refs.Store(1)
	return l
}

// release drops one reference to an owned lease; the last one recycles it
// and reports true. Releasing more often than retained panics (as long as
// no getLease has taken the lease off its list in between).
func (l *lease) release() bool {
	switch n := l.refs.Add(-1); {
	case n == 0:
		putLease(l)
		return true
	case n < 0:
		panic("page: lease released more often than retained")
	}
	return false
}

// putLease recycles a lease whose last reference is gone. A lease whose
// buffer is not an exact class size (an oversized one) is left to the
// garbage collector, as is whatever would take its class past PoolBytes.
func putLease(l *lease) {
	c := classFor(cap(l.buf))
	if c < 0 || cap(l.buf) != 1<<(minPoolShift+c) {
		return
	}
	if framebuf.Poisoned() {
		framebuf.Poison(l.buf[:cap(l.buf)])
		dead := uint32(framebuf.PoisonByte) * 0x01010101
		runs := l.runs[:cap(l.runs)]
		for i := range runs {
			runs[i] = Run{Off: int32(dead), Len: int32(dead)}
		}
	}
	cl := &classes[c]
	cl.mu.Lock()
	if len(cl.free) < PoolBytes>>(minPoolShift+c) {
		cl.free = append(cl.free, l)
	}
	cl.mu.Unlock()
}
