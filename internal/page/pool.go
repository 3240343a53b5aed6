package page

import (
	"sync"
	"sync/atomic"

	"repro/internal/framebuf"
)

// Size-classed free lists for the data plane's buffers: a mutex-guarded
// stack per class, non-blocking get/put. Twins and diff bodies are the
// traffic — every write-notice capture copies a full page, every made,
// flattened or cloned diff lays its wire body out in one buffer — with
// FlattenDiffs' scratch page the only other user. A body's class follows
// its data, not the page: a sparse diff takes 64 B, a dense 4 KiB one
// (4,100 B with its run header) the 8 KiB class.
//
// Retention is bounded in bytes, not buffers: each class keeps up to
// PoolBytes, the bytes of twins one node may park in deferred diff slots
// (internal/dsm's twin budget is this constant). A garbage-collection
// epoch releases everything a node parked or stored at once, and the
// captures and diffs of the next epoch take it all back, so a pool
// shallower than the budget drops buffers at every epoch only to allocate
// them again. With the two equal, a workload whose parked twins fit the
// budget captures from the pool alone once it has been through one epoch;
// PoolStats counts the gets that did not (a cluster of several nodes in
// one process shares the pool and can still overflow it).
//
// Ownership discipline: a buffer is recycled by its last holder. Twins and
// owned diffs are counted leases (Twin.Release, Diff.Release) recycled at
// the last release; FlattenDiffs returns its scratch before returning. A
// diff is made with one count, its maker's: internal/dsm's lazy store (a
// slot, a flatten cache entry) drops it where the diff dies — the GC
// epoch's discard, the cache's reset and eviction — and the eager engine,
// whose diffs are made, used and dropped in one transaction, when the
// transaction is acknowledged. A reader that outlives the lock pinning the
// store's slot (a response or grant encoded after the engine lock is
// dropped, a miss applying a stored diff) takes a count under that lock
// and drops it when it has read. A decoded diff owns no buffer at all: it
// borrows its frame and counts nothing, see Diff.Clone.
//
// Under internal/framebuf's poison-on-release test mode putBuf overwrites
// the buffer first, so a twin or body released while something still reads
// it fails the differential tests at once.

const (
	// minPoolShift..maxPoolShift bound the pooled classes: 64 B to 64 KiB
	// in powers of two, covering every page size the runtime configures.
	minPoolShift = 6
	maxPoolShift = 16
	numClasses   = maxPoolShift - minPoolShift + 1

	// PoolBytes bounds the bytes each class retains.
	PoolBytes = 4 << 20
)

// bufClass is one size class's free stack.
type bufClass struct {
	mu   sync.Mutex
	free [][]byte
}

var (
	bufClasses [numClasses]bufClass
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

// getBuf returns a length-n slice, recycled from the pool when a buffer
// of the fitting class is available and freshly allocated otherwise.
// Contents are unspecified: every caller must overwrite the bytes it
// will later read.
func getBuf(n int) []byte {
	c := classFor(n)
	if c < 0 {
		return make([]byte, n)
	}
	poolGets.Add(1)
	cl := &bufClasses[c]
	cl.mu.Lock()
	if last := len(cl.free) - 1; last >= 0 {
		b := cl.free[last]
		cl.free[last] = nil
		cl.free = cl.free[:last]
		cl.mu.Unlock()
		return b[:n]
	}
	cl.mu.Unlock()
	poolMisses.Add(1)
	return make([]byte, n, 1<<(minPoolShift+c))
}

// putBuf recycles a buffer handed out by getBuf. Buffers whose capacity
// is not an exact class size (oversized allocations, foreign slices) are
// left to the garbage collector, as is whatever would take the class past
// PoolBytes.
func putBuf(b []byte) {
	c := classFor(cap(b))
	if c < 0 || cap(b) != 1<<(minPoolShift+c) {
		return
	}
	framebuf.Poison(b[:cap(b)])
	cl := &bufClasses[c]
	cl.mu.Lock()
	if len(cl.free) < PoolBytes>>(minPoolShift+c) {
		cl.free = append(cl.free, b[:cap(b)])
	}
	cl.mu.Unlock()
}
