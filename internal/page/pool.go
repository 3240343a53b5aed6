package page

import (
	"sync"
	"sync/atomic"

	"repro/internal/framebuf"
)

// Size-classed free lists for page-sized scratch: a mutex-guarded stack
// per class, non-blocking get/put. Twins are the traffic — every
// write-notice capture copies a full page, and the engines return each
// twin's buffer at its final release — with FlattenDiffs' scratch page
// the only other user.
//
// Retention is bounded in bytes, not buffers: each class keeps up to
// PoolBytes, the bytes of twins one node may park in deferred diff slots
// (internal/dsm's twin budget is this constant). A garbage-collection
// epoch releases everything a node parked at once, and the captures of the
// next epoch take it all back, so a pool shallower than the budget drops
// buffers at every epoch only to allocate them again. With the two equal,
// a workload whose parked twins fit the budget captures from the pool
// alone once it has been through one epoch; PoolStats counts the captures
// that did not (a cluster of several nodes in one process shares the pool
// and can still overflow it).
//
// Ownership discipline: a buffer may be recycled only by its sole owner.
// Twins are refcounted (Twin.Release) and recycled at the last release;
// FlattenDiffs returns its scratch before returning. Diffs are not
// pooled: a diff owns one exactly sized buffer — its wire body, which its
// runs index into — so its size follows the data, not the page, and it has
// no sole owner to recycle it: the store that made it, a flatten of it and
// a response being encoded after the store's lock was dropped read the
// same diff with no count between them. It is retired to the garbage
// collector. (A decoded diff owns no buffer at all; it borrows its frame,
// see Diff.Clone.)
//
// Under internal/framebuf's poison-on-release test mode putBuf overwrites
// the buffer first, so a twin released while something still reads it
// fails the differential tests at once.

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
