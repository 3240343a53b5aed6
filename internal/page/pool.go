package page

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/framebuf"
)

// The lease pool: a framebuf.Pool of leases, classed by their buffer's
// bytes from 64 B to 64 KiB. A lease is a counted hold on one pooled
// buffer together with the header that holds it — a Twin, a Diff and
// a Slab are the same header under three method sets — so the header and
// the buffer are recycled as one: a steady-state diff, parse, flatten or
// clone allocates nothing. Diff bodies and internal/dsm's store slabs are
// the traffic — every made, parsed, flattened or cloned diff lays its wire
// body out in one buffer, every interval close cuts its diffs' bodies into
// a slab — with FlattenDiffs' scratch page the only other user. A lease's
// class follows its buffer, not the page: a sparse diff takes 64 B, a
// dense 4 KiB one (4,100 B with its run header) the 8 KiB class.
//
// Retention is bounded in bytes, not leases: each class keeps up to
// framebuf.PoolBytes of buffers. A garbage-collection epoch's sweep
// releases the store slabs of the intervals it covers at once, and the
// closes of the next epoch take them back, so a pool shallower than what
// one epoch stores drops slabs at every epoch only to allocate them again;
// PoolStats counts the gets that missed (a cluster of several nodes in one
// process shares the pool and can overflow it).
//
// Ownership discipline: a lease is recycled by its last holder. Twins,
// made diffs and slabs are counted (Twin.Release, Diff.Release,
// Slab.Release) and go back, header and buffer, at the last release; after
// it the holder must not touch the header at all — the next diff reuses
// it. FlattenDiffs returns its scratch before returning. A diff is made
// with one count, its maker's: internal/dsm's lazy store keeps no diff but
// bodies in its slabs, which its GC sweep releases, and reads a body into
// a diff of its own (ParseBody) for each serve, merge or apply, which
// drops it once encoded or applied; the eager engine, whose diffs are
// made, used and dropped in one transaction, drops them when the
// transaction is acknowledged. A decoded diff is not a lease: it borrows
// its frame and counts nothing, see Diff.Clone.
//
// Under internal/framebuf's poison-on-release test mode a released lease's
// buffer is overwritten before it is listed, so a twin, diff or slab read
// after its last release fails the differential tests at once: a diff's
// body, or a slab's, no longer parses, and Diff.Apply and ParseBody refuse
// it as malformed.

// minPoolShift..maxPoolShift bound the pooled classes: 64 B to 64 KiB in
// powers of two, covering every page size the runtime configures. Class c
// holds buffers of 1<<c bytes.
const (
	minPoolShift = 6
	maxPoolShift = 16
)

// lease is the header the pool recycles: a counted hold on buf. A twin and
// a slab hold their bytes in buf, a diff its wire body. A decoded diff
// fills the same header over a received frame and owns nothing (owned
// false).
type lease struct {
	buf   []byte
	owned bool
	// refs counts the holders of an owned lease.
	refs atomic.Int32
}

var (
	leases     = framebuf.Pool[*lease]{Poison: func(l *lease) { framebuf.Poison(l.buf[:cap(l.buf)]) }}
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
	return max(bits.Len(uint(n-1)), minPoolShift)
}

// getLease returns an owned lease with one reference over a length-n
// buffer, recycled from the pool when the fitting class has one and
// freshly allocated otherwise. Contents are unspecified: every caller
// must overwrite the bytes it will later read.
func getLease(n int) *lease {
	c := classFor(n)
	if c < 0 {
		return newLease(make([]byte, n))
	}
	poolGets.Add(1)
	if l, ok := leases.Get(c); ok {
		l.buf = l.buf[:n]
		l.refs.Store(1)
		return l
	}
	poolMisses.Add(1)
	return newLease(make([]byte, n, 1<<c))
}

// SlabBytes is the size of the pool's largest class: a Slab's, unless its
// holder needs more.
const SlabBytes = 1 << maxPoolShift

// Slab is a counted hold on a pooled byte buffer that its holder lays many
// small things out in: internal/dsm's retained-diff store keeps its diffs'
// wire bodies in them, and frees each whole.
type Slab lease

// NewSlab returns a Slab of n bytes with one reference, off the pool when n
// is a pooled class's size (SlabBytes is) and freshly allocated otherwise.
// Contents are unspecified.
func NewSlab(n int) *Slab { return (*Slab)(getLease(n)) }

// Bytes returns the slab's buffer.
func (s *Slab) Bytes() []byte { return s.buf }

// Release drops one reference; the last recycles the slab, whose bytes
// must not be read afterwards (under poison mode they read 0xDB).
func (s *Slab) Release() { (*lease)(s).release() }

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
// garbage collector, as is whatever would take its class past
// framebuf.PoolBytes.
func putLease(l *lease) {
	if c := classFor(cap(l.buf)); c >= 0 && cap(l.buf) == 1<<c {
		leases.Put(c, l, 1<<c)
	}
}
