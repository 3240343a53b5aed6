package page

import "repro/internal/framebuf"

// Size-classed buffer freelists for page-sized scratch, in the same
// typed-freelist idiom internal/framebuf uses for frame buffers: a buffered
// channel per class, non-blocking get/put, so recycling never contends
// harder than a failed channel operation. Twins are the traffic — every
// write-notice capture copies a full page, and the engines return each
// twin's buffer at its final release — with FlattenDiffs' scratch page
// the only other user, so a steady workload's captures are all served
// from the pool.
//
// Ownership discipline: a buffer may be recycled only by its sole owner.
// Twins are refcounted (Twin.Release) and recycled at the last release;
// FlattenDiffs returns its scratch before returning. Diffs are not
// pooled: a diff owns one exactly sized buffer — its wire body, which
// its runs index into — and that buffer is retired to the garbage
// collector, because a served diff may still be referenced by a staged
// message when its store entry is discarded. (A decoded diff owns no
// buffer at all; it borrows its frame, see Diff.Clone.)
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

	// poolDepth bounds how many buffers each class retains.
	poolDepth = 128
)

var bufClasses [numClasses]chan []byte

func init() {
	for i := range bufClasses {
		bufClasses[i] = make(chan []byte, poolDepth)
	}
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
	select {
	case b := <-bufClasses[c]:
		return b[:n]
	default:
		return make([]byte, n, 1<<(minPoolShift+c))
	}
}

// putBuf recycles a buffer handed out by getBuf. Buffers whose capacity
// is not an exact class size (oversized allocations, foreign slices) are
// left to the garbage collector.
func putBuf(b []byte) {
	c := classFor(cap(b))
	if c < 0 || cap(b) != 1<<(minPoolShift+c) {
		return
	}
	framebuf.Poison(b[:cap(b)])
	select {
	case bufClasses[c] <- b[:cap(b)]:
	default:
	}
}
