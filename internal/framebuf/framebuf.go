// Package framebuf owns the data plane's free lists. Frames, the buffers
// wire frames travel in, have one free list that senders encode into,
// transports receive into, and receivers return to — a received frame
// through the message decoded from it, which holds it while its diffs
// borrow its bytes (internal/wire's Ownership section). Everything else
// the data plane recycles — leases, write-log buffers, message slabs, the
// retained-diff store's chunks — goes through Pool, a free stack per size
// class (pool.go). Both honour poison-on-release (SetPoison). It is a leaf
// package so that the codec, every transport, internal/page and the
// runtime share them without an import cycle.
package framebuf

import "sync/atomic"

// maxPooled caps the capacity of buffers the list retains: a frame that
// grew to carry an unusually large message of page-sized diffs must not
// pin that memory for the process lifetime.
const maxPooled = 1 << 20

// free is a typed free list: a buffered channel whose ring stores the
// []byte headers by value, so recycling allocates nothing (a sync.Pool
// boxes each non-pointer Put into an interface). The slot count bounds
// how many idle buffers stay pinned; overflow is dropped for the GC,
// underflow falls back to a fresh allocation.
var free = make(chan []byte, 512)

// Get returns an empty buffer from the free list. Encode into it, then
// hand it to a transport (which takes ownership on Send) or return it
// with Put. Steady-state the payload bytes are never reallocated —
// buffers cycle sender -> transport -> receiver -> free list.
func Get() []byte {
	select {
	case b := <-free:
		return b
	default:
		return make([]byte, 0, 512)
	}
}

// GetLen returns a buffer of length n with unspecified contents, for a
// receive path that is about to fill all of it. A listed buffer too
// small for n is dropped in favour of a fresh one, so the list converges
// on the frame sizes actually in flight.
func GetLen(n int) []byte {
	select {
	case b := <-free:
		if cap(b) >= n {
			return b[:n]
		}
	default:
	}
	return make([]byte, n)
}

// Put returns a buffer to the free list; the caller must not touch it
// afterwards. Any byte slice may be recycled here, whatever allocated
// it; oversized buffers are dropped, as is everything beyond the list's
// capacity.
func Put(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooled {
		return
	}
	Poison(b[:cap(b)])
	select {
	case free <- b[:0]:
	default:
	}
}

// PoisonByte is what poison-on-release mode overwrites recycled buffers
// with.
const PoisonByte = 0xDB

var poison atomic.Bool

// SetPoison switches poison-on-release mode, a test hook: with it on,
// every buffer entering the frame list is first overwritten with
// PoisonByte, and every item a Pool takes back is poisoned by its pool's
// Poison hook (internal/page's buffers call Poison), so a slice that still
// aliases a recycled buffer reads garbage at once instead of whenever the
// buffer happens to be reused. Tests enable it from TestMain so the
// differential oracles catch a premature release deterministically.
func SetPoison(on bool) { poison.Store(on) }

// Poisoned reports whether poison-on-release mode is on.
func Poisoned() bool { return poison.Load() }

// Poison overwrites b with PoisonByte when the mode is on; a recycling
// pool calls it on each buffer it takes back.
func Poison(b []byte) {
	if !poison.Load() {
		return
	}
	for i := range b {
		b[i] = PoisonByte
	}
}
