// Package framebuf owns the buffers wire frames travel in: one free list
// that senders encode into, transports receive into, and receivers
// return to, plus the counted reference a receiver holds on a frame
// while decoded diffs still borrow its bytes, recycled on a list of its
// own (see internal/wire's
// Ownership section). It is a leaf package so that the codec, every
// transport and the runtime share one list without an import cycle.
package framebuf

import "sync/atomic"

// maxPooled caps the capacity of buffers the list retains: a frame that
// grew to carry an unusually large batch of page-sized diffs must not
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

// Ref is a counted reference to one received frame. The receiver that
// decodes borrowing messages out of a frame creates it with one
// reference per holder; the last Release recycles the buffer, and the Ref
// itself, which the next NewRef hands out again — so nothing may touch a
// Ref after releasing its reference. Dropping a Ref without releasing it
// is always safe — the garbage collector reclaims the frame — so Release
// is a recycling contract, not a correctness one. Releasing more often
// than retained is a bug and panics (as long as no NewRef has taken the
// Ref off the free list in between). All methods are safe on a nil Ref (a
// message that borrows nothing carries none).
type Ref struct {
	buf  []byte
	refs atomic.Int32
}

// freeRefs is the Ref free list, in the idiom of free: the ring stores
// pointers, so recycling allocates nothing. A Ref is released once per
// received frame that carries diffs, so it is sized like free.
var freeRefs = make(chan *Ref, 512)

// NewRef wraps buf with the given number of references, in a Ref off the
// free list when there is one.
func NewRef(buf []byte, refs int) *Ref {
	var r *Ref
	select {
	case r = <-freeRefs:
	default:
		r = new(Ref)
	}
	r.buf = buf
	r.refs.Store(int32(refs))
	return r
}

// Retain adds a reference for a holder that outlives the current one.
func (r *Ref) Retain() {
	if r != nil {
		r.refs.Add(1)
	}
}

// Release drops one reference; the last one returns the frame, and then
// the Ref, to their free lists.
func (r *Ref) Release() {
	if r == nil {
		return
	}
	switch n := r.refs.Add(-1); {
	case n == 0:
		Put(r.buf)
		r.buf = nil
		select {
		case freeRefs <- r:
		default:
		}
	case n < 0:
		panic("framebuf: reference released more often than retained")
	}
}

// PoisonByte is what poison-on-release mode overwrites recycled buffers
// with.
const PoisonByte = 0xDB

var poison atomic.Bool

// SetPoison switches poison-on-release mode, a test hook: with it on,
// every buffer entering this free list or internal/page's pool is first
// overwritten with PoisonByte (both call Poison), so a slice that still
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
