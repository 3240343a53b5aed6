package framebuf

import (
	"math/bits"
	"sync"
	"unsafe"
)

const (
	// Classes is how many size classes a Pool has: a slab pool's class c
	// holds slabs of 1<<c elements, 1 to 1 Mi.
	Classes = 21
	// PoolBytes bounds the bytes each class of a Pool retains.
	PoolBytes = 4 << 20
	// freeStart is the room a class's stack starts with, so that a steady
	// state's few items, freed and taken back each GC epoch, never grow it
	// by one more past a new high-water mark.
	freeStart = 16
)

// Pool is the free list of the data plane's storage other than frames —
// internal/page's leases and write-log buffers, internal/wire's message
// slabs, internal/dsm's store chunks and slot slabs: a mutex-guarded stack
// per size class, whose index means what its user says (a slab pool's, see
// above; a lease's class c holds 1<<c bytes; one size of item is class 0).
// A class lists an item while it then holds at most PoolBytes, so a burst
// does not pin its memory for the process lifetime; what it does not list
// is left to the garbage collector. The zero value is an empty pool.
type Pool[T any] struct {
	classes [Classes]struct {
		mu   sync.Mutex
		free []T
	}
	// Scrub and Poison, each optional, are what Put does to an item before
	// it lists it: Scrub ordinarily — a clear, so that a listed item pins
	// nothing — and Poison under poison-on-release, so that a read through
	// a stale reference to the item fails at once.
	Scrub, Poison func(T)
}

// Get returns the item class c listed last, or false when it lists none.
func (p *Pool[T]) Get(c int) (x T, ok bool) {
	cl := &p.classes[c]
	cl.mu.Lock()
	if last := len(cl.free) - 1; last >= 0 {
		x, ok = cl.free[last], true
		cl.free[last] = *new(T)
		cl.free = cl.free[:last]
	}
	cl.mu.Unlock()
	return x, ok
}

// Put scrubs x, or poisons it under poison-on-release, and lists it in
// class c, given the bytes of storage it holds, unless class c would then
// hold more than PoolBytes: whatever it does not list is left to the
// garbage collector. The caller must not touch x afterwards.
func (p *Pool[T]) Put(c int, x T, size int) {
	switch {
	case Poisoned():
		if p.Poison != nil {
			p.Poison(x)
		}
	case p.Scrub != nil:
		p.Scrub(x)
	}
	cl := &p.classes[c]
	cl.mu.Lock()
	if (len(cl.free)+1)*size <= PoolBytes {
		if cl.free == nil {
			cl.free = make([]T, 0, freeStart)
		}
		cl.free = append(cl.free, x)
	}
	cl.mu.Unlock()
}

// GetSlab returns a slab of n elements from p, recycled when the class of
// slabs that hold n — the power of two at or above it — lists one, and
// with that class's capacity when fresh: never nil, with unspecified
// contents that its taker overwrites. A slab past the last class is
// allocated at n.
func GetSlab[T any](p *Pool[[]T], n int) []T {
	c := bits.Len(uint(max(n, 1) - 1))
	if c >= Classes {
		return make([]T, n)
	}
	if s, ok := p.Get(c); ok {
		return s[:n]
	}
	return make([]T, n, 1<<c)
}

// PutSlab gives s back to p whole, in the class of its capacity, unless
// that capacity is no class's size.
func PutSlab[T any](p *Pool[[]T], s []T) {
	c := bits.Len(uint(cap(s) - 1))
	if c >= Classes || cap(s) != 1<<c {
		return
	}
	p.Put(c, s[:cap(s)], cap(s)*int(unsafe.Sizeof(s[0])))
}
