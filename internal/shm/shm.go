// Package shm is the typed shared-memory façade of the live DSM runtime:
// the layer applications program against instead of hand-computing byte
// offsets into the shared address space.
//
// It provides a deterministic bump allocator (Arena) over the runtime's
// address-space layout, typed variable and array handles (Var, Array)
// for the runtime's value payloads (uint64 and byte), and first-class
// Lock and Barrier objects — so a program names its shared state
//
//	a := shm.NewArena(layout)
//	head := shm.NewVar[uint64](a)
//	grid := shm.NewArray[uint64](a, rows*cols)
//	queue := a.NewLock()
//
// rather than scattering magic addresses like 4096 + 8*i through its
// body.
//
// Handles are pure descriptions of layout — an address, an element
// count, a lock id — and carry no connection to any node. Every
// operation takes the Mem it should run against, so the same handle
// value works from every node of the cluster (and, under the TCP
// transport, from every OS process). For that to be sound the schema
// must be deterministic: every process constructs the same Arena
// allocations in the same order, exactly like the static data layout of
// the SPLASH programs the paper traces. Arenas are not concurrency-safe;
// build the schema up front, then share the handles.
//
// Handles are safe to share between any number of goroutines: they are
// immutable values. The runtime node behind Mem (*dsm.Node) takes one
// application goroutine, so each goroutine drives its own node's handles;
// a second goroutine's concurrent call on a node fails with an error.
//
// Distinct handles never share a diff word. The runtime's multiple-writer
// protocol merges concurrent writers of one page word by word
// (page.WordSize bytes): a write narrower than a word travels as its whole
// word, so two values in one word written under different locks — or one
// of them under none, before a barrier — can overwrite each other with a
// stale view. Every address an Arena hands out (Alloc, and so NewVar,
// NewArray, NewStridedArray, NewBytes, NewBytesArray) therefore starts on
// a word boundary at least, whatever alignment was asked for, and what is
// left of a handle's last word stays unused. Elements inside one dense
// Array[byte] (or a Bytes region) still share words: writers of
// neighbouring elements need one lock, or a stride of a word or more.
// A handle at an explicit address (VarAt) is its owner's to lay out.
//
// Mem is satisfied by *dsm.Node. The allocator panics on exhaustion:
// schema construction is deterministic start-up code, and an address
// space that cannot hold the program's data is a configuration bug, not
// a runtime condition.
package shm

import (
	"encoding/binary"
	"fmt"
	"unsafe"

	"repro/internal/mem"
	"repro/internal/page"
)

// Mem is the raw access surface the typed handles drive: the subset of
// the runtime node API (dsm.Node) the façade needs. Operations move real
// bytes through whichever consistency protocol and transport the node's
// system runs.
type Mem interface {
	// Read copies len(buf) bytes of the shared space at addr into buf.
	Read(buf []byte, addr mem.Addr) error
	// Write copies data into the shared space at addr.
	Write(addr mem.Addr, data []byte) error
	// Acquire obtains lock l with the protocol's acquire-time actions.
	Acquire(l mem.LockID) error
	// Release releases lock l with the protocol's release-time actions.
	Release(l mem.LockID) error
	// Barrier blocks until every node arrives at barrier b.
	Barrier(b mem.BarrierID) error
}

// Value constrains the payload types the runtime's deterministic value
// semantics know how to move: bytes and little-endian uint64s.
type Value interface {
	~byte | ~uint64
}

// valueSize returns T's encoded size in shared memory.
func valueSize[T Value]() int {
	var z T
	return int(unsafe.Sizeof(z))
}

// Var is a typed handle to one shared value at a fixed address.
type Var[T Value] struct {
	addr mem.Addr
}

// VarAt returns a handle to the value at an explicit address — the
// bridge for code that owns its layout (the workload programs' fixed
// space maps). Allocator-managed code uses NewVar.
func VarAt[T Value](addr mem.Addr) Var[T] { return Var[T]{addr: addr} }

// Addr returns the variable's address.
func (v Var[T]) Addr() mem.Addr { return v.addr }

// Load reads the value through m.
func (v Var[T]) Load(m Mem) (T, error) {
	var buf [8]byte
	b := buf[:valueSize[T]()]
	if err := m.Read(b, v.addr); err != nil {
		var zero T
		return zero, err
	}
	return decode[T](b), nil
}

// Store writes the value through m.
func (v Var[T]) Store(m Mem, x T) error {
	var buf [8]byte
	b := buf[:valueSize[T]()]
	encode(b, x)
	return m.Write(v.addr, b)
}

// Add performs a read-modify-write, returning the previous value. The
// caller must hold a lock ordering every mutation of this variable (the
// runtime provides release consistency, not hardware atomics — an
// unsynchronized Add is a data race in the program, exactly as in the
// paper's model).
func (v Var[T]) Add(m Mem, delta T) (T, error) {
	old, err := v.Load(m)
	if err != nil {
		return old, err
	}
	return old, v.Store(m, old+delta)
}

func encode[T Value](b []byte, x T) {
	switch len(b) {
	case 1:
		b[0] = byte(x)
	default:
		binary.LittleEndian.PutUint64(b, uint64(x))
	}
}

func decode[T Value](b []byte) T {
	switch len(b) {
	case 1:
		return T(b[0])
	default:
		return T(binary.LittleEndian.Uint64(b))
	}
}

// Array is a typed handle to n shared values at a fixed stride. With the
// natural stride elements pack densely; a page-sized stride gives every
// element a private page (the classic DSM defense against false
// sharing).
type Array[T Value] struct {
	base   mem.Addr
	n      int
	stride int
}

// Len returns the element count.
func (a Array[T]) Len() int { return a.n }

// Base returns the first element's address.
func (a Array[T]) Base() mem.Addr { return a.base }

// Stride returns the distance in bytes between consecutive elements.
func (a Array[T]) Stride() int { return a.stride }

// At returns the handle of element i.
func (a Array[T]) At(i int) Var[T] {
	if i < 0 || i >= a.n {
		panic(fmt.Sprintf("shm: array index %d outside [0,%d)", i, a.n))
	}
	return Var[T]{addr: a.base + mem.Addr(i*a.stride)}
}

// Bytes is a handle to a fixed-size raw byte region, for bulk data the
// typed handles do not model (grid rows, records, serialized blobs).
type Bytes struct {
	base mem.Addr
	size int
}

// Addr returns the region's base address.
func (b Bytes) Addr() mem.Addr { return b.base }

// Size returns the region's size in bytes.
func (b Bytes) Size() int { return b.size }

// Load reads the region's first len(buf) bytes through m.
func (b Bytes) Load(m Mem, buf []byte) error {
	if len(buf) > b.size {
		panic(fmt.Sprintf("shm: loading %d bytes from a %d-byte region", len(buf), b.size))
	}
	return m.Read(buf, b.base)
}

// Store writes data at the region's base through m.
func (b Bytes) Store(m Mem, data []byte) error {
	if len(data) > b.size {
		panic(fmt.Sprintf("shm: storing %d bytes into a %d-byte region", len(data), b.size))
	}
	return m.Write(b.base, data)
}

// NewBytes allocates one raw region.
func NewBytes(a *Arena, size int) Bytes {
	return Bytes{base: a.Alloc(size, 1), size: size}
}

// BytesArray is a handle to n raw regions at a fixed stride.
type BytesArray struct {
	base   mem.Addr
	n      int
	size   int
	stride int
}

// NewBytesArray allocates n size-byte regions spaced stride bytes apart
// (stride > size pads neighbors apart, the false-sharing defense).
func NewBytesArray(a *Arena, n, size, stride int) BytesArray {
	if n < 0 || size <= 0 || stride < size {
		panic(fmt.Sprintf("shm: bytes array of %d regions size %d stride %d", n, size, stride))
	}
	if n == 0 {
		return BytesArray{base: a.next, n: 0, size: size, stride: stride}
	}
	base := a.Alloc((n-1)*stride+size, 1)
	return BytesArray{base: base, n: n, size: size, stride: stride}
}

// Len returns the region count.
func (ba BytesArray) Len() int { return ba.n }

// At returns the handle of region i.
func (ba BytesArray) At(i int) Bytes {
	if i < 0 || i >= ba.n {
		panic(fmt.Sprintf("shm: bytes array index %d outside [0,%d)", i, ba.n))
	}
	return Bytes{base: ba.base + mem.Addr(i*ba.stride), size: ba.size}
}

// Lock is a first-class handle to one of the runtime's exclusive locks.
type Lock struct {
	id mem.LockID
}

// LockAt returns a handle to an explicit lock id; see VarAt.
func LockAt(id mem.LockID) Lock { return Lock{id: id} }

// ID returns the lock's id.
func (l Lock) ID() mem.LockID { return l.id }

// Acquire obtains the lock through m.
func (l Lock) Acquire(m Mem) error { return m.Acquire(l.id) }

// Release releases the lock through m.
func (l Lock) Release(m Mem) error { return m.Release(l.id) }

// Locked runs body while holding l. The lock is released even when body
// fails; body's error wins over the release's.
func Locked(m Mem, l Lock, body func() error) error {
	if err := l.Acquire(m); err != nil {
		return err
	}
	err := body()
	if rerr := l.Release(m); err == nil {
		err = rerr
	}
	return err
}

// Barrier is a first-class handle to one of the runtime's barriers.
type Barrier struct {
	id mem.BarrierID
}

// BarrierAt returns a handle to an explicit barrier id; see VarAt.
func BarrierAt(id mem.BarrierID) Barrier { return Barrier{id: id} }

// ID returns the barrier's id.
func (b Barrier) ID() mem.BarrierID { return b.id }

// Wait blocks until every node of the cluster arrives at this barrier.
func (b Barrier) Wait(m Mem) error { return m.Barrier(b.id) }

// Arena is a deterministic bump allocator over a shared address space
// layout, handing out variable/array addresses and lock/barrier ids.
type Arena struct {
	pageSize int
	size     mem.Addr
	next     mem.Addr
	locks    mem.LockID
	barriers mem.BarrierID
}

// NewArena returns an empty arena over the layout's address space.
func NewArena(l *mem.Layout) *Arena {
	return &Arena{pageSize: l.PageSize(), size: l.SpaceSize()}
}

// Alloc reserves size bytes at the given power-of-two alignment, raised to
// the diff word (page.WordSize) when smaller so that no two allocations
// share a word, and returns their base address. It panics when the space is
// exhausted or the alignment is invalid: the schema is deterministic
// start-up code, so either is a configuration bug.
func (a *Arena) Alloc(size, align int) mem.Addr {
	if size <= 0 {
		panic(fmt.Sprintf("shm: allocation of %d bytes", size))
	}
	if align <= 0 || align&(align-1) != 0 {
		panic(fmt.Sprintf("shm: alignment %d is not a positive power of two", align))
	}
	align = max(align, page.WordSize)
	base := (a.next + mem.Addr(align-1)) &^ mem.Addr(align-1)
	if base+mem.Addr(size) > a.size {
		panic(fmt.Sprintf("shm: arena exhausted: allocating %d bytes at %d exceeds space of %d", size, base, a.size))
	}
	a.next = base + mem.Addr(size)
	return base
}

// PageAlign advances the allocation cursor to the next page boundary, so
// the following allocation starts on its own consistency unit.
func (a *Arena) PageAlign() {
	a.next = (a.next + mem.Addr(a.pageSize-1)) &^ mem.Addr(a.pageSize-1)
}

// Used returns the bytes allocated so far (including alignment padding).
func (a *Arena) Used() mem.Addr { return a.next }

// NewLock hands out the next lock id.
func (a *Arena) NewLock() Lock {
	l := Lock{id: a.locks}
	a.locks++
	return l
}

// NewBarrier hands out the next barrier id.
func (a *Arena) NewBarrier() Barrier {
	b := Barrier{id: a.barriers}
	a.barriers++
	return b
}

// NewVar allocates one naturally-aligned value.
func NewVar[T Value](a *Arena) Var[T] {
	sz := valueSize[T]()
	return Var[T]{addr: a.Alloc(sz, sz)}
}

// NewArray allocates n densely-packed values.
func NewArray[T Value](a *Arena, n int) Array[T] {
	return NewStridedArray[T](a, n, valueSize[T]())
}

// NewStridedArray allocates n values spaced stride bytes apart — padding
// hot elements onto separate cache lines or pages to curb the false
// sharing the paper's multiple-writer protocol exists to tolerate.
func NewStridedArray[T Value](a *Arena, n, stride int) Array[T] {
	sz := valueSize[T]()
	if n < 0 {
		panic(fmt.Sprintf("shm: array of %d elements", n))
	}
	if stride < sz {
		panic(fmt.Sprintf("shm: stride %d below element size %d", stride, sz))
	}
	if n == 0 {
		return Array[T]{base: a.next, n: 0, stride: stride}
	}
	base := a.Alloc((n-1)*stride+sz, sz)
	return Array[T]{base: base, n: n, stride: stride}
}
