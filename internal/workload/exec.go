// Package workload defines the five SPLASH-structure programs of the
// paper's evaluation (§5.3) and executes them on interchangeable backends.
// The original study traced five SPLASH programs on 16 processors with the
// Tango simulator; those traces are not available, so this package
// re-creates each program's *sharing and synchronization structure* (as
// documented in the paper's §5.2) as a deterministic synthetic program.
//
// A Program's per-processor body runs against the abstract access
// interface Ctx, which has two backends:
//
//   - the lockstep trace generator (Execute/Generate in this file): every
//     "processor" is a coroutine resumed one at a time by a miniature
//     scheduler that serializes all shared accesses into one legal,
//     globally-ordered trace for the protocol simulator (internal/sim),
//     while materializing the value semantics of package trace into a flat
//     reference memory image;
//
//   - the live DSM runtime adapter (RunOnRuntime in runtime.go): every
//     processor is a genuinely concurrent goroutine driving a dsm.Node,
//     with locks and barriers mapped to the runtime's synchronization
//     operations and ordinary accesses moving real bytes through the lazy
//     release consistency protocol.
//
// Both backends apply identical deterministic value semantics
// (trace.ApplyEvent), and the programs are written so that every pair of
// conflicting operations either commutes or is ordered by the program's
// own synchronization — so the final shared-memory image is independent of
// the interleaving, and the two backends (plus a replay of the generated
// trace) must converge to byte-identical images. The differential tests
// rely on exactly that.
package workload

import (
	"encoding/binary"
	"fmt"
	"iter"

	"repro/internal/mem"
	"repro/internal/trace"
)

// Config describes a synthetic program's shape.
type Config struct {
	NumProcs    int
	SpaceSize   mem.Addr
	NumLocks    int
	NumBarriers int
}

// Ctx is the abstract per-processor access interface a Program's body runs
// against. Methods block until the backend grants the operation, exactly
// like the real DSM API; value-returning operations observe the backend's
// shared memory under the value semantics of package trace.
type Ctx interface {
	// Proc returns this processor's id, 0..NumProcs-1.
	Proc() int
	// NumProcs returns the number of processors in the execution.
	NumProcs() int
	// Read performs an ordinary shared read of [addr, addr+size).
	Read(addr mem.Addr, size int)
	// Write performs an ordinary shared write of [addr, addr+size),
	// storing the canonical fill pattern (trace.Fill).
	Write(addr mem.Addr, size int)
	// Update performs a read-modify-write of [addr, addr+size),
	// incrementing every byte by one.
	Update(addr mem.Addr, size int)
	// WriteUint64 stores v at addr as a little-endian uint64.
	WriteUint64(addr mem.Addr, v uint64)
	// ReadUint64 loads the little-endian uint64 at addr.
	ReadUint64(addr mem.Addr) uint64
	// FetchAddUint64 atomically (under the caller's synchronization — the
	// caller must hold a lock ordering all mutations of addr) adds delta
	// to the little-endian uint64 at addr and returns the previous value.
	FetchAddUint64(addr mem.Addr, delta uint64) uint64
	// Acquire blocks until lock l is granted to this processor.
	Acquire(l int)
	// Release releases lock l, which the processor must hold.
	Release(l int)
	// Barrier blocks until every processor has arrived at barrier b.
	Barrier(b int)
}

// Locked runs body while holding lock l.
func Locked(c Ctx, l int, body func()) {
	c.Acquire(l)
	body()
	c.Release(l)
}

// Program is a synthetic shared-memory application.
type Program interface {
	// Name identifies the workload ("locusroute", ...).
	Name() string
	// Config returns the program's shape. It is called once, before any
	// processor starts.
	Config() Config
	// Proc is the per-processor body; it runs concurrently on
	// Config().NumProcs backend-controlled goroutines and must perform
	// every shared access through ctx. Bodies must not share mutable Go
	// state across processors: the runtime backend runs them genuinely
	// concurrently.
	Proc(ctx Ctx)
}

// Result is a lockstep execution's outcome: the validated trace and the
// final shared-memory image it denotes (the sequential reference of the
// differential tests).
type Result struct {
	Trace *trace.Trace
	Image []byte
}

type opKind uint8

const (
	opRead opKind = iota
	opWrite
	opUpdate
	opSet64
	opGet64
	opAdd64
	opAcquire
	opRelease
	opBarrier
	opDone
)

// yieldMsg is one operation a processor asks the scheduler for.
type yieldMsg struct {
	kind opKind
	addr mem.Addr
	size int32
	sync int32
	val  uint64
}

// genCtx is the lockstep backend's Ctx: a processor's body runs as a
// coroutine that yields each operation to the scheduler and is resumed
// once the scheduler has granted it, with the observed value in reply.
type genCtx struct {
	proc, numProcs int
	yield          func(yieldMsg) bool
	reply          *uint64
}

// stopped is what an operation panics with when the scheduler has stopped
// its processor (Execute returned early): the body unwinds to the seq
// wrapper, which recovers it, so the coroutine ends instead of blocking.
type stopped struct{}

func (c *genCtx) Proc() int     { return c.proc }
func (c *genCtx) NumProcs() int { return c.numProcs }

func (c *genCtx) op(k opKind, addr mem.Addr, size int32, sync int32, val uint64) uint64 {
	if !c.yield(yieldMsg{kind: k, addr: addr, size: size, sync: sync, val: val}) {
		panic(stopped{})
	}
	return *c.reply
}

// seq returns the processor's body as the sequence of operations it asks
// for, ended by opDone.
func (c *genCtx) seq(p Program) iter.Seq[yieldMsg] {
	return func(yield func(yieldMsg) bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(stopped); !ok {
					panic(r)
				}
			}
		}()
		c.yield = yield
		p.Proc(c)
		yield(yieldMsg{kind: opDone})
	}
}

func (c *genCtx) Read(addr mem.Addr, size int)   { c.op(opRead, addr, int32(size), 0, 0) }
func (c *genCtx) Write(addr mem.Addr, size int)  { c.op(opWrite, addr, int32(size), 0, 0) }
func (c *genCtx) Update(addr mem.Addr, size int) { c.op(opUpdate, addr, int32(size), 0, 0) }
func (c *genCtx) WriteUint64(addr mem.Addr, v uint64) {
	c.op(opSet64, addr, 8, 0, v)
}
func (c *genCtx) ReadUint64(addr mem.Addr) uint64 {
	return c.op(opGet64, addr, 8, 0, 0)
}
func (c *genCtx) FetchAddUint64(addr mem.Addr, delta uint64) uint64 {
	return c.op(opAdd64, addr, 8, 0, delta)
}
func (c *genCtx) Acquire(l int) { c.op(opAcquire, 0, 0, int32(l), 0) }
func (c *genCtx) Release(l int) { c.op(opRelease, 0, 0, int32(l), 0) }
func (c *genCtx) Barrier(b int) { c.op(opBarrier, 0, 0, int32(b), 0) }

// Generate executes the program on the lockstep scheduler and returns the
// resulting validated trace.
func Generate(p Program) (*trace.Trace, error) {
	r, err := Execute(p)
	if err != nil {
		return nil, err
	}
	return r.Trace, nil
}

// Execute runs the program on the lockstep scheduler, returning both the
// validated trace and the reference memory image. The scheduler resumes
// exactly one processor at a time (round-robin among runnable processors),
// parks processors that block on held locks or barriers, and emits events
// — applying their value semantics to the image — in the order operations
// are granted, so lock nesting and barrier episodes in the trace are
// correct by construction. Given a fixed seed, execution is fully
// deterministic. Every processor is a coroutine (iter.Pull) that runs only
// while the scheduler waits for its next operation, and every return
// stops them all, errors included.
func Execute(p Program) (*Result, error) {
	cfg := p.Config()
	if cfg.NumProcs <= 0 || cfg.NumProcs > 64 {
		return nil, fmt.Errorf("workload %s: processor count %d outside [1,64]", p.Name(), cfg.NumProcs)
	}
	reply := make([]uint64, cfg.NumProcs) // value delivered on next resume
	resume := make([]func() (yieldMsg, bool), cfg.NumProcs)
	for i := range resume {
		ctx := &genCtx{proc: i, numProcs: cfg.NumProcs, reply: &reply[i]}
		var stop func()
		resume[i], stop = iter.Pull(ctx.seq(p))
		defer stop()
	}

	t := &trace.Trace{
		NumProcs:    cfg.NumProcs,
		SpaceSize:   cfg.SpaceSize,
		NumLocks:    cfg.NumLocks,
		NumBarriers: cfg.NumBarriers,
		Name:        p.Name(),
	}
	image := make([]byte, cfg.SpaceSize)

	// emit appends the event and applies its value semantics to the image,
	// returning the value observed (AddVal's previous value).
	emit := func(e trace.Event) uint64 {
		t.Events = append(t.Events, e)
		return trace.ApplyEvent(image, e)
	}

	const (
		stRunnable = iota
		stBlocked  // waiting on a lock or barrier
		stDone
	)
	state := make([]int, cfg.NumProcs)
	lockHolder := make(map[int32]int)   // lock -> holder
	lockQueue := make(map[int32][]int)  // lock -> FIFO waiters
	barWaiters := make(map[int32][]int) // barrier -> arrived & parked
	active := cfg.NumProcs

	// The resumed processor runs until its next yield; operations are
	// granted (and their events emitted) here, in scheduling order.
	next := 0
	for active > 0 {
		// Pick the next runnable processor, round-robin.
		picked := -1
		for i := 0; i < cfg.NumProcs; i++ {
			cand := (next + i) % cfg.NumProcs
			if state[cand] == stRunnable {
				picked = cand
				break
			}
		}
		if picked == -1 {
			return nil, fmt.Errorf("workload %s: deadlock: %d processors active but none runnable", p.Name(), active)
		}
		next = (picked + 1) % cfg.NumProcs
		// A body ends by yielding opDone and is never resumed after it, so
		// every resume yields.
		y, _ := resume[picked]()
		reply[picked] = 0
		if y.kind <= opAdd64 {
			// Bounds-check ordinary accesses before touching the image, so
			// a workload bug surfaces as a descriptive error rather than a
			// slice panic.
			if y.size <= 0 || y.addr < 0 || y.addr+mem.Addr(y.size) > cfg.SpaceSize {
				return nil, fmt.Errorf("workload %s: p%d access [%d,%d) outside space [0,%d)",
					p.Name(), picked, y.addr, y.addr+mem.Addr(y.size), cfg.SpaceSize)
			}
		}
		switch y.kind {
		case opRead:
			emit(trace.Event{Kind: trace.Read, Proc: mem.ProcID(picked), Addr: y.addr, Size: y.size})
		case opWrite:
			emit(trace.Event{Kind: trace.Write, Proc: mem.ProcID(picked), Addr: y.addr, Size: y.size})
		case opUpdate:
			emit(trace.Event{Kind: trace.Update, Proc: mem.ProcID(picked), Addr: y.addr, Size: y.size})
		case opSet64:
			emit(trace.Event{Kind: trace.SetVal, Proc: mem.ProcID(picked), Addr: y.addr, Size: 8, Val: y.val})
		case opGet64:
			emit(trace.Event{Kind: trace.Read, Proc: mem.ProcID(picked), Addr: y.addr, Size: 8})
			// The value is delivered on the proc's next scheduling slot.
			reply[picked] = binary.LittleEndian.Uint64(image[y.addr:])
		case opAdd64:
			reply[picked] = emit(trace.Event{Kind: trace.AddVal, Proc: mem.ProcID(picked), Addr: y.addr, Size: 8, Val: y.val})
		case opAcquire:
			if _, held := lockHolder[y.sync]; held {
				lockQueue[y.sync] = append(lockQueue[y.sync], picked)
				state[picked] = stBlocked
			} else {
				lockHolder[y.sync] = picked
				emit(trace.Event{Kind: trace.Acquire, Proc: mem.ProcID(picked), Sync: y.sync})
			}
		case opRelease:
			if h, held := lockHolder[y.sync]; !held || h != picked {
				return nil, fmt.Errorf("workload %s: p%d releases lock %d it does not hold", p.Name(), picked, y.sync)
			}
			emit(trace.Event{Kind: trace.Release, Proc: mem.ProcID(picked), Sync: y.sync})
			delete(lockHolder, y.sync)
			if q := lockQueue[y.sync]; len(q) > 0 {
				w := q[0]
				lockQueue[y.sync] = q[1:]
				lockHolder[y.sync] = w
				emit(trace.Event{Kind: trace.Acquire, Proc: mem.ProcID(w), Sync: y.sync})
				state[w] = stRunnable
			}
		case opBarrier:
			emit(trace.Event{Kind: trace.Barrier, Proc: mem.ProcID(picked), Sync: y.sync})
			arr := append(barWaiters[y.sync], picked)
			if len(arr) == cfg.NumProcs {
				for _, w := range arr {
					state[w] = stRunnable
				}
				delete(barWaiters, y.sync)
			} else {
				barWaiters[y.sync] = arr
				state[picked] = stBlocked
			}
		case opDone:
			state[picked] = stDone
			active--
		}
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("workload %s: generated invalid trace: %w", p.Name(), err)
	}
	return &Result{Trace: t, Image: image}, nil
}
