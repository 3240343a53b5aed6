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
//   - the lockstep trace generator (Execute/Generate in this file): a
//     miniature scheduler grants one operation per turn, round-robin,
//     serializing all shared accesses into one legal, globally-ordered
//     trace for the protocol simulator (internal/sim) while materializing
//     the value semantics of package trace into a flat reference memory
//     image. Every "processor" is a coroutine that runs ahead of the
//     schedule, queueing operations, and waits only for an operation that
//     returns a value: the schedule and the values are those of resuming
//     each processor one operation at a time, because bodies share no
//     mutable Go state (Program.Proc);
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
// against. Operations take effect when the backend grants them, exactly
// like the real DSM API; value-returning operations block until then and
// observe the backend's shared memory under the value semantics of package
// trace. (The lockstep backend lets a body run ahead of grants it cannot
// observe: see Execute.)
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
	// concurrently, and the lockstep backend runs each ahead of the
	// schedule (Execute).
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

// aheadOps is how many operations a processor's body may queue ahead of
// the schedule before it waits for them to be granted.
const aheadOps = 256

// genCtx is the lockstep backend's Ctx: a processor's body runs as a
// coroutine that queues its operations and yields the queue to the
// scheduler at a value-returning operation, when the queue is full, and at
// its end. It is resumed once the scheduler has granted every queued
// operation, with the last one's observed value in reply.
type genCtx struct {
	proc, numProcs int
	ops            []yieldMsg // queued, not yet handed over
	yield          func([]yieldMsg) bool
	reply          uint64
}

// stopped is what an operation panics with when the scheduler has stopped
// its processor (Execute returned early): the body unwinds to the seq
// wrapper, which recovers it, so the coroutine ends instead of blocking.
type stopped struct{}

func (c *genCtx) Proc() int     { return c.proc }
func (c *genCtx) NumProcs() int { return c.numProcs }

// op queues an operation whose result the body does not need.
func (c *genCtx) op(k opKind, addr mem.Addr, size int32, sync int32, val uint64) {
	c.ops = append(c.ops, yieldMsg{kind: k, addr: addr, size: size, sync: sync, val: val})
	if len(c.ops) == aheadOps {
		c.flush()
	}
}

// value queues an operation and waits for it to be granted, returning the
// value it observed.
func (c *genCtx) value(k opKind, addr mem.Addr, val uint64) uint64 {
	c.ops = append(c.ops, yieldMsg{kind: k, addr: addr, size: 8, val: val})
	c.flush()
	return c.reply
}

// flush hands the queue to the scheduler and returns once all of it has
// been granted.
func (c *genCtx) flush() {
	if !c.yield(c.ops) {
		panic(stopped{})
	}
	c.ops = c.ops[:0]
}

// seq returns the processor's body as the sequence of operation batches
// it asks for, the last ended by opDone.
func (c *genCtx) seq(p Program) iter.Seq[[]yieldMsg] {
	return func(yield func([]yieldMsg) bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(stopped); !ok {
					panic(r)
				}
			}
		}()
		c.yield = yield
		c.ops = make([]yieldMsg, 0, aheadOps)
		p.Proc(c)
		c.ops = append(c.ops, yieldMsg{kind: opDone})
		yield(c.ops)
	}
}

func (c *genCtx) Read(addr mem.Addr, size int)   { c.op(opRead, addr, int32(size), 0, 0) }
func (c *genCtx) Write(addr mem.Addr, size int)  { c.op(opWrite, addr, int32(size), 0, 0) }
func (c *genCtx) Update(addr mem.Addr, size int) { c.op(opUpdate, addr, int32(size), 0, 0) }
func (c *genCtx) WriteUint64(addr mem.Addr, v uint64) {
	c.op(opSet64, addr, 8, 0, v)
}
func (c *genCtx) ReadUint64(addr mem.Addr) uint64 {
	return c.value(opGet64, addr, 0)
}
func (c *genCtx) FetchAddUint64(addr mem.Addr, delta uint64) uint64 {
	return c.value(opAdd64, addr, delta)
}
func (c *genCtx) Acquire(l int) { c.op(opAcquire, 0, 0, int32(l), 0) }
func (c *genCtx) Release(l int) { c.op(opRelease, 0, 0, int32(l), 0) }
func (c *genCtx) Barrier(b int) { c.op(opBarrier, 0, 0, int32(b), 0) }

// chunkEvents is the length of the chunks a trace is recorded in.
const chunkEvents = 8 << 10

// recorder builds a trace in fixed-size chunks, so a long trace is never
// copied while it grows, and applies each event's value semantics to the
// image as it is recorded.
type recorder struct {
	full  [][]trace.Event
	cur   []trace.Event
	image []byte
}

// emit appends the event and applies it to the image, returning the value
// observed (AddVal's previous value).
func (r *recorder) emit(e trace.Event) uint64 {
	if len(r.cur) == cap(r.cur) {
		if r.cur != nil {
			r.full = append(r.full, r.cur)
		}
		r.cur = make([]trace.Event, 0, chunkEvents)
	}
	r.cur = append(r.cur, e)
	return trace.ApplyEvent(r.image, e)
}

// events returns the recorded events in one exact-length slice.
func (r *recorder) events() []trace.Event {
	ev := make([]trace.Event, 0, len(r.full)*chunkEvents+len(r.cur))
	for _, c := range r.full {
		ev = append(ev, c...)
	}
	return append(ev, r.cur...)
}

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
// validated trace and the reference memory image. The scheduler grants
// exactly one operation per turn (round-robin among runnable processors),
// parks processors that block on held locks or barriers, and emits events
// — applying their value semantics to the image — in the order operations
// are granted, so lock nesting and barrier episodes in the trace are
// correct by construction. Given a fixed seed, execution is fully
// deterministic. Every processor is a coroutine (iter.Pull) that runs
// ahead of the schedule, queueing up to aheadOps operations, and waits for
// the scheduler only at a value-returning operation (ReadUint64,
// FetchAddUint64), when its queue is full and at its end. Running ahead
// changes nothing a body observes: values come from the grant, not the
// queueing, and bodies share no mutable Go state (Program.Proc). Every
// return stops the processors, errors included.
func Execute(p Program) (*Result, error) {
	cfg := p.Config()
	if cfg.NumProcs <= 0 || cfg.NumProcs > 64 {
		return nil, fmt.Errorf("workload %s: processor count %d outside [1,64]", p.Name(), cfg.NumProcs)
	}
	ctxs := make([]*genCtx, cfg.NumProcs)
	resume := make([]func() ([]yieldMsg, bool), cfg.NumProcs)
	queued := make([][]yieldMsg, cfg.NumProcs) // handed over, not yet granted
	for i := range resume {
		ctxs[i] = &genCtx{proc: i, numProcs: cfg.NumProcs}
		var stop func()
		resume[i], stop = iter.Pull(ctxs[i].seq(p))
		defer stop()
	}

	rec := &recorder{image: make([]byte, cfg.SpaceSize)}

	const (
		stRunnable = iota
		stBlocked  // waiting on a lock or barrier
		stDone
	)
	state := make([]int, cfg.NumProcs)
	lockHolder := make([]int, cfg.NumLocks) // -1: free
	for l := range lockHolder {
		lockHolder[l] = -1
	}
	lockQueue := make([][]int, cfg.NumLocks)     // FIFO waiters
	barWaiters := make([][]int, cfg.NumBarriers) // arrived & parked
	active := cfg.NumProcs

	// A processor whose queue is empty is resumed until it hands over its
	// next batch; operations are granted (and their events emitted) here,
	// one per turn, in scheduling order.
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
		// A body's last batch ends with opDone and it is never resumed
		// after it, so every resume hands over a batch.
		if len(queued[picked]) == 0 {
			queued[picked], _ = resume[picked]()
		}
		y := queued[picked][0]
		queued[picked] = queued[picked][1:]
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
		case opAcquire, opRelease:
			if y.sync < 0 || int(y.sync) >= cfg.NumLocks {
				return nil, fmt.Errorf("workload %s: p%d uses lock %d outside [0,%d)", p.Name(), picked, y.sync, cfg.NumLocks)
			}
		case opBarrier:
			if y.sync < 0 || int(y.sync) >= cfg.NumBarriers {
				return nil, fmt.Errorf("workload %s: p%d uses barrier %d outside [0,%d)", p.Name(), picked, y.sync, cfg.NumBarriers)
			}
		}
		switch y.kind {
		case opRead:
			rec.emit(trace.Event{Kind: trace.Read, Proc: mem.ProcID(picked), Addr: y.addr, Size: y.size})
		case opWrite:
			rec.emit(trace.Event{Kind: trace.Write, Proc: mem.ProcID(picked), Addr: y.addr, Size: y.size})
		case opUpdate:
			rec.emit(trace.Event{Kind: trace.Update, Proc: mem.ProcID(picked), Addr: y.addr, Size: y.size})
		case opSet64:
			rec.emit(trace.Event{Kind: trace.SetVal, Proc: mem.ProcID(picked), Addr: y.addr, Size: 8, Val: y.val})
		case opGet64:
			rec.emit(trace.Event{Kind: trace.Read, Proc: mem.ProcID(picked), Addr: y.addr, Size: 8})
			// The value is delivered on the proc's next resume.
			ctxs[picked].reply = binary.LittleEndian.Uint64(rec.image[y.addr:])
		case opAdd64:
			ctxs[picked].reply = rec.emit(trace.Event{Kind: trace.AddVal, Proc: mem.ProcID(picked), Addr: y.addr, Size: 8, Val: y.val})
		case opAcquire:
			if lockHolder[y.sync] >= 0 {
				lockQueue[y.sync] = append(lockQueue[y.sync], picked)
				state[picked] = stBlocked
			} else {
				lockHolder[y.sync] = picked
				rec.emit(trace.Event{Kind: trace.Acquire, Proc: mem.ProcID(picked), Sync: y.sync})
			}
		case opRelease:
			if lockHolder[y.sync] != picked {
				return nil, fmt.Errorf("workload %s: p%d releases lock %d it does not hold", p.Name(), picked, y.sync)
			}
			rec.emit(trace.Event{Kind: trace.Release, Proc: mem.ProcID(picked), Sync: y.sync})
			lockHolder[y.sync] = -1
			if q := lockQueue[y.sync]; len(q) > 0 {
				w := q[0]
				lockQueue[y.sync] = q[1:]
				lockHolder[y.sync] = w
				rec.emit(trace.Event{Kind: trace.Acquire, Proc: mem.ProcID(w), Sync: y.sync})
				state[w] = stRunnable
			}
		case opBarrier:
			rec.emit(trace.Event{Kind: trace.Barrier, Proc: mem.ProcID(picked), Sync: y.sync})
			arr := append(barWaiters[y.sync], picked)
			if len(arr) == cfg.NumProcs {
				for _, w := range arr {
					state[w] = stRunnable
				}
				arr = arr[:0]
			} else {
				state[picked] = stBlocked
			}
			barWaiters[y.sync] = arr
		case opDone:
			state[picked] = stDone
			active--
		}
	}
	t := &trace.Trace{
		NumProcs:    cfg.NumProcs,
		SpaceSize:   cfg.SpaceSize,
		NumLocks:    cfg.NumLocks,
		NumBarriers: cfg.NumBarriers,
		Name:        p.Name(),
		Events:      rec.events(),
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("workload %s: generated invalid trace: %w", p.Name(), err)
	}
	return &Result{Trace: t, Image: rec.image}, nil
}
