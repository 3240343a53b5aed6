package main

import (
	"runtime"
	"time"

	"repro/internal/dsm"
	"repro/internal/mem"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/workload"
)

// splashScale sizes water so that message and byte counts repeat within
// a few percent run to run (at scale 0.5 they wander by a quarter).
const splashScale = 16

// tracedCtx is one logical processor's view of the workload bridge with
// the benchmark's clock around every call. The first access after an
// Acquire is the lock-protected datum the previous holder may have
// changed, so it is the miss sample; the op is the critical section.
type tracedCtx struct {
	workload.Ctx
	recorder
	next   accessTag // tag of the next access: missed after Acquire, first after Barrier
	stamps []int64   // clock at each Acquire call
}

func (c *tracedCtx) access(kind spanKind, call func()) {
	tag := c.next
	c.next = repeat
	if c.quiet(tag) {
		call()
		return
	}
	c.timed(kind, tag, func() error { call(); return nil }) // bridge calls panic on failure; nothing to return
}

func (c *tracedCtx) Read(addr mem.Addr, size int) {
	c.access(spRead, func() { c.Ctx.Read(addr, size) })
}
func (c *tracedCtx) Write(addr mem.Addr, size int) {
	c.access(spWrite, func() { c.Ctx.Write(addr, size) })
}
func (c *tracedCtx) Update(addr mem.Addr, size int) {
	c.access(spUpdate, func() { c.Ctx.Update(addr, size) })
}
func (c *tracedCtx) WriteUint64(addr mem.Addr, v uint64) {
	c.access(spWrite, func() { c.Ctx.WriteUint64(addr, v) })
}
func (c *tracedCtx) ReadUint64(addr mem.Addr) (v uint64) {
	c.access(spRead, func() { v = c.Ctx.ReadUint64(addr) })
	return v
}
func (c *tracedCtx) FetchAddUint64(addr mem.Addr, delta uint64) (v uint64) {
	c.access(spUpdate, func() { v = c.Ctx.FetchAddUint64(addr, delta) })
	return v
}

func (c *tracedCtx) Acquire(l int) {
	c.beginOp()
	c.stamps = append(c.stamps, c.now())
	c.timedSync(spAcquire, func() error { c.Ctx.Acquire(l); return nil })
	c.next = missed
}

func (c *tracedCtx) Release(l int) {
	if c.tr == nil {
		c.Ctx.Release(l)
		return
	}
	c.timedSync(spRelease, func() error { c.Ctx.Release(l); return nil })
	c.endOp()
}

func (c *tracedCtx) Barrier(b int) {
	c.timedSync(spBarrier, func() error { c.Ctx.Barrier(b); return nil })
	c.next = first
}

// timedProgram runs the wrapped program's bodies against tracedCtx.
type timedProgram struct {
	workload.Program
	t0     time.Time
	traced bool
	ctxs   []*tracedCtx // by processor; each slot is written by that processor's goroutine only
}

func (p *timedProgram) Proc(ctx workload.Ctx) {
	c := &tracedCtx{Ctx: ctx}
	c.t0 = p.t0
	if p.traced {
		c.tr = newNodeTrace(ctx.Proc(), traceKeep)
	}
	p.ctxs[ctx.Proc()] = c
	p.Program.Proc(c)
}

// runSplash runs water through the workload bridge: setups set-up
// repetitions (generate the program, its sequential reference image and
// trace, and the paper's model's counts for that trace), one untimed
// warm-up run, then runs timed runs, each on a fresh cluster. Each timed
// run is its own result; the reported value of a metric is the median
// over them.
func runSplash(seed int64, runs, setups int, traced bool) []*runResult {
	rc := workload.RuntimeConfig{
		PageSize: pageSize, Mode: dsm.LazyInvalidate,
		GCEveryBarriers: gcEveryBarriers, RPCTimeout: rpcTimeout,
	}
	var (
		prog   workload.Program
		ref    *workload.Result
		model  *proto.Stats
		reps   []setupRep
		broken error
	)
	for i := 0; i < setups && broken == nil; i++ {
		var rep setupRep
		rep, broken = timeSetup(func() (err error) {
			if prog, err = workload.New("water", nodes, splashScale, seed); err != nil {
				return err
			}
			if ref, err = workload.Execute(prog); err != nil {
				return err
			}
			model, err = sim.Run(ref.Trace, dsm.LazyInvalidate.String(), pageSize, proto.Options{})
			return err
		})
		reps = append(reps, rep)
	}
	start := time.Now()
	if broken == nil {
		_, broken = workload.RunOnRuntime(prog, rc)
	}
	warmup := time.Since(start)
	if broken != nil {
		res := &runResult{attempted: 1, setups: reps}
		res.fail(1, "set-up: %v", broken)
		return []*runResult{res}
	}

	ops := int64(ref.Trace.Count().Acquires)
	results := make([]*runResult, runs)
	for r := range results {
		res := &runResult{ops: ops, attempted: ops, model: modelCounts{model, ops}, setups: reps, warmup: warmup}
		results[r] = res
		tp := &timedProgram{Program: prog, traced: traced, ctxs: make([]*tracedCtx, nodes)}
		runtime.GC() // start every timed run from a collected heap
		before := readRuntime()
		tp.t0 = time.Now()
		out, err := workload.RunOnRuntime(tp, rc)
		res.elapsed = time.Since(tp.t0)
		res.delta.rt = readRuntime().sub(before)
		if err != nil {
			res.fail(ops, "run %d: %v", r, err) // covers Close errors: the bridge returns them
			continue
		}
		res.delta.net, res.delta.engine = out.Net, sumStats(out.Nodes)
		if n := mismatches(out.Image, ref.Image); n > 0 {
			res.fail(n, "run %d: final image: %d of %d bytes differ from the reference", r, n, len(ref.Image))
		}
		recs := make([]*recorder, 0, nodes)
		for _, c := range tp.ctxs {
			if c != nil {
				recs = append(recs, &c.recorder)
			}
		}
		res.collect(recs, false)
		if st := tp.ctxs[0].stamps; len(st) >= 4 {
			n := len(st)
			res.quarter = [2]time.Duration{time.Duration(st[n/4] - st[0]), time.Duration(st[n-1] - st[3*n/4])}
		}
	}
	return results
}
