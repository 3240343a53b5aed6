package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"
)

// windows is how many equal parts the timed steps are cut into. A run's
// throughput is the median of the parts' rates, so a stall that hits a
// few of them (another tenant on the core, a GC pause) does not move it.
const windows = 16

// traceKeep is how many spans per node a traced run retains for the
// trace file (every span still feeds the aggregates).
const traceKeep = 20000

// runResult is one measured run of one workload: the timed section's
// counters and samples, from which both metric families are derived.
type runResult struct {
	ops     int64 // ops in the timed section
	elapsed time.Duration
	setups  []setupRep    // one per set-up repetition
	warmup  time.Duration // the untimed warm-up

	attempted, failed int64
	errs              []string

	sync, miss  []int64   // ascending ns; sync is Acquire waits or barrier episode costs
	episodes    []episode // barrier episodes of the timed section
	barWaitNs   float64   // mean Barrier call -> return per node
	windowRates []float64 // op/s of each part of the timed section (synthetic workloads)
	quarter     [2]time.Duration

	delta  counters     // timed-section counter deltas
	model  modelCounts  // the paper's model's counts for the program
	traces []*nodeTrace // traced runs only
}

// setupRep is the cost of one set-up repetition.
type setupRep struct {
	wall       time.Duration
	cpu, calib float64 // process CPU seconds of the set-up, and of the calibration kernel run just before it
}

// timeSetup runs the calibration kernel, then build, and measures both.
func timeSetup(build func() error) (setupRep, error) {
	rep := setupRep{calib: calibrate()}
	start, startCPU := time.Now(), processCPU()
	err := build()
	rep.wall, rep.cpu = time.Since(start), processCPU()-startCPU
	return rep, err
}

func (r *runResult) fail(n int64, format string, args ...any) {
	r.failed += n
	if len(r.errs) < 8 {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

// runSteps runs one synthetic workload: setups set-up repetitions
// (seeded inputs, the paper's model of the program, the cluster), the
// untimed warm-up on the last cluster, then steps timed steps, then
// verification of the final image.
func runSteps(spec *workloadSpec, seed int64, steps, setups int, traced bool) *runResult {
	res := &runResult{}
	var (
		prog stepProgram
		c    *cluster
	)
	for i := 0; i < setups; i++ {
		if c != nil {
			for _, err := range c.close() {
				res.fail(1, "close after set-up: %v", err)
			}
		}
		rep, err := timeSetup(func() (err error) {
			prog = spec.program(seed)
			if res.model, err = stepModel(spec, prog); err == nil {
				c, err = newCluster(spec.mode, spec.tcp, prog.space())
			}
			return err
		})
		if err != nil {
			res.attempted = int64(steps) * nodes * prog.checksPerStep()
			res.fail(res.attempted, "set-up: %v", err)
			return res
		}
		res.setups = append(res.setups, rep)
	}

	// Warm-up, the first 5% of steps: cold misses, lazy TCP dial, pool
	// fill. It is the runtime executing, as exposed to the host as the
	// timed section, so it is reported on its own and not as set-up.
	warm := (steps + 19) / 20
	start := time.Now()
	ws := make([]*worker, nodes)
	for i := range ws {
		ws[i] = &worker{id: i, n: c.nodes[i]}
		ws[i].t0 = start
		if traced {
			ws[i].tr = newNodeTrace(i, traceKeep)
		}
	}
	drive(prog, c, ws, 0, warm)
	runtime.GC() // start every timed section from a collected heap
	res.warmup = time.Since(start)
	for _, w := range ws {
		w.resetSamples() // the checks the warm-up made still count
	}

	before := c.snapshot()
	start = time.Now()
	errs := drive(prog, c, ws, warm, warm+steps)
	res.elapsed = time.Since(start)
	after := readRuntime()
	res.ops = int64(steps) * prog.opsPerStep()
	end := c.snapshot()
	end.rt = after
	res.delta = end.sub(before)

	aborted := false
	for i, w := range ws {
		res.attempted += w.attempted
		res.failed += w.failed
		if errs[i] != nil {
			aborted = true
			res.fail(0, "node %d: %v", i, errs[i]) // drive already counted its unrun ops
		}
	}
	if !aborted {
		// The cluster is quiescent after the last barrier: read the whole
		// space out through node 0 and compare it with the analytic image.
		got := make([]byte, prog.space())
		if err := c.nodes[0].Read(got, 0); err != nil {
			res.fail(int64(len(got)), "image read-out: %v", err)
		} else if n := mismatches(got, prog.image(warm+steps)); n > 0 {
			res.fail(n, "final image: %d of %d bytes differ from the reference", n, len(got))
		}
	}
	for _, err := range c.close() {
		if !aborted { // an aborted run's close errors repeat its cause
			res.fail(1, "close: %v", err)
		}
	}
	recs := make([]*recorder, len(ws))
	for i, w := range ws {
		recs[i] = &w.recorder
	}
	res.collect(recs, spec.syncOnBarrier)
	m := ws[0].marks
	for k := 0; k < windows && !aborted; k++ {
		if n := steps*(k+1)/windows - steps*k/windows; n > 0 {
			ops := float64(int64(n) * prog.opsPerStep())
			res.windowRates = append(res.windowRates, perSecond(ops, time.Duration(m[k+1]-m[k])))
		}
	}
	res.quarter = [2]time.Duration{time.Duration(m[windows/4] - m[0]), time.Duration(m[windows] - m[3*windows/4])}
	return res
}

// drive runs steps [from, to) on every node, one closed-loop goroutine
// per node, and returns each node's error. A node that fails counts its
// unrun ops as failed and closes the cluster so its peers, blocked in
// barriers it will never reach, fail at once rather than at the timeout.
func drive(prog stepProgram, c *cluster, ws []*worker, from, to int) []error {
	errs := make([]error, len(ws))
	var wg sync.WaitGroup
	for _, w := range ws {
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			done := w.attempted
			for s := from; s < to; s++ {
				if w.id == 0 {
					for k := 0; k < windows; k++ {
						if s == from+(to-from)*k/windows {
							w.marks[k] = w.now()
						}
					}
				}
				if err := w.runStep(prog, s); err != nil {
					errs[w.id] = err
					unrun := int64(to-from)*prog.checksPerStep() - (w.attempted - done)
					w.attempted += unrun
					w.failed += unrun
					c.close()
					return
				}
			}
			w.endOp()
			if w.id == 0 {
				w.marks[windows] = w.now()
			}
		}(w)
	}
	wg.Wait()
	return errs
}

// runStep runs every phase of step s on w's node, each followed by its
// barrier.
func (w *worker) runStep(prog stepProgram, s int) error {
	for ph := 0; ph < prog.phases(); ph++ {
		if err := prog.phase(w, s, ph); err != nil {
			return err
		}
		if err := w.barrier(ph); err != nil {
			return err
		}
	}
	return nil
}

// collect folds the clients' samples into the result. With
// syncOnBarrier the sync samples are the barrier episode costs instead
// of the Acquire waits (workloads that take no locks).
func (r *runResult) collect(recs []*recorder, syncOnBarrier bool) {
	calls, rets := make([][]int64, len(recs)), make([][]int64, len(recs))
	var waits, nwaits int64
	for i, rec := range recs {
		r.sync = append(r.sync, rec.sync...)
		r.miss = append(r.miss, rec.miss...)
		calls[i], rets[i] = rec.barCall, rec.barRet
		for e := range min(len(rec.barCall), len(rec.barRet)) {
			waits += rec.barRet[e] - rec.barCall[e]
			nwaits++
		}
		if rec.tr != nil {
			r.traces = append(r.traces, rec.tr)
		}
	}
	if nwaits > 0 {
		r.barWaitNs = float64(waits) / float64(nwaits)
	}
	r.episodes = mergeEpisodes(calls, rets)
	if syncOnBarrier {
		r.sync = r.sync[:0]
		for _, e := range r.episodes {
			r.sync = append(r.sync, e.cost)
		}
	}
	slices.Sort(r.sync)
	slices.Sort(r.miss)
}

// mismatches counts the bytes at which two images differ (a length
// difference counts every missing byte).
func mismatches(got, want []byte) int64 {
	n := int64(0)
	short := min(len(got), len(want))
	for i := 0; i < short; i++ {
		if got[i] != want[i] {
			n++
		}
	}
	return n + int64(max(len(got), len(want))-short)
}
