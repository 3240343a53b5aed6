package main

import (
	"time"

	"repro/internal/dsm"
	"repro/internal/mem"
)

// recorder is what one closed-loop client keeps while it runs: the
// latency samples the end-to-end metrics are computed from and, in a
// traced run, the node's spans. One goroutine owns it.
type recorder struct {
	t0 time.Time
	tr *nodeTrace // nil in an untraced run

	sync    []int64 // ns blocked in Acquire
	miss    []int64 // ns of accesses tagged missed
	barCall []int64 // timestamp of each Barrier call
	barRet  []int64 // and of its return
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) span(kind spanKind, isFirst bool, start, end int64) {
	if r.tr != nil {
		r.tr.add(kind, isFirst, start, end)
	}
}

func (r *recorder) beginOp() {
	if r.tr != nil {
		r.tr.beginOp(r.now())
	}
}

func (r *recorder) endOp() {
	if r.tr != nil {
		r.tr.endOp(r.now())
	}
}

// quiet reports whether an access with this tag is recorded nowhere, so
// the caller can skip the timestamps: an untraced hit.
func (r *recorder) quiet(tag accessTag) bool { return r.tr == nil && tag != missed }

// timed runs one access and records it according to its tag.
func (r *recorder) timed(kind spanKind, tag accessTag, call func() error) error {
	start := r.now()
	err := call()
	end := r.now()
	if tag == missed {
		r.miss = append(r.miss, end-start)
	}
	r.span(kind, tag != repeat, start, end)
	return err
}

func (r *recorder) timedSync(kind spanKind, call func() error) error {
	start := r.now()
	err := call()
	end := r.now()
	switch kind {
	case spAcquire:
		r.sync = append(r.sync, end-start)
	case spBarrier:
		r.barCall = append(r.barCall, start)
		r.barRet = append(r.barRet, end)
	}
	r.span(kind, false, start, end)
	return err
}

// resetSamples drops what the warm-up recorded.
func (r *recorder) resetSamples() {
	r.sync, r.miss = r.sync[:0], r.miss[:0]
	r.barCall, r.barRet = r.barCall[:0], r.barRet[:0]
	if r.tr != nil {
		*r.tr = *newNodeTrace(r.tr.node, r.tr.keep)
	}
}

// node is what a workload program needs of a DSM node: a *dsm.Node in a
// measured run, a *modelNode when the program's accesses are recorded
// for the paper's model.
type node interface {
	Acquire(mem.LockID) error
	Release(mem.LockID) error
	Barrier(mem.BarrierID) error
	Read(buf []byte, addr mem.Addr) error
	Write(addr mem.Addr, data []byte) error
	ReadUint64(addr mem.Addr) (uint64, error)
	WriteUint64(addr mem.Addr, v uint64) error
}

var _ node = (*dsm.Node)(nil)

// worker is one node's closed-loop application goroutine in the
// synthetic workloads: it issues its next call into the runtime only
// when the previous one has returned.
type worker struct {
	recorder
	id int
	n  node

	attempted, failed int64
	marks             [windows + 1]int64 // node 0: clock at each window boundary of the timed steps
	scratch           []byte
}

func (w *worker) acquire(l int) error {
	return w.timedSync(spAcquire, func() error { return w.n.Acquire(mem.LockID(l)) })
}

func (w *worker) release(l int) error {
	if w.tr == nil {
		return w.n.Release(mem.LockID(l))
	}
	return w.timedSync(spRelease, func() error { return w.n.Release(mem.LockID(l)) })
}

func (w *worker) barrier(b int) error {
	return w.timedSync(spBarrier, func() error { return w.n.Barrier(mem.BarrierID(b)) })
}

func (w *worker) read(buf []byte, addr mem.Addr, tag accessTag) error {
	if w.quiet(tag) {
		return w.n.Read(buf, addr)
	}
	return w.timed(spRead, tag, func() error { return w.n.Read(buf, addr) })
}

func (w *worker) write(addr mem.Addr, data []byte, tag accessTag) error {
	if w.quiet(tag) {
		return w.n.Write(addr, data)
	}
	return w.timed(spWrite, tag, func() error { return w.n.Write(addr, data) })
}

func (w *worker) read64(addr mem.Addr, tag accessTag) (uint64, error) {
	if w.quiet(tag) {
		return w.n.ReadUint64(addr)
	}
	var v uint64
	err := w.timed(spRead, tag, func() (err error) { v, err = w.n.ReadUint64(addr); return err })
	return v, err
}

func (w *worker) write64(addr mem.Addr, v uint64, tag accessTag) error {
	if w.quiet(tag) {
		return w.n.WriteUint64(addr, v)
	}
	return w.timed(spWrite, tag, func() error { return w.n.WriteUint64(addr, v) })
}

// check counts one verified op.
func (w *worker) check(ok bool) {
	w.attempted++
	if !ok {
		w.failed++
	}
}
