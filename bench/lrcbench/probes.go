package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/dsm"
	"repro/internal/mem"
	"repro/internal/page"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
	"repro/internal/vc"
	"repro/internal/wire"
)

// A probe times one layer's public functions in isolation, on inputs
// shaped like the workloads': the 64-byte run lock-ring rewrites, the
// fully rewritten 4 KiB page of barrier-slab, a lock grant carrying a
// four-entry vector clock. Each runs, in batches of probeBatch calls,
// until probeMinTime has passed or probeMinIters iterations are done,
// whichever comes first.
const (
	probeMinTime  = 200 * time.Millisecond
	probeMinIters = 10000
	probeBatch    = 250
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// prober runs probes and records a probe.* span for each.
type prober struct {
	minTime  time.Duration
	minIters int

	t0      time.Time
	spans   []probeSpan
	metrics map[string]float64
	err     error // the first failure of a probed call
}

func (p *prober) note(err error) {
	if err != nil && p.err == nil {
		p.err = err
	}
}

// run times body in batches of probeBatch calls; prep, when not nil,
// runs before every batch outside the clock. It records the mean time
// per call under name, in ns, or in us for a name ending in _us.
func (p *prober) run(name string, prep func(), body func(i int)) {
	begin := time.Since(p.t0)
	var busy time.Duration
	iters := 0
	for iters < p.minIters && busy < p.minTime {
		if prep != nil {
			prep()
		}
		start := time.Now()
		for i := 0; i < probeBatch; i++ {
			body(i)
		}
		busy += time.Since(start)
		iters += probeBatch
	}
	p.metrics[name] = float64(busy.Nanoseconds()) / float64(iters)
	if strings.HasSuffix(name, "_us") {
		p.metrics[name] /= 1e3
	}
	p.spans = append(p.spans, probeSpan{"probe." + name, int64(begin), int64(time.Since(p.t0))})
}

// runProbes runs every layer probe. Probe failures (a transport that
// cannot be built, a codec that rejects its own output) are returned,
// not hidden: the metrics would be meaningless.
func runProbes(minTime time.Duration, minIters int) (map[string]float64, []probeSpan, error) {
	p := &prober{minTime: minTime, minIters: minIters, t0: time.Now(), metrics: map[string]float64{}}
	for _, group := range []struct {
		name string
		run  func()
	}{{"page", p.pageProbes}, {"wire", p.wireProbes}, {"transport", p.transportProbes}, {"access", p.accessProbe}} {
		if group.run(); p.err != nil {
			return nil, nil, fmt.Errorf("%s probe: %w", group.name, p.err)
		}
	}
	return p.metrics, p.spans, nil
}

func (p *prober) pageProbes() {
	old := make([]byte, pageSize)
	for i := range old {
		old[i] = byte(i)
	}
	sparse := append([]byte(nil), old...)
	dense := append([]byte(nil), old...)
	for i := range dense {
		dense[i] ^= 0x5a
		if i >= 1024 && i < 1024+lrRecord {
			sparse[i] ^= 0x5a
		}
	}
	twin := page.NewTwin(old)
	makeDiff := func(cur []byte) *page.Diff {
		d, err := page.MakeDiff(twin, cur)
		p.note(err)
		return d
	}

	p.run("page.makediff_sparse_ns", nil, func(int) { sink += makeDiff(sparse).NumRuns() })
	p.run("page.makediff_dense_ns", nil, func(int) { sink += makeDiff(dense).NumRuns() })
	if p.err != nil {
		return
	}
	target := make([]byte, pageSize)
	sparseDiff, denseDiff := makeDiff(sparse), makeDiff(dense)
	p.run("page.apply_sparse_ns", nil, func(int) { p.note(sparseDiff.Apply(target)) })
	p.run("page.apply_dense_ns", nil, func(int) { p.note(denseDiff.Apply(target)) })

	// A diff caches its wire body, so every timed call needs a fresh diff.
	fresh := make([]*page.Diff, probeBatch)
	p.run("page.wirebody_dense_ns",
		func() {
			for i := range fresh {
				fresh[i] = makeDiff(dense)
			}
		},
		func(i int) { sink += len(fresh[i].EnsureWireBody()) })

	four := []*page.Diff{denseDiff, makeDiff(old), makeDiff(dense), makeDiff(old)}
	p.run("page.flatten4_dense_ns", nil, func(int) {
		d, err := page.FlattenDiffs(four, pageSize)
		p.note(err)
		if d != nil {
			sink += d.NumRuns()
		}
	})
}

func (p *prober) wireProbes() {
	clock := vc.VC{7, 3, 9, 4}
	grant := &wire.Msg{Kind: wire.KLockGrant, Seq: 42, A: 5, Sections: []wire.Section{{
		Mode: uint16(dsm.LazyInvalidate), VC: clock,
		Intervals: []wire.IntervalRec{{Proc: 2, Index: 9, VC: clock, Pages: []mem.PageID{1}}},
	}}}
	old, dense := make([]byte, pageSize), make([]byte, pageSize)
	for i := range dense {
		dense[i] = byte(i) | 1
	}
	d, err := page.MakeDiff(page.NewTwin(old), dense)
	if p.note(err); err != nil {
		return
	}
	resp := &wire.Msg{Kind: wire.KDiffResp, Seq: 43, Diffs: []wire.DiffRec{{Page: 3, Proc: 1, Index: 7, Diff: d}}}

	for _, c := range []struct {
		name string
		msg  *wire.Msg
	}{{"small", grant}, {"diff4k", resp}} {
		buf := make([]byte, 0, 2*pageSize)
		p.run("wire.encode_"+c.name+"_ns", nil, func(int) { sink += len(c.msg.EncodeAppend(buf[:0])) })
		enc := c.msg.EncodeAppend(nil)
		p.run("wire.decode_"+c.name+"_ns", nil, func(int) {
			m, err := wire.Decode(enc)
			p.note(err)
			if m != nil {
				sink += int(m.A)
			}
		})
	}
}

// pingPong measures the round trip of a size-byte payload from a to z
// and back; z must echo. The payload a receives is reused for the next
// send, since a transport owns what it is handed.
func (p *prober) pingPong(name string, a transport.Endpoint, z int, size int) {
	payload := make([]byte, size)
	p.run(name, nil, func(int) {
		if p.err != nil {
			return
		}
		if err := a.Send(z, payload); err != nil {
			p.note(err)
			return
		}
		_, back, ok := a.Recv()
		if !ok {
			p.note(transport.ErrClosed)
			return
		}
		payload = back
	})
}

// echo returns every payload ep receives to its sender until the
// transport closes.
func echo(ep transport.Endpoint, done chan<- struct{}) {
	defer close(done)
	for {
		src, payload, ok := ep.Recv()
		if !ok || ep.Send(src, payload) != nil {
			return
		}
	}
}

func (p *prober) transportProbes() {
	sim := simnet.New(2)
	simDone := make(chan struct{})
	go echo(sim.Endpoint(1), simDone)
	p.pingPong("transport.simnet_rtt_64_us", sim.Endpoint(0), 1, 64)
	p.pingPong("transport.simnet_rtt_4k_us", sim.Endpoint(0), 1, pageSize)
	sim.Close()
	<-simDone

	pair, err := tcp.NewLoopbackCluster(2)
	if p.note(err); err != nil {
		return
	}
	tcpDone := make(chan struct{})
	go echo(pair[1].Endpoint(1), tcpDone)
	p.pingPong("transport.tcp_rtt_64_us", pair[0].Endpoint(0), 1, 64)
	p.pingPong("transport.tcp_rtt_4k_us", pair[0].Endpoint(0), 1, pageSize)
	for _, t := range pair {
		t.Close() // teardown errors of a probe transport carry no signal
	}
	<-tcpDone
}

// accessProbe counts the allocations of one Read/Write hit: on an idle
// cluster nothing else allocates, so the process-wide malloc delta over
// a burst of hits on one private page is the access layer's own.
func (p *prober) accessProbe() {
	c, err := newCluster(dsm.LazyInvalidate, false, nodes*pageSize)
	if p.note(err); err != nil {
		return
	}
	defer c.close()
	n := c.nodes[0]
	p.note(n.WriteUint64(0, 1)) // fault the page in, capture its twin
	const hits = 20000
	begin := time.Since(p.t0)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < hits/2; i++ {
		addr := mem.Addr(i % (pageSize / 8) * 8)
		p.note(n.WriteUint64(addr, uint64(i)))
		v, err := n.ReadUint64(addr)
		p.note(err)
		sink += int(v)
	}
	runtime.ReadMemStats(&after)
	p.metrics["access.allocs_per_op"] = float64(after.Mallocs-before.Mallocs) / hits
	p.spans = append(p.spans, probeSpan{"probe.access.allocs_per_op", int64(begin), int64(time.Since(p.t0))})
}
