package repro_test

import (
	"sync"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/dsm"
	"repro/internal/mem"
	"repro/internal/page"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/vc"
	"repro/internal/workload"
)

// --- live runtime benches ---

// BenchmarkRuntimeMigratoryCounter drives the Figure 3/4 pattern through
// the live DSM under every protocol engine, reporting interconnect
// traffic per critical section — the live counterpart of the paper's
// migratory-data comparison.
func BenchmarkRuntimeMigratoryCounter(b *testing.B) {
	noPoison(b)
	for _, m := range repro.DSMModes {
		mode := repro.DSMConfig{Procs: 4, SpaceSize: 64 * 1024, PageSize: 1024, Mode: m}
		b.Run(mode.Mode.String(), func(b *testing.B) {
			d, err := repro.NewDSM(mode)
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			b.ResetTimer()
			var wg sync.WaitGroup
			for i := 0; i < mode.Procs; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					n := d.Node(i)
					for k := 0; k < b.N; k++ {
						if err := n.Acquire(0); err != nil {
							b.Error(err)
							return
						}
						v, err := n.ReadUint64(0)
						if err != nil {
							b.Error(err)
							return
						}
						if err := n.WriteUint64(0, v+1); err != nil {
							b.Error(err)
							return
						}
						if err := n.Release(0); err != nil {
							b.Error(err)
							return
						}
					}
				}(i)
			}
			wg.Wait()
			b.StopTimer()
			st := d.NetStats()
			crit := int64(mode.Procs) * int64(b.N)
			b.ReportMetric(float64(st.Messages)/float64(crit), "msgs/critsec")
			b.ReportMetric(float64(st.Bytes)/float64(crit), "B/critsec")
		})
	}
}

// benchRuntimeWorkload runs one SPLASH workload end to end on the live DSM
// runtime per iteration — the full life of an execution: node startup,
// concurrent program body, closing barrier, image read-out — on four
// nodes under every protocol engine, reporting interconnect traffic per
// run.
func benchRuntimeWorkload(b *testing.B, app string) {
	noPoison(b)
	for _, mode := range dsm.Modes {
		b.Run(mode.String(), func(b *testing.B) {
			prog, err := workload.New(app, 4, 0.05, 42)
			if err != nil {
				b.Fatal(err)
			}
			var res *workload.RuntimeResult
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err = workload.RunOnRuntime(prog, workload.RuntimeConfig{PageSize: 1024, Mode: mode})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(res.Net.Messages), "msgs/run")
			b.ReportMetric(float64(res.Net.Bytes)/1024, "kB/run")
		})
	}
}

// BenchmarkRuntimeCounterObs is the migratory-counter pattern on eight
// single-goroutine nodes — each performs b.N lock-protected increments —
// with the observability surface toggled: "off" is the baseline, "on"
// registers every live metric series and attaches an enabled tracer. The
// hooks are scrape-time callbacks plus nil-checked emit sites, so the
// on/off ns/op gap is the hook overhead. CI records the series in
// BENCH_obs.json and uploads it; nothing asserts the gap, because a
// wall-clock bound would flake on shared runners.
func BenchmarkRuntimeCounterObs(b *testing.B) {
	noPoison(b)
	const procs = 8
	for _, obsOn := range []bool{false, true} {
		name := "metrics=off"
		if obsOn {
			name = "metrics=on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := repro.DSMConfig{
				Procs:     procs,
				SpaceSize: 64 * 1024,
				PageSize:  1024,
				Mode:      repro.LazyInvalidate,
			}
			if obsOn {
				cfg.Metrics = repro.NewMetricsRegistry()
				cfg.Tracer = repro.NewTracer(1 << 14)
			}
			d, err := repro.NewDSM(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer d.Close()
			a := repro.NewArena(d.Layout())
			counter := repro.NewVar[uint64](a)
			lock := a.NewLock()
			b.ResetTimer()
			var wg sync.WaitGroup
			for _, n := range d.Local() {
				wg.Add(1)
				go func(n *repro.Node) {
					defer wg.Done()
					for k := 0; k < b.N; k++ {
						if err := repro.Locked(n, lock, func() error {
							_, err := counter.Add(n, 1)
							return err
						}); err != nil {
							b.Error(err)
							return
						}
					}
				}(n)
			}
			wg.Wait()
		})
	}
}

func BenchmarkRuntimeLocusRoute(b *testing.B) { benchRuntimeWorkload(b, "locusroute") }
func BenchmarkRuntimeCholesky(b *testing.B)   { benchRuntimeWorkload(b, "cholesky") }
func BenchmarkRuntimeWater(b *testing.B)      { benchRuntimeWorkload(b, "water") }
func BenchmarkRuntimePthor(b *testing.B)      { benchRuntimeWorkload(b, "pthor") }

// BenchmarkRuntimeLockRing runs the control-plane gate's lock ring (LI,
// 4 KiB pages, a GC epoch every eight barriers) over simnet, one step per
// iteration after a two-epoch warm-up, and reports the time, messages and
// diff requests per critical section: an LI fault's round, the lazy miss
// service and the sync path, small message by small message.
func BenchmarkRuntimeLockRing(b *testing.B) {
	noPoison(b)
	const gcEvery = 8
	r := newRing(b, repro.RuntimeConfig{Mode: repro.LazyInvalidate, PageSize: 4096, GCEveryBarriers: gcEvery})
	r.steps(b, 0, 2*gcEvery)
	msgs, reqs := r.sys.NetStats().Messages, r.diffReqs()
	b.ResetTimer()
	r.steps(b, 2*gcEvery, 2*gcEvery+b.N)
	b.StopTimer()
	crit := float64(b.N * ringLocks)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/crit, "ns/critsec")
	b.ReportMetric(float64(r.sys.NetStats().Messages-msgs)/crit, "msgs/critsec")
	b.ReportMetric(float64(r.diffReqs()-reqs)/crit, "diffreqs/critsec")
}

// BenchmarkRuntimeBarrier measures a live all-write-then-barrier round.
func BenchmarkRuntimeBarrier(b *testing.B) {
	noPoison(b)
	d, err := repro.NewDSM(repro.DSMConfig{
		Procs: 4, SpaceSize: 64 * 1024, PageSize: 1024, Mode: repro.LazyInvalidate,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	b.ResetTimer()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			n := d.Node(i)
			for k := 0; k < b.N; k++ {
				if err := n.WriteUint64(repro.Addr(i*2048), uint64(k)); err != nil {
					b.Error(err)
					return
				}
				if err := n.Barrier(0); err != nil {
					b.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// --- interconnect benches ---
// (BenchmarkTransport{Simnet,TCP}, the raw ping-pong comparison, lives
// in internal/transport — only that layer and dsm touch transport
// implementations directly.)

// writeShare is the barrier-heavy write-share pattern on a loopback TCP
// cluster of four Systems: every round each node rewrites its four pages
// of a shared region, bumps a locked counter and meets the others at a
// barrier. Under LU every barrier makes each node revalidate the other
// nodes' twelve pages, one diff request to each creator; under EU every
// release pushes the node's four pages to the other nodes' copies.
type writeShare struct {
	systems  []*repro.DSM
	counter  repro.Var[uint64]
	lock     repro.Lock
	pageSize int
}

const writeShareProcs, writeSharePages = 4, 4

// newWriteShare builds the cluster, which tb closes, and runs a warm-up
// round that caches every page of the region everywhere, so later rounds
// are steady revalidation traffic, not cold misses.
func newWriteShare(tb testing.TB, mode repro.DSMMode, pageSize int) *writeShare {
	tb.Helper()
	trs, err := repro.NewLoopbackTCPCluster(writeShareProcs)
	if err != nil {
		tb.Fatal(err)
	}
	w := &writeShare{systems: make([]*repro.DSM, writeShareProcs), pageSize: pageSize}
	for i, tr := range trs {
		if w.systems[i], err = repro.NewDSM(repro.DSMConfig{
			Procs: writeShareProcs, SpaceSize: 64 * 1024, PageSize: pageSize, Mode: mode, Transport: tr,
		}); err != nil {
			tb.Fatal(err)
		}
		tb.Cleanup(func() { w.systems[i].Close() })
	}
	a := repro.NewArena(w.systems[0].Layout())
	w.counter, w.lock = repro.NewVar[uint64](a), a.NewLock()
	onEveryNode(tb, writeShareProcs, w.node, func(i int, n *repro.Node) error {
		for j := 0; j < writeSharePages; j++ {
			if err := n.WriteUint64(w.pageAddr(i, j), 1); err != nil {
				return err
			}
		}
		if err := n.Barrier(0); err != nil {
			return err
		}
		for owner := 0; owner < writeShareProcs; owner++ {
			for j := 0; j < writeSharePages; j++ {
				if _, err := n.ReadUint64(w.pageAddr(owner, j)); err != nil {
					return err
				}
			}
		}
		return n.Barrier(0)
	})
	return w
}

func (w *writeShare) node(i int) *repro.Node { return w.systems[i].Node(i) }

// pageAddr is owner's j-th page of the region, pages 16..31; page p is
// homed at p%procs.
func (w *writeShare) pageAddr(owner, j int) repro.Addr {
	return repro.Addr((16 + j*writeShareProcs + owner) * w.pageSize)
}

// rounds runs count rounds of the pattern.
func (w *writeShare) rounds(tb testing.TB, count int) {
	onEveryNode(tb, writeShareProcs, w.node, func(i int, n *repro.Node) error {
		for k := 0; k < count; k++ {
			for j := 0; j < writeSharePages; j++ {
				if err := n.WriteUint64(w.pageAddr(i, j), uint64(k)+2); err != nil {
					return err
				}
			}
			if err := repro.Locked(n, w.lock, func() error {
				_, err := w.counter.Add(n, 1)
				return err
			}); err != nil {
				return err
			}
			if err := n.Barrier(0); err != nil {
				return err
			}
		}
		return nil
	})
}

// netStats sums the cluster's interconnect counters.
func (w *writeShare) netStats() repro.TransportStats {
	var st repro.TransportStats
	for _, sys := range w.systems {
		st.Add(sys.NetStats())
	}
	return st
}

// BenchmarkRuntimeWriteShareTCP runs the write-share pattern (see
// writeShare) under every protocol over loopback TCP and reports the
// messages and bytes of a critical section. Under the eager protocols a
// release sends each peer one merged message; under the lazy ones a round
// asks each creator once. The counts include the warm-up round.
func BenchmarkRuntimeWriteShareTCP(b *testing.B) {
	noPoison(b)
	for _, m := range repro.DSMModes {
		b.Run(m.String(), func(b *testing.B) {
			w := newWriteShare(b, m, 1024)
			b.ResetTimer()
			w.rounds(b, b.N)
			b.StopTimer()
			st := w.netStats()
			crit := float64(writeShareProcs) * float64(b.N)
			b.ReportMetric(float64(st.Messages)/crit, "msgs/critsec")
			b.ReportMetric(float64(st.Bytes)/crit, "B/critsec")
		})
	}
}

// --- substrate micro-benches ---

func BenchmarkDiffCreate(b *testing.B) {
	noPoison(b)
	data := make([]byte, 4096)
	tw := page.NewTwin(data)
	for i := 0; i < 4096; i += 64 {
		data[i] = 0xff
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := page.MakeDiff(tw, data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDiffApply(b *testing.B) {
	noPoison(b)
	data := make([]byte, 4096)
	tw := page.NewTwin(data)
	for i := 0; i < 4096; i += 64 {
		data[i] = 0xff
	}
	d, err := page.MakeDiff(tw, data)
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.Apply(dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVectorClockMax(b *testing.B) {
	noPoison(b)
	a := vc.New(16)
	c := vc.New(16)
	for i := range c {
		c[i] = int32(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Max(c)
	}
}

func BenchmarkRangeSetAdd(b *testing.B) {
	noPoison(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var s page.RangeSet
		for k := 0; k < 32; k++ {
			s.Add((k*37)%4000, 16)
		}
	}
}

func BenchmarkOutstandingLookup(b *testing.B) {
	noPoison(b)
	log := core.NewLog(16)
	clock := vc.New(16)
	for p := 0; p < 16; p++ {
		for k := int32(0); k < 64; k++ {
			clock[p] = k
			var mods page.RangeSet
			mods.Add(int(k)*8, 8)
			log.Append(core.Interval{
				ID:    core.IntervalID{Proc: mem.ProcID(p), Index: k},
				VC:    clock,
				Pages: []mem.PageID{mem.PageID(k % 8)},
				Mods:  []*page.RangeSet{&mods},
			})
		}
	}
	applied := vc.New(16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		log.Outstanding(nil, 3, applied, clock, 0)
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	noPoison(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog, err := workload.New("water", 8, 0.1, int64(i))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := workload.Generate(prog); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayLI times the simulator's LI replay of a 16-processor
// water trace.
func BenchmarkReplayLI(b *testing.B) {
	noPoison(b)
	tr, err := workload.GenerateCached("water", 16, 0.25, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(tr, "LI", 2048, proto.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(tr.Events)))
}
