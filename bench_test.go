package repro_test

import (
	"fmt"
	"sync"
	"testing"

	"repro"
	"repro/internal/core"
	"repro/internal/dsm"
	"repro/internal/mem"
	"repro/internal/page"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vc"
	"repro/internal/workload"
)

// Benchmark configuration: each figure bench regenerates its paper figure
// at this scale (EXPERIMENTS.md records the series; shapes are
// scale-invariant, see TestPaperShapeClaims).
const (
	benchProcs = 16
	benchScale = 0.25
	benchSeed  = 42
)

func benchTrace(b *testing.B, app string) *trace.Trace {
	b.Helper()
	tr, err := workload.GenerateCached(app, benchProcs, benchScale, benchSeed)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

// benchFigure regenerates one figure: a full four-protocol page-size sweep
// over one workload, reporting the per-protocol totals at the extreme page
// sizes as custom metrics (the full series is printed by cmd/lrcsim).
func benchFigure(b *testing.B, app, metric string) {
	tr := benchTrace(b, app)
	var results []sim.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		results, err = sim.Sweep(tr, sim.ProtocolNames, mem.PaperPageSizes, proto.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for _, p := range sim.ProtocolNames {
		for _, ps := range []int{8192, 512} {
			series, err := sim.Series(results, p, []int{ps}, metric)
			if err != nil {
				b.Fatal(err)
			}
			v := float64(series[0])
			unit := fmt.Sprintf("%s@%d_msgs", p, ps)
			if metric == "data" {
				v /= 1024
				unit = fmt.Sprintf("%s@%d_kB", p, ps)
			}
			b.ReportMetric(v, unit)
		}
	}
}

// Figures 5 and 6: LocusRoute messages and data vs page size.
func BenchmarkFig05LocusRouteMessages(b *testing.B) { benchFigure(b, "locusroute", "messages") }
func BenchmarkFig06LocusRouteData(b *testing.B)     { benchFigure(b, "locusroute", "data") }

// Figures 7 and 8: Cholesky.
func BenchmarkFig07CholeskyMessages(b *testing.B) { benchFigure(b, "cholesky", "messages") }
func BenchmarkFig08CholeskyData(b *testing.B)     { benchFigure(b, "cholesky", "data") }

// Figures 9 and 10: MP3D.
func BenchmarkFig09MP3DMessages(b *testing.B) { benchFigure(b, "mp3d", "messages") }
func BenchmarkFig10MP3DData(b *testing.B)     { benchFigure(b, "mp3d", "data") }

// Figures 11 and 12: Water.
func BenchmarkFig11WaterMessages(b *testing.B) { benchFigure(b, "water", "messages") }
func BenchmarkFig12WaterData(b *testing.B)     { benchFigure(b, "water", "data") }

// Figures 13 and 14: Pthor.
func BenchmarkFig13PthorMessages(b *testing.B) { benchFigure(b, "pthor", "messages") }
func BenchmarkFig14PthorData(b *testing.B)     { benchFigure(b, "pthor", "data") }

// BenchmarkTable1 measures the per-operation message costs of Table 1 by
// replaying micro-traces (the exact-cost assertions live in
// internal/sim's Table 1 tests; this bench reports the measured costs).
func BenchmarkTable1(b *testing.B) {
	lockTransfer := &trace.Trace{
		NumProcs: 4, SpaceSize: 16384, NumLocks: 4, NumBarriers: 1, Name: "t1",
		Events: []trace.Event{
			{Kind: trace.Acquire, Proc: 0, Sync: 2},
			{Kind: trace.Release, Proc: 0, Sync: 2},
			{Kind: trace.Acquire, Proc: 3, Sync: 2},
			{Kind: trace.Release, Proc: 3, Sync: 2},
		},
	}
	barrier := &trace.Trace{
		NumProcs: 4, SpaceSize: 16384, NumLocks: 4, NumBarriers: 1, Name: "t1b",
		Events: []trace.Event{
			{Kind: trace.Barrier, Proc: 0, Sync: 0},
			{Kind: trace.Barrier, Proc: 1, Sync: 0},
			{Kind: trace.Barrier, Proc: 2, Sync: 0},
			{Kind: trace.Barrier, Proc: 3, Sync: 0},
		},
	}
	b.ResetTimer()
	var lockMsgs, barMsgs int64
	for i := 0; i < b.N; i++ {
		for _, p := range sim.ProtocolNames {
			st, err := sim.Run(lockTransfer, p, 1024, proto.Options{})
			if err != nil {
				b.Fatal(err)
			}
			lockMsgs = st.TotalMessages()
			st, err = sim.Run(barrier, p, 1024, proto.Options{})
			if err != nil {
				b.Fatal(err)
			}
			barMsgs = st.TotalMessages()
		}
	}
	b.ReportMetric(float64(lockMsgs), "lock_msgs")
	b.ReportMetric(float64(barMsgs), "barrier_msgs")
}

// --- ablation benches: quantify the design choices of §4 ---

func benchAblation(b *testing.B, opts proto.Options) {
	tr := benchTrace(b, "locusroute")
	var base, ablated *proto.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		base, err = sim.Run(tr, "LI", 2048, proto.Options{})
		if err != nil {
			b.Fatal(err)
		}
		ablated, err = sim.Run(tr, "LI", 2048, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(base.TotalMessages()), "base_msgs")
	b.ReportMetric(float64(ablated.TotalMessages()), "ablated_msgs")
	b.ReportMetric(float64(base.TotalBytes())/1024, "base_kB")
	b.ReportMetric(float64(ablated.TotalBytes())/1024, "ablated_kB")
}

// BenchmarkAblationNoPiggyback quantifies carrying write notices on lock
// grants (§4.2, Figure 4) vs separate notice messages.
func BenchmarkAblationNoPiggyback(b *testing.B) {
	benchAblation(b, proto.Options{NoPiggyback: true})
}

// BenchmarkAblationNoDiffs quantifies diffs (§4.3) vs whole-page shipping.
func BenchmarkAblationNoDiffs(b *testing.B) {
	benchAblation(b, proto.Options{NoDiffs: true})
}

// BenchmarkAblationExclusiveWriter quantifies the multiple-writer protocol
// (§4.3.1) vs DASH-style exclusive writers under false sharing.
func BenchmarkAblationExclusiveWriter(b *testing.B) {
	benchAblation(b, proto.Options{ExclusiveWriter: true})
}

// BenchmarkAblationIvy compares the SC single-writer baseline (§6 related
// work) against LI on a migratory workload.
func BenchmarkAblationIvy(b *testing.B) {
	tr := benchTrace(b, "locusroute")
	var li, sc *proto.Stats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		li, err = sim.Run(tr, "LI", 2048, proto.Options{})
		if err != nil {
			b.Fatal(err)
		}
		sc, err = sim.Run(tr, "SC", 2048, proto.Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(li.TotalMessages()), "LI_msgs")
	b.ReportMetric(float64(sc.TotalMessages()), "SC_msgs")
}

// --- live runtime benches ---

// BenchmarkRuntimeMigratoryCounter drives the Figure 3/4 pattern through
// the live DSM under every protocol engine, reporting interconnect
// traffic per critical section — the live counterpart of the paper's
// migratory-data comparison.
func BenchmarkRuntimeMigratoryCounter(b *testing.B) {
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
// concurrent program body, closing barrier, image read-out — under every
// protocol engine and node shape (gpn=1: four nodes of one goroutine;
// gpn=2: two logical processors multiplexed onto each of two nodes;
// gpn=4: eight logical processors on two oversubscribed nodes — never
// fewer than two nodes, a single one has no interconnect to measure),
// reporting interconnect traffic per run.
func benchRuntimeWorkload(b *testing.B, app string) {
	for _, mode := range dsm.Modes {
		for _, gpn := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/gpn=%d", mode, gpn), func(b *testing.B) {
				prog, err := workload.New(app, max(4, 2*gpn), 0.05, benchSeed)
				if err != nil {
					b.Fatal(err)
				}
				var res *workload.RuntimeResult
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					res, err = workload.RunOnRuntime(prog, workload.RuntimeConfig{
						PageSize: 1024, Mode: mode, GoroutinesPerNode: gpn,
					})
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

// BenchmarkPlacementPolicies emits the msgs/critsec series of both
// placement policies, per protocol, on the writer-dominant partition
// workload (see internal/workload/partition.go) as benchmark metrics.
func BenchmarkPlacementPolicies(b *testing.B) {
	const name = "partition"
	for _, m := range repro.DSMModes {
		for _, placement := range []string{"block", "first-touch"} {
			b.Run(name+"/"+m.String()+"/"+placement, func(b *testing.B) {
				var v float64
				for i := 0; i < b.N; i++ {
					res, ref := runVerified(b, name, repro.RuntimeConfig{PageSize: 1024, Mode: m, Placement: placement})
					v = float64(res.Net.Messages) / float64(ref.Trace.Count().Acquires)
				}
				b.ReportMetric(v, "msgs/critsec")
			})
		}
	}
}

func BenchmarkRuntimeLocusRoute(b *testing.B) { benchRuntimeWorkload(b, "locusroute") }
func BenchmarkRuntimeCholesky(b *testing.B)   { benchRuntimeWorkload(b, "cholesky") }
func BenchmarkRuntimeWater(b *testing.B)      { benchRuntimeWorkload(b, "water") }
func BenchmarkRuntimePthor(b *testing.B)      { benchRuntimeWorkload(b, "pthor") }

// BenchmarkRuntimeBarrier measures a live all-write-then-barrier round.
func BenchmarkRuntimeBarrier(b *testing.B) {
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

// BenchmarkRuntimeBatchedBarrierTCP is the outbox acceptance bench: the
// write-share pattern (see writeShare) under every protocol. Under the
// eager protocols what one peer is sent in a release's burst shares
// frames, so frames/critsec sits well below msgs/critsec (TestRuntimeGate's
// frames row holds EU's); under the lazy ones a round already asks each
// creator once. The counts include the warm-up round.
func BenchmarkRuntimeBatchedBarrierTCP(b *testing.B) {
	for _, m := range repro.DSMModes {
		b.Run(m.String(), func(b *testing.B) {
			w := newWriteShare(b, m, 1024)
			b.ResetTimer()
			w.rounds(b, b.N)
			b.StopTimer()
			st := w.netStats()
			crit := float64(writeShareProcs) * float64(b.N)
			b.ReportMetric(float64(st.Messages)/crit, "msgs/critsec")
			b.ReportMetric(float64(st.Frames)/crit, "frames/critsec")
			b.ReportMetric(float64(st.Bytes)/crit, "B/critsec")
		})
	}
}

// --- substrate micro-benches ---

func BenchmarkDiffCreate(b *testing.B) {
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
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var s page.RangeSet
		for k := 0; k < 32; k++ {
			s.Add((k*37)%4000, 16)
		}
	}
}

func BenchmarkOutstandingLookup(b *testing.B) {
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

func BenchmarkReplayLI(b *testing.B) {
	tr := benchTrace(b, "water")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(tr, "LI", 2048, proto.Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(tr.Events)))
}
