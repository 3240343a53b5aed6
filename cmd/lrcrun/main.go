// Command lrcrun runs programs on the live DSM runtime (the
// implementation the paper's §7 promises) under any of the five
// protocols of the paper's evaluation — LI, LU, EI, EU or SC — and
// reports the interconnect traffic.
//
// It runs either a small demonstration pattern (-demo) or one of the five
// SPLASH-structure workloads (-app). Workloads execute on genuinely
// concurrent nodes; the final shared-memory image is checked against the
// lockstep sequential reference, and the runtime's interconnect totals are
// printed next to the trace simulator's counts for the same program at the
// same page size and protocol.
//
// The interconnect is selected with -transport: "simnet" (default) runs
// the whole cluster over the simulated in-process network, "tcp" attaches
// this process to a real TCP cluster as one node — every participating
// process runs the same command with the same -peers list and its own
// -self index, and the process hosting node 0 verifies and prints the
// result.
//
// Examples:
//
//	lrcrun -demo counter -mode LU -procs 8
//	lrcrun -app water -mode LI -procs 8
//	lrcrun -demo stencil -procs 4 -gc 2
//	lrcrun -app locusroute -mode EU -procs 8 -scale 0.25
//	lrcrun -app mp3d -mode SC
//	lrcrun -app all -pagesize 1024
//
//	# a 3-process TCP cluster on one machine (run each in its own shell):
//	lrcrun -transport tcp -peers :7070,:7071,:7072 -self 0 -app water
//	lrcrun -transport tcp -peers :7070,:7071,:7072 -self 1 -app water
//	lrcrun -transport tcp -peers :7070,:7071,:7072 -self 2 -app water
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/dsm"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/sim"
	"repro/internal/transport/fault"
	"repro/internal/wire"
	"repro/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "lrcrun:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("lrcrun", flag.ContinueOnError)
	fs.SetOutput(out)
	var (
		demo       = fs.String("demo", "", "demo program: counter, stencil, queue")
		app        = fs.String("app", "", "workload to run on the runtime ("+strings.Join(workload.Names, ", ")+") or \"all\"; traffic is printed next to the simulator's for the same trace, whose bytes are the paper's fixed-width accounting — the live codec is compact and may undercut it")
		mode       = fs.String("mode", "LI", "protocol mode: "+dsm.ModeNames())
		statsJSON  = fs.Bool("statsjson", false, "emit the run's dsm.Stats (per-kind traffic) as JSON")
		procs      = fs.Int("procs", 8, "number of processors, one DSM node each (with -transport tcp, fixed to the peer count)")
		iters      = fs.Int("iters", 100, "iterations per node (demos)")
		scale      = fs.Float64("scale", 0.1, "workload scale factor (-app)")
		seed       = fs.Int64("seed", 42, "workload random seed (-app)")
		pageSize   = fs.Int("pagesize", 4096, "consistency page size in bytes")
		gc         = fs.Int("gc", 0, "garbage-collect every N barriers (0 = off)")
		transport  = fs.String("transport", "simnet", "interconnect: simnet (in-process) or tcp (cross-process; requires -peers)")
		peers      = fs.String("peers", "", "comma-separated host:port of every node, in id order (-transport tcp)")
		self       = fs.Int("self", 0, "this process's index into -peers (-transport tcp)")
		metrics    = fs.String("metrics", "", "serve live observability on this address (host:port): /metrics Prometheus text, /statusz JSON, /trace Chrome JSON, /debug/pprof/ profiles")
		tracePath  = fs.String("trace", "", "dump the protocol event ring as Chrome trace_event JSON to this file on exit (success or failure)")
		faultSpec  = fs.String("fault", "", "inject transport faults, e.g. drop=0.01,dup=0.005,delay=2ms,jitter=1ms,partition=2x2,kill=3@5000,seed=7")
		rpcTimeout = fs.Duration("rpctimeout", 0, "fail any remote wait (rpc response, master rendezvous) after this long instead of hanging; the first timeout stops its node, whose later calls fail with it (0 = wait forever)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	m, err := dsm.ParseMode(*mode)
	if err != nil {
		return err
	}

	procsSet := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "procs" {
			procsSet = true
		}
	})

	// Validate the transport selection before any sockets open, so flag
	// mistakes fail fast with a usable message.
	var peerList []string
	switch *transport {
	case "simnet":
		if *peers != "" {
			return fmt.Errorf("-peers requires -transport tcp")
		}
	case "tcp":
		peerList, err = parsePeers(*peers)
		if err != nil {
			return err
		}
		if *self < 0 || *self >= len(peerList) {
			return fmt.Errorf("-self %d outside peer list [0,%d)", *self, len(peerList))
		}
		if procsSet && *procs != len(peerList) {
			return fmt.Errorf("-procs %d conflicts with the %d-entry peer list", *procs, len(peerList))
		}
		*procs = len(peerList)
	default:
		return fmt.Errorf("unknown transport %q (supported: simnet, tcp)", *transport)
	}

	ob := &obsCfg{rpcTimeout: *rpcTimeout, tracePath: *tracePath}
	if *rpcTimeout < 0 {
		return fmt.Errorf("-rpctimeout %v must not be negative", *rpcTimeout)
	}
	if *faultSpec != "" {
		plan, err := fault.Parse(*faultSpec)
		if err != nil {
			return err
		}
		ob.plan = &plan
	}
	if *metrics != "" {
		ob.registry = obs.NewRegistry()
	}
	if *metrics != "" || *tracePath != "" {
		ob.tracer = obs.NewTracer(traceRingCap)
	}
	if *metrics != "" {
		srv, err := obs.StartServer(*metrics, obs.ServerConfig{
			Registry: ob.registry,
			Status:   ob.statusz,
			Tracer:   ob.tracer,
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(out, "observability: serving /metrics /statusz /trace on http://%s\n", srv.Addr())
	}
	if *tracePath != "" {
		// Dump the event ring whether the run succeeds or dies — a trace
		// of the ride into a failure is the point of having one.
		defer func() {
			if err := ob.dumpTrace(); err != nil {
				fmt.Fprintln(os.Stderr, "lrcrun: trace dump:", err)
			}
		}()
	}

	// mkTransport opens this process's endpoint; called once the program
	// to run is validated (nil transport selects the in-process network).
	// Fault injection needs a concrete transport to decorate, so with
	// -fault the in-process network is built explicitly.
	mkTransport := func() (repro.Transport, error) {
		var tr repro.Transport
		if peerList == nil {
			if ob.plan == nil {
				return nil, nil
			}
			tr = repro.NewSimNetTransport(*procs)
		} else {
			t, err := repro.NewTCPTransport(*self, peerList)
			if err != nil {
				return nil, err
			}
			tr = t
		}
		if ob.plan != nil {
			tr = fault.Wrap(tr, *ob.plan)
		}
		return tr, nil
	}

	switch {
	case *app != "" && *demo != "":
		return fmt.Errorf("-demo and -app are mutually exclusive")
	case *app == "all":
		if peerList != nil {
			return fmt.Errorf("-app all runs one cluster per workload; start each -app separately under -transport tcp")
		}
		for _, name := range workload.Names {
			if err := runWorkload(out, name, *procs, *scale, *seed, m, *pageSize, *gc, *statsJSON, ob, mkTransport); err != nil {
				return err
			}
		}
		return nil
	case *app != "":
		return runWorkload(out, *app, *procs, *scale, *seed, m, *pageSize, *gc, *statsJSON, ob, mkTransport)
	default:
		if *demo == "" {
			*demo = "counter"
		}
		return runDemo(out, *demo, m, *procs, *iters, *pageSize, *gc, *statsJSON, ob, mkTransport)
	}
}

// traceRingCap bounds the protocol event ring: newest events win.
const traceRingCap = 1 << 16

// obsCfg carries the observability and fault-injection flags: the live
// metrics registry and tracer handed to every system the run builds, the
// transport fault plan, and the remote-wait timeout.
type obsCfg struct {
	registry   *obs.Registry
	tracer     *obs.Tracer
	plan       *fault.Plan
	rpcTimeout time.Duration
	tracePath  string
	// status holds a func() []dsm.Status once the run's systems exist;
	// /statusz serves a placeholder until then.
	status atomic.Value
}

// onSystems is the RuntimeConfig.OnSystems hook: once the run's systems
// are built, /statusz snapshots them live.
func (ob *obsCfg) onSystems(systems []*dsm.System) {
	ob.status.Store(func() []dsm.Status {
		sts := make([]dsm.Status, len(systems))
		for i, s := range systems {
			sts[i] = s.Status()
		}
		return sts
	})
}

// statusz is the /statusz payload: the systems' live snapshots, or a
// placeholder before the run has built them.
func (ob *obsCfg) statusz() any {
	if f, ok := ob.status.Load().(func() []dsm.Status); ok {
		return f()
	}
	return map[string]string{"state": "starting"}
}

// dumpTrace writes the event ring as Chrome trace_event JSON to the
// -trace path.
func (ob *obsCfg) dumpTrace() error {
	if ob.tracePath == "" || ob.tracer == nil {
		return nil
	}
	f, err := os.Create(ob.tracePath)
	if err != nil {
		return err
	}
	if err := ob.tracer.WriteChromeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// statsReport is the -statsjson output: the run's parameters, every local
// node's dsm.Stats with its per-kind traffic breakdown, and the
// interconnect totals. NodeKinds repeats each node's KindMsgs and
// KindBytes keyed by wire.Kind name, in Node's order: the arrays are
// indexed by the kinds' numbers.
type statsReport struct {
	Program   string                   `json:"program"`
	Mode      string                   `json:"mode"`
	Procs     int                      `json:"procs"`
	Nodes     int                      `json:"nodes"`
	Net       dsm.TransportStats       `json:"net"`
	Node      []dsm.Stats              `json:"nodeStats"`
	NodeKinds []map[string]kindTraffic `json:"nodeKinds"`
}

// kindTraffic is one node's outbound messages and bytes of one wire kind.
type kindTraffic struct {
	Msgs  int64 `json:"msgs"`
	Bytes int64 `json:"bytes"`
}

func emitStatsJSON(out io.Writer, rep statsReport) error {
	rep.NodeKinds = make([]map[string]kindTraffic, len(rep.Node))
	for i, ns := range rep.Node {
		rep.NodeKinds[i] = make(map[string]kindTraffic)
		for k := range ns.KindMsgs {
			if kind := wire.Kind(k); kind.Known() {
				rep.NodeKinds[i][kind.String()] = kindTraffic{ns.KindMsgs[k], ns.KindBytes[k]}
			}
		}
	}
	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", enc)
	return err
}

// parsePeers splits and validates a -peers list.
func parsePeers(s string) ([]string, error) {
	if s == "" {
		return nil, fmt.Errorf("-transport tcp requires -peers host:port,host:port,...")
	}
	list := strings.Split(s, ",")
	for i, p := range list {
		list[i] = strings.TrimSpace(p)
		if list[i] == "" {
			return nil, fmt.Errorf("bad peer list: empty address at position %d", i)
		}
	}
	return list, nil
}

// runWorkload executes a SPLASH workload on the live runtime, verifies its
// final memory image against the lockstep reference, and reports the
// interconnect totals next to the simulator's counts for the same trace.
// Under TCP only the process hosting node 0 holds the image; the others
// report their own traffic.
func runWorkload(out io.Writer, name string, procs int, scale float64, seed int64, m dsm.Mode, pageSize, gc int, statsJSON bool, ob *obsCfg, mkTransport func() (repro.Transport, error)) error {
	prog, err := workload.New(name, procs, scale, seed)
	if err != nil {
		return err
	}
	tr, err := mkTransport()
	if err != nil {
		return err
	}
	rc := workload.RuntimeConfig{
		PageSize: pageSize, Mode: m, GCEveryBarriers: gc,
		RPCTimeout: ob.rpcTimeout, Metrics: ob.registry, Tracer: ob.tracer,
		OnSystems: ob.onSystems,
	}
	if tr != nil {
		rc.Transports = []repro.Transport{tr}
	}
	res, err := workload.RunOnRuntime(prog, rc)
	if err != nil {
		return err
	}
	report := statsReport{
		Program: name, Mode: m.String(),
		Procs: procs, Nodes: procs, Net: res.Net, Node: res.Nodes,
	}

	if res.Image == nil {
		// A TCP process hosting only non-zero nodes: node 0's process
		// verifies the image.
		fmt.Fprintf(out, "== %s: %d procs, mode %s, page %d: this process's nodes done ==\n", name, procs, m, pageSize)
		fmt.Fprintf(out, "%-28s%12d%14d   (this process's sends: msgs, wire bytes)\n",
			"runtime", res.Net.Messages, res.Net.Bytes)
		if statsJSON {
			return emitStatsJSON(out, report)
		}
		return nil
	}
	ref, err := workload.ExecuteCached(name, procs, scale, seed)
	if err != nil {
		return err
	}
	st, err := sim.Run(ref.Trace, m.String(), pageSize, proto.Options{})
	if err != nil {
		return err
	}
	c := ref.Trace.Count()
	fmt.Fprintf(out, "== %s: %d procs, scale %g, mode %s, page %d ==\n", name, procs, scale, m, pageSize)
	fmt.Fprintf(out, "trace: %d events (%d reads, %d writes, %d acquires, %d barrier arrivals)\n",
		len(ref.Trace.Events), c.Reads, c.Writes, c.Acquires, c.BarrierArrivals)
	diverged := !bytes.Equal(res.Image, ref.Image)
	if diverged {
		fmt.Fprintf(out, "image: %d bytes, DIVERGES from sequential reference (consistency violation!)\n", len(res.Image))
	} else {
		fmt.Fprintf(out, "image: %d bytes, matches sequential reference\n", len(res.Image))
	}
	// Traffic table: live transport counters next to the simulator's
	// per-message model, normalized per critical section.
	crit := int64(c.Acquires)
	perCrit := func(n int64) string {
		if crit == 0 {
			return "-"
		}
		return fmt.Sprintf("%.1f", float64(n)/float64(crit))
	}
	fmt.Fprintf(out, "%-28s%12s%14s%14s%14s\n",
		"", "msgs", "wire bytes", "msgs/critsec", "wireB/critsec")
	fmt.Fprintf(out, "%-28s%12d%14d%14s%14s\n",
		"runtime", res.Net.Messages, res.Net.Bytes, perCrit(res.Net.Messages), perCrit(res.Net.Bytes))
	fmt.Fprintf(out, "%-28s%12d%14d%14s%14s   (trace replay, %s)\n",
		"simulator", st.TotalMessages(), st.TotalBytes(), perCrit(st.TotalMessages()), perCrit(st.TotalBytes()), m)
	var misses, diffs, updates, intervals, invals, moves int64
	var created, deferred, cacheHits, flattened, trimmed, aggregated, twinBytes, twinPeak int64
	var diffReqs, fallbacks, kept, forwards int64
	for _, ns := range res.Nodes {
		misses += ns.AccessMisses
		diffs += ns.DiffsApplied
		updates += ns.UpdatesReceived
		intervals += ns.IntervalsCreated
		invals += ns.InvalsReceived
		moves += ns.OwnershipMoves
		created += ns.DiffsCreated
		deferred += ns.DiffsDeferred
		cacheHits += ns.DiffCacheHits
		flattened += ns.DiffsFlattened
		trimmed += ns.DiffsTrimmed
		aggregated += ns.PagesAggregated
		twinBytes += ns.TwinBytesLive
		twinPeak = max(twinPeak, ns.TwinBytesPeak)
		diffReqs += ns.KindMsgs[wire.KDiffReq]
		fallbacks += ns.DiffFallbacks
		kept += ns.KeptPages
		forwards += ns.PageForwards
	}
	reqsPerMiss := "-"
	if misses > 0 {
		reqsPerMiss = fmt.Sprintf("%.2f", float64(diffReqs)/float64(misses))
	}
	fmt.Fprintf(out, "nodes: %d access misses, %d diffs applied, %d updates, %d intervals, %d invalidations, %d ownership moves\n",
		misses, diffs, updates, intervals, invals, moves)
	fmt.Fprintf(out, "diff plane: %d created (%d trimmed by the twin budget), %d deferred, %d cache hits, %d flattened away, %d pages aggregated into faults, %s diff requests per access miss, %d fallbacks to a creator, %d pages held by a keeper for their home (%d page requests forwarded), twin bytes: %d live at exit, %d peak on one node\n\n",
		created, trimmed, deferred, cacheHits, flattened, aggregated, reqsPerMiss, fallbacks, kept, forwards, twinBytes, twinPeak)
	if statsJSON {
		if err := emitStatsJSON(out, report); err != nil {
			return err
		}
	}
	if diverged {
		return fmt.Errorf("%s: runtime image diverges from sequential reference", name)
	}
	return nil
}

func runDemo(out io.Writer, demo string, m dsm.Mode, procs, iters, pageSize, gc int, statsJSON bool, ob *obsCfg, mkTransport func() (repro.Transport, error)) error {
	var body func(out io.Writer, d *repro.DSM, iters int) error
	switch demo {
	case "counter":
		body = runCounter
	case "stencil":
		body = runStencil
	case "queue":
		body = runQueue
	default:
		return fmt.Errorf("unknown demo %q", demo)
	}
	const spaceSize = 1 << 20
	tr, err := mkTransport()
	if err != nil {
		return err
	}
	d, err := repro.NewDSM(repro.DSMConfig{
		Procs:           procs,
		SpaceSize:       spaceSize,
		PageSize:        pageSize,
		Mode:            m,
		GCEveryBarriers: gc,
		RPCTimeout:      ob.rpcTimeout,
		Metrics:         ob.registry,
		Tracer:          ob.tracer,
		Transport:       tr,
	})
	if err != nil {
		return err
	}
	defer d.Close()
	ob.onSystems([]*dsm.System{d})

	if err := body(out, d, iters); err != nil {
		return err
	}
	st := d.NetStats()
	fmt.Fprintf(out, "demo=%s mode=%s procs=%d iters=%d\n", demo, m, procs, iters)
	fmt.Fprintf(out, "interconnect: %d messages, %d bytes\n", st.Messages, st.Bytes)
	report := statsReport{
		Program: "demo:" + demo, Mode: m.String(),
		Procs: procs, Nodes: procs, Net: st,
	}
	for _, n := range d.Local() {
		ns := n.Stats()
		report.Node = append(report.Node, ns)
		fmt.Fprintf(out, "  node %d: misses %d (cold %d), diffs applied %d, intervals %d, gc runs %d, invals %d, updates %d\n",
			n.ID(), ns.AccessMisses, ns.ColdMisses, ns.DiffsApplied, ns.IntervalsCreated, ns.GCRuns, ns.InvalsReceived, ns.UpdatesReceived)
	}
	if statsJSON {
		return emitStatsJSON(out, report)
	}
	return nil
}

// demoSchema is the shared-state layout the demos allocate through the
// typed façade; every process of a TCP cluster builds it identically.
type demoSchema struct {
	arena *repro.Arena
	done  repro.Barrier // bodies finished; node 0 may verify
	fin   repro.Barrier // verification served; nodes may exit
}

func newDemoSchema(d *repro.DSM) *demoSchema {
	a := repro.NewArena(d.Layout())
	return &demoSchema{arena: a, done: a.NewBarrier(), fin: a.NewBarrier()}
}

// runCounter is the migratory-data pattern of the paper's Figures 3 and 4:
// every processor repeatedly locks, increments, unlocks one shared
// counter.
func runCounter(out io.Writer, d *repro.DSM, iters int) error {
	s := newDemoSchema(d)
	counter := repro.NewVar[uint64](s.arena)
	lock := s.arena.NewLock()
	procs := d.NumProcs()
	return parallel(d, func(n *repro.Node, id int) error {
		for k := 0; k < iters; k++ {
			if err := repro.Locked(n, lock, func() error {
				_, err := counter.Add(n, 1)
				return err
			}); err != nil {
				return err
			}
		}
		if err := s.done.Wait(n); err != nil {
			return err
		}
		if id == 0 {
			var v uint64
			if err := repro.Locked(n, lock, func() error {
				var err error
				v, err = counter.Load(n)
				return err
			}); err != nil {
				return err
			}
			want := uint64(procs * iters)
			if v != want {
				return fmt.Errorf("counter = %d, want %d (consistency violation!)", v, want)
			}
			fmt.Fprintf(out, "counter reached %d as required\n", v)
		}
		return s.fin.Wait(n)
	})
}

// runStencil is a barrier-per-step grid relaxation (the barrier-heavy
// category of §5.3): each node owns a band of a grid, reads its
// neighbors' boundary rows, and synchronizes with barriers.
func runStencil(out io.Writer, d *repro.DSM, iters int) error {
	const rowBytes = 512
	s := newDemoSchema(d)
	procs := d.NumProcs()
	step := s.arena.NewBarrier()
	// One boundary row per processor, padded a band apart like the
	// original grid layout, so neighbors share pages only at band
	// boundaries.
	rows := repro.NewBytesArray(s.arena, procs, rowBytes, 4*rowBytes)
	return parallel(d, func(n *repro.Node, id int) error {
		row := make([]byte, rowBytes)
		for k := 0; k < iters; k++ {
			// Read the neighbor band's boundary row, then rewrite ours.
			nb := (id + 1) % procs
			if err := rows.At(nb).Load(n, row); err != nil {
				return err
			}
			for i := range row {
				row[i] = byte(int(row[i]) + k + id)
			}
			if err := rows.At(id).Store(n, row); err != nil {
				return err
			}
			if err := step.Wait(n); err != nil {
				return err
			}
		}
		if err := s.done.Wait(n); err != nil {
			return err
		}
		return s.fin.Wait(n)
	})
}

// runQueue is the migratory task-queue pattern of LocusRoute/Cholesky: a
// lock-protected shared queue head with per-task data updates.
func runQueue(out io.Writer, d *repro.DSM, iters int) error {
	s := newDemoSchema(d)
	head := repro.NewVar[uint64](s.arena)
	lock := s.arena.NewLock()
	s.arena.PageAlign()
	total := d.NumProcs() * iters
	tasks := repro.NewArray[uint64](s.arena, total)
	err := parallel(d, func(n *repro.Node, id int) error {
		for {
			var task uint64
			claimed := false
			if err := repro.Locked(n, lock, func() error {
				v, err := head.Load(n)
				if err != nil {
					return err
				}
				if v >= uint64(total) {
					return nil
				}
				task, claimed = v, true
				return head.Store(n, v+1)
			}); err != nil {
				return err
			}
			if !claimed {
				break
			}
			// "Process" the task: update its slot.
			if err := tasks.At(int(task)).Store(n, task*task); err != nil {
				return err
			}
		}
		if err := s.done.Wait(n); err != nil {
			return err
		}
		if id == 0 {
			fmt.Fprintf(out, "queue drained %d tasks\n", total)
		}
		return s.fin.Wait(n)
	})
	return err
}

// parallel drives f with one goroutine on every node this process hosts
// (all nodes over the in-process network, this process's one under TCP),
// handing it the node's id as the processor id.
func parallel(d *repro.DSM, f func(n *repro.Node, id int) error) error {
	local := d.Local()
	var wg sync.WaitGroup
	errs := make([]error, len(local))
	for i, n := range local {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = f(n, int(n.ID()))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
