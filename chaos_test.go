package repro_test

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/dsm"
)

// chaos_test characterizes the runtime's behavior under injected
// transport faults: benign perturbations (delay, duplication) must not
// change the computed image, and fatal ones (fail-stop kill, partition)
// must surface as descriptive errors within Config.RPCTimeout instead of
// hanging the cluster. Delay runs as a fault column of internal/workload's
// differential matrix.

// lockIncrementOutcome is one faulted lock-increment run: the joined
// protocol/teardown error (nil for a clean run) and the recorded final
// counter when the run completed.
type lockIncrementOutcome struct {
	runErrs   []error
	closeErrs []error
}

func (o *lockIncrementOutcome) all() error {
	return errors.Join(errors.Join(o.runErrs...), errors.Join(o.closeErrs...))
}

// runLockIncrement drives the migratory-counter pattern — every
// processor loops lock; increment; unlock on one shared counter — across
// the given transports (one system per transport, or a single in-process
// system when trs is nil). It returns after every processor goroutine
// has finished and every system is closed; the caller bounds the wall
// clock with a watchdog. An error from the victim node (-1 for none) is
// recorded but does not wind the others down: the point of a fail-stop
// characterization is what the survivors experience, so they keep
// running until one of them hits the fault.
func runLockIncrement(procs, iters int, m repro.DSMMode, rpcTimeout time.Duration, trs []repro.Transport, victim int) *lockIncrementOutcome {
	out := &lockIncrementOutcome{}
	if trs == nil {
		trs = []repro.Transport{nil}
	}
	systems := make([]*repro.DSM, 0, len(trs))
	for i, tr := range trs {
		d, err := repro.NewDSM(repro.DSMConfig{
			Procs:      procs,
			SpaceSize:  1 << 16,
			PageSize:   1024,
			Mode:       m,
			RPCTimeout: rpcTimeout,
			Transport:  tr,
		})
		if err != nil {
			out.runErrs = append(out.runErrs, err)
			for _, rest := range trs[i+1:] {
				if rest != nil {
					rest.Close()
				}
			}
			break
		}
		systems = append(systems, d)
	}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		stop     = make(chan struct{})
		stopOnce sync.Once
	)
	for _, d := range systems {
		// Every system builds the identical schema: one counter, one lock.
		a := repro.NewArena(d.Layout())
		counter := repro.NewVar[uint64](a)
		lock := a.NewLock()
		for _, n := range d.Local() {
			wg.Add(1)
			go func(n *repro.Node) {
				defer wg.Done()
				for k := 0; k < iters; k++ {
					// A fault may only sever part of the cluster; the
					// unaffected processors wind down on the first
					// surfaced error instead of looping forever.
					select {
					case <-stop:
						return
					default:
					}
					if err := repro.Locked(n, lock, func() error {
						_, err := counter.Add(n, 1)
						return err
					}); err != nil {
						mu.Lock()
						out.runErrs = append(out.runErrs, err)
						mu.Unlock()
						if int(n.ID()) != victim {
							stopOnce.Do(func() { close(stop) })
						}
						return
					}
				}
			}(n)
		}
	}
	wg.Wait()
	for _, d := range systems {
		if err := d.Close(); err != nil {
			out.closeErrs = append(out.closeErrs, err)
		}
	}
	return out
}

// withWatchdog fails the test if fn does not complete within limit — the
// point of the fault characterization is that nothing hangs.
func withWatchdog(t *testing.T, limit time.Duration, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(limit):
		t.Fatalf("%s did not terminate within %v (protocol hang)", what, limit)
	}
}

// TestKillMidCriticalSectionAllModes is the fail-stop acceptance
// criterion: a loopback TCP cluster whose peer is killed mid-run — the
// lock loop guarantees it dies holding or requesting the critical
// section — must terminate within RPCTimeout for every protocol, with a
// descriptive error out of the run or System.Close, not a hang.
func TestKillMidCriticalSectionAllModes(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP kill matrix is not a -short test")
	}
	// The victim is node 0 — the manager of the demo lock (lockMgr is
	// id % procs) — so after the kill every survivor's next acquire
	// must confront the dead peer rather than route around it.
	const (
		procs      = 3
		victim     = 0
		rpcTimeout = 3 * time.Second
	)
	for _, m := range repro.DSMModes {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			trs, err := repro.NewLoopbackTCPCluster(procs)
			if err != nil {
				t.Fatal(err)
			}
			plan, err := repro.ParseFaultPlan(fmt.Sprintf("kill=%d@80,seed=1", victim))
			if err != nil {
				t.Fatal(err)
			}
			trs[victim] = repro.WrapFaultTransport(trs[victim], plan)
			var out *lockIncrementOutcome
			// iters is unreachable by design: the run can only end
			// through the kill. Generous slack over RPCTimeout covers
			// -race TCP scheduling, not protocol waiting.
			withWatchdog(t, rpcTimeout+30*time.Second, "kill run", func() {
				out = runLockIncrement(procs, 1<<30, m, rpcTimeout, trs, victim)
			})
			requireFaultError(t, m, out.all())
		})
	}
}

// runGCEpochSweep drives the lazy GC epoch under fire: every node writes
// a slab page of its own and joins a cluster barrier, and with
// GCEveryBarriers 1 every barrier validates a GC epoch and discards the
// one the barrier before validated; a fail-stop kill a few frames into
// the victim's run lands amid that traffic. The loop then goes on (locked counter increment, writes,
// barrier) so a later kill still surfaces. Unlike runLockIncrement's,
// its outcome holds the survivors' errors alone: the victim's own
// shutdown error proves nothing about how the others fared.
func runGCEpochSweep(procs int, m repro.DSMMode, rpcTimeout time.Duration, trs []repro.Transport, victim int) *lockIncrementOutcome {
	out := &lockIncrementOutcome{}
	systems := make([]*repro.DSM, 0, len(trs))
	for i, tr := range trs {
		d, err := repro.NewDSM(repro.DSMConfig{
			Procs:           procs,
			SpaceSize:       1 << 16,
			PageSize:        1024,
			Mode:            m,
			GCEveryBarriers: 1,
			RPCTimeout:      rpcTimeout,
			Transport:       tr,
		})
		if err != nil {
			out.runErrs = append(out.runErrs, err)
			for _, rest := range trs[i+1:] {
				if rest != nil {
					rest.Close()
				}
			}
			break
		}
		systems = append(systems, d)
	}
	var (
		mu       sync.Mutex
		wg       sync.WaitGroup
		stop     = make(chan struct{})
		stopOnce sync.Once
	)
	for _, d := range systems {
		a := repro.NewArena(d.Layout())
		counter := repro.NewVar[uint64](a)
		lock := a.NewLock()
		for _, n := range d.Local() {
			wg.Add(1)
			go func(n *repro.Node) {
				defer wg.Done()
				buf := make([]byte, 64)
				// Each node's slab page sits past the counter's page.
				slab := repro.Addr((1 + int(n.ID())) * 1024)
				body := func() error {
					for j := repro.Addr(0); j < 8; j++ {
						if err := n.Write(slab+64*j, buf); err != nil {
							return err
						}
					}
					if err := n.Barrier(0); err != nil {
						return err
					}
					return repro.Locked(n, lock, func() error {
						_, err := counter.Add(n, 1)
						return err
					})
				}
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := body(); err != nil {
						if int(n.ID()) != victim {
							mu.Lock()
							out.runErrs = append(out.runErrs, err)
							mu.Unlock()
							stopOnce.Do(func() { close(stop) })
						}
						return
					}
				}
			}(n)
		}
	}
	wg.Wait()
	for _, d := range systems {
		if err := d.Close(); err != nil && !d.IsLocal(victim) {
			out.closeErrs = append(out.closeErrs, err)
		}
	}
	return out
}

// TestKillMidGCEpochLazyModes: a loopback TCP cluster collecting at every
// barrier loses its barrier master during the first barrier's GC epoch —
// the kill points walk the victim's death through the barrier exits, the
// epoch's validation and the lock traffic that follows it. Under both
// lazy protocols the survivors must surface a descriptive error within
// RPCTimeout and never hang in collectRound or in an rpc to the dead
// master.
func TestKillMidGCEpochLazyModes(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP kill matrix is not a -short test")
	}
	// Node 0 is the victim: barrier master AND manager of the counter's
	// lock, so its death hits the epoch at its most central point.
	const (
		procs      = 3
		victim     = 0
		rpcTimeout = time.Second // every cell waits one out
	)
	for _, m := range []repro.DSMMode{repro.LazyInvalidate, repro.LazyUpdate} {
		m := m
		t.Run(m.String(), func(t *testing.T) {
			t.Parallel()
			// Homes are pg % 3: the victim writes page 1 (homed at node 1)
			// and homes page 3, which node 2 writes. Its frames 1-2 are slab
			// miss traffic (its page request, its answer to node 2's); 3-4
			// are its exits. The epoch then materializes every written page
			// at its home, and a node that has validated goes on to the
			// locked increment: frames 5-8 are, in schedule order, the
			// victim's diff request for page 3, its diff response to node 1
			// for page 1 and, as lock 0's manager, its grant to the first
			// requester and its forward of the second to it (now and then its
			// answer to a cold miss on the counter's page comes sooner). It
			// dies attempting the named frame: no exit out, one peer released
			// from the barrier, and at 7 and 8 a survivor stranded in an rpc
			// to it.
			for _, after := range []int{3, 4, 7, 8} {
				after := after
				t.Run(fmt.Sprintf("kill@%d", after), func(t *testing.T) {
					t.Parallel()
					trs, err := repro.NewLoopbackTCPCluster(procs)
					if err != nil {
						t.Fatal(err)
					}
					plan, err := repro.ParseFaultPlan(fmt.Sprintf("kill=%d@%d,seed=1", victim, after))
					if err != nil {
						t.Fatal(err)
					}
					trs[victim] = repro.WrapFaultTransport(trs[victim], plan)
					var out *lockIncrementOutcome
					withWatchdog(t, rpcTimeout+30*time.Second, "mid-GC-epoch kill run", func() {
						out = runGCEpochSweep(procs, m, rpcTimeout, trs, victim)
					})
					requireFaultError(t, m, out.all())
				})
			}
		})
	}
}

// requireFaultError fails unless a faulted run's error names a node and
// describes the fault.
func requireFaultError(t *testing.T, m repro.DSMMode, err error) {
	t.Helper()
	if err == nil {
		t.Fatalf("killed peer produced no error: run and close both clean")
	}
	msg := err.Error()
	if !strings.Contains(msg, "node") {
		t.Errorf("error does not identify a node: %v", err)
	}
	if !slices.ContainsFunc([]string{"timeout", "unreachable", "killed", "peer", "broken", "connection"},
		func(kw string) bool { return strings.Contains(msg, kw) }) {
		t.Errorf("error does not describe the fault: %v", err)
	}
	t.Logf("mode %s surfaced: %v", m, firstLine(msg))
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i] + " ..."
	}
	return s
}

// TestChaosDropDupSafety characterizes lossy faults: dropped or
// duplicated protocol messages may legitimately abort the run (a lost
// grant times out; a replayed request trips protocol sanity checks), but
// the outcome must be bounded — either a clean run with the correct
// image or a surfaced error, never a hang or a silently wrong image.
func TestChaosDropDupSafety(t *testing.T) {
	const (
		name  = "water"
		procs = 4
		scale = 0.05
		seed  = int64(7)
	)
	ref, err := repro.ExecuteWorkload(name, procs, scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"drop=0.005,seed=11", "dup=0.01,seed=12"} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			t.Parallel()
			plan, err := repro.ParseFaultPlan(spec)
			if err != nil {
				t.Fatal(err)
			}
			tr := repro.WrapFaultTransport(repro.NewSimNetTransport(procs), plan)
			var res *repro.RuntimeResult
			var runErr error
			withWatchdog(t, 2*time.Minute, spec, func() {
				res, runErr = repro.RunWorkloadOnRuntime(name, procs, scale, seed, repro.RuntimeConfig{
					PageSize:   1024,
					Mode:       repro.LazyInvalidate,
					RPCTimeout: 5 * time.Second,
					Transports: []repro.Transport{tr},
				})
			})
			if runErr != nil {
				t.Logf("%s surfaced (safe outcome): %v", spec, firstLine(runErr.Error()))
				return
			}
			if !bytes.Equal(res.Image, ref.Image) {
				t.Fatalf("run completed under %s but image is wrong: faults must fail loudly or not at all", spec)
			}
		})
	}
}

// TestChaosPartitionCleanError: a static partition makes cross-group
// requests unanswerable; every node must come back with an RPCTimeout-
// bounded descriptive error, not deadlock on the first cross-partition
// lock transfer.
func TestChaosPartitionCleanError(t *testing.T) {
	const (
		procs      = 4
		rpcTimeout = 2 * time.Second
	)
	plan, err := repro.ParseFaultPlan("partition=2x2,seed=4")
	if err != nil {
		t.Fatal(err)
	}
	tr := repro.WrapFaultTransport(repro.NewSimNetTransport(procs), plan)
	var out *lockIncrementOutcome
	withWatchdog(t, rpcTimeout+30*time.Second, "partition run", func() {
		out = runLockIncrement(procs, 1<<30, repro.LazyInvalidate, rpcTimeout, []repro.Transport{tr}, -1)
	})
	err = out.all()
	if err == nil {
		t.Fatal("partitioned cluster completed an unbounded lock loop cleanly")
	}
	if !errors.Is(err, dsm.ErrRPCTimeout) && !strings.Contains(err.Error(), "timeout") {
		t.Errorf("partition error is not a bounded-wait timeout: %v", err)
	}
	t.Logf("partition surfaced: %v", firstLine(err.Error()))
}

// TestMetricsLiveDuringRun is the live-observability acceptance
// criterion: scraping /metrics while a run is in flight reports nonzero
// per-kind message counters, the fault histograms have observations,
// /statusz serves the live snapshot, and concurrent NetStats/Status
// snapshots race cleanly with the run.
func TestMetricsLiveDuringRun(t *testing.T) {
	reg := repro.NewMetricsRegistry()
	tracer := repro.NewTracer(1 << 14)
	var (
		statusMu sync.Mutex
		statusFn func() any
	)
	srv, err := repro.StartObsServer("127.0.0.1:0", reg, func() any {
		statusMu.Lock()
		defer statusMu.Unlock()
		if statusFn == nil {
			return map[string]string{"state": "starting"}
		}
		return statusFn()
	}, tracer)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var snapWG sync.WaitGroup
	stopSnap := make(chan struct{})
	done := make(chan struct{})
	var res *repro.RuntimeResult
	var runErr error
	go func() {
		defer close(done)
		res, runErr = repro.RunWorkloadOnRuntime("water", 4, 0.05, 7, repro.RuntimeConfig{
			PageSize: 1024,
			Mode:     repro.LazyUpdate,
			Metrics:  reg,
			Tracer:   tracer,
			OnSystems: func(systems []*dsm.System) {
				statusMu.Lock()
				statusFn = func() any {
					sts := make([]dsm.Status, len(systems))
					for i, s := range systems {
						sts[i] = s.Status()
					}
					return sts
				}
				statusMu.Unlock()
				// Satellite: hammer NetStats/Status concurrently with the
				// live run; -race verifies the snapshots are clean.
				for _, s := range systems {
					s := s
					snapWG.Add(1)
					go func() {
						defer snapWG.Done()
						for {
							select {
							case <-stopSnap:
								return
							default:
								_ = s.NetStats()
								_ = s.Status()
							}
						}
					}()
				}
			},
		})
	}()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(b)
	}

	// Poll /metrics while the run is live; a short workload may outrun
	// the poller, so one post-run scrape (the registry callbacks stay
	// valid) still satisfies the counter check, but we insist on having
	// gotten at least one scrape in.
	sawLive := false
	deadline := time.After(2 * time.Minute)
poll:
	for {
		select {
		case <-done:
			break poll
		case <-deadline:
			t.Fatal("run did not finish")
		case <-time.After(5 * time.Millisecond):
			if hasNonzero(get("/metrics"), "dsm_node_kind_msgs_total{") {
				sawLive = true
				break poll
			}
		}
	}
	<-done
	close(stopSnap)
	snapWG.Wait()
	if runErr != nil {
		t.Fatal(runErr)
	}
	if res.Net.Messages == 0 {
		t.Fatal("run moved no messages; metrics assertion is vacuous")
	}
	body := get("/metrics")
	if !hasNonzero(body, "dsm_node_kind_msgs_total{") {
		t.Fatalf("no nonzero dsm_node_kind_msgs_total series in /metrics:\n%s", body)
	}
	for _, fam := range []string{"dsm_node_miss_seconds", "dsm_node_miss_pages"} {
		if !hasNonzero(body, fam+"_count{") {
			t.Errorf("no fault observed in the %s histogram", fam)
		}
	}
	if !sawLive {
		t.Log("run finished before the first successful scrape; counters verified post-run")
	}
	if !strings.Contains(body, "dsm_net_messages_total") {
		t.Error("missing dsm_net_messages_total family")
	}
	if !strings.Contains(body, "dsm_node_rpc_seconds_bucket") {
		t.Error("missing rpc latency histogram")
	}
	for _, want := range []string{"dsm_node_twin_bytes_peak", "dsm_node_diffs_trimmed_total", "dsm_node_pages_aggregated_total"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing the twin-budget series %s", want)
		}
	}
	statusz := get("/statusz")
	for _, want := range []string{`"procs"`, `"mode"`, `"nodes"`, `"net"`, `"TwinBytesPeak"`, `"DiffsTrimmed"`} {
		if !strings.Contains(statusz, want) {
			t.Errorf("/statusz missing %s:\n%s", want, statusz)
		}
	}
	trace := get("/trace")
	if !strings.Contains(trace, `"traceEvents"`) {
		t.Error("/trace is not Chrome trace_event JSON")
	}
}

// hasNonzero reports whether a /metrics body contains a series whose name
// starts with prefix with a nonzero value.
func hasNonzero(body, prefix string) bool {
	for _, line := range strings.Split(body, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 2 && fields[1] != "0" {
			return true
		}
	}
	return false
}
