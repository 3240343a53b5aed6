package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/dsm"
	"repro/internal/mem"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
)

// rpcTimeout turns a hung protocol operation into an error, which the
// harness counts as failed ops instead of hanging the benchmark.
const rpcTimeout = 30 * time.Second

// gcEveryBarriers keeps GC on: without it lock-ring holds every diff it
// ever made and the run measures memory growth, not the protocol.
const gcEveryBarriers = 8

// cluster is the four-node DSM a workload runs on: one System over the
// in-process network, or one System per endpoint of a loopback TCP
// cluster.
type cluster struct {
	systems []*dsm.System
	nodes   []*dsm.Node
}

// newCluster builds the cluster with the product configuration: no
// adaptation, migration, compression, flush policy or A/B toggle.
func newCluster(mode dsm.Mode, overTCP bool, space mem.Addr) (*cluster, error) {
	transports := []dsm.Transport{nil} // nil: dsm.New builds the in-process network
	if overTCP {
		ts, err := tcp.NewLoopbackCluster(nodes)
		if err != nil {
			return nil, err
		}
		transports = transports[:0]
		for _, t := range ts {
			transports = append(transports, t)
		}
	}
	c := &cluster{nodes: make([]*dsm.Node, nodes)}
	for i, tr := range transports {
		sys, err := dsm.New(dsm.Config{
			Procs: nodes, SpaceSize: space, PageSize: pageSize, Mode: mode,
			GCEveryBarriers: gcEveryBarriers, RPCTimeout: rpcTimeout, Transport: tr,
		})
		if err != nil {
			// dsm.New closed tr; the systems built so far and the
			// transports not yet handed over are still ours.
			c.close()
			for _, rest := range transports[i+1:] {
				rest.Close()
			}
			return nil, err
		}
		c.systems = append(c.systems, sys)
		for _, n := range sys.Local() {
			c.nodes[n.ID()] = n
		}
	}
	return c, nil
}

// close shuts every system down and returns the errors they surfaced: a
// clean run must close cleanly, so each counts as a failure.
func (c *cluster) close() []error {
	var errs []error
	for _, sys := range c.systems {
		if err := sys.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errs
}

// counters is a snapshot of everything the benchmark reads from public
// counters: interconnect totals, per-node protocol counters and the Go
// runtime's allocation and GC accounting.
type counters struct {
	net    transport.Stats
	engine dsm.Stats // summed over the nodes; GCRuns is per node (every node counts the same episodes)
	rt     runtimeCounters
}

type runtimeCounters struct {
	allocBytes, mallocs uint64
	heapInuse           uint64
	gcCPU, totalCPU     float64 // cumulative CPU seconds by the Go runtime's accounting
	cpu                 float64 // process user + system CPU seconds (getrusage)
	hostBusy, hostSteal float64 // /proc/stat jiffies: all states, and stolen by the hypervisor
}

func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	rc := runtimeCounters{allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs, heapInuse: ms.HeapInuse}
	if s[0].Value.Kind() == metrics.KindFloat64 && s[1].Value.Kind() == metrics.KindFloat64 {
		rc.gcCPU, rc.totalCPU = s[0].Value.Float64(), s[1].Value.Float64()
	}
	rc.cpu = processCPU()
	rc.hostBusy, rc.hostSteal = hostJiffies()
	return rc
}

// hostJiffies reads the aggregate cpu line of /proc/stat: the sum of all
// states and the steal column (time a virtual CPU was runnable but the
// hypervisor ran something else). Zeros where /proc does not provide it.
func hostJiffies() (total, steal float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:9] { // user nice system idle iowait irq softirq steal
		v, _ := strconv.ParseFloat(f, 64) // a malformed field reads as 0
		total += v
		if i == 7 {
			steal = v
		}
	}
	return total, steal
}

// processCPU is the CPU time the process has consumed, user plus system.
// Unlike wall time it does not grow while the hypervisor runs someone
// else on the core, which on a shared box is most of the run-to-run
// noise.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// calibrationNominal is the CPU time the calibration kernel takes on the
// development box when it is quiet.
const calibrationNominal = 0.012

// calibrate runs a fixed single-threaded kernel — fill a freshly
// allocated megabyte with pseudo-random words and sort it — and returns
// the CPU seconds it took. The box's speed drifts by tens of percent
// over minutes with no steal reported; dividing a single-threaded cost
// by the kernel's cost in the same moment cancels the drift, which a
// bound on raw seconds could not survive.
func calibrate() float64 {
	start := processCPU()
	buf := make([]uint64, 1<<17)
	x := uint64(88172645463325252)
	for i := range buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		buf[i] = x
	}
	slices.Sort(buf)
	sink += int(buf[len(buf)/2] & 1)
	return processCPU() - start
}

// snapshot reads the cluster's counters. The runtime counters are read
// last at the start of a section and first at its end (see delta), so
// the snapshots' own allocations stay outside the measured interval.
func (c *cluster) snapshot() counters {
	var s counters
	for _, sys := range c.systems {
		s.net.Add(sys.NetStats())
	}
	var perNode []dsm.Stats
	for _, n := range c.nodes {
		perNode = append(perNode, n.Stats())
	}
	s.engine = sumStats(perNode)
	s.rt = readRuntime()
	return s
}

// sub returns the counters accumulated between two snapshots. Gauges
// (TwinBytesLive, heapInuse) keep the later value.
func (end counters) sub(start counters) counters {
	d := end
	d.net = netDelta(end.net, start.net)
	d.engine = addStats(end.engine, start.engine, -1)
	d.engine.TwinBytesLive = end.engine.TwinBytesLive
	d.rt = end.rt.sub(start.rt)
	return d
}

func (end runtimeCounters) sub(start runtimeCounters) runtimeCounters {
	end.allocBytes -= start.allocBytes
	end.mallocs -= start.mallocs
	end.gcCPU -= start.gcCPU
	end.totalCPU -= start.totalCPU
	end.cpu -= start.cpu
	end.hostBusy -= start.hostBusy
	end.hostSteal -= start.hostSteal
	return end
}

func netDelta(a, b transport.Stats) transport.Stats {
	return transport.Stats{
		Messages: a.Messages - b.Messages, Frames: a.Frames - b.Frames, Batches: a.Batches - b.Batches,
		Bytes: a.Bytes - b.Bytes, RawBytes: a.RawBytes - b.RawBytes,
	}
}

// sumStats adds up the nodes' counters the benchmark reports. GCRuns is
// the first node's: a GC episode is cluster-wide and every node counts it.
func sumStats(perNode []dsm.Stats) dsm.Stats {
	var sum dsm.Stats
	for _, n := range perNode {
		sum = addStats(sum, n, 1)
	}
	if len(perNode) > 0 {
		sum.GCRuns = perNode[0].GCRuns
	}
	return sum
}

// addStats returns a + sign*b over the counters the benchmark reports.
func addStats(a, b dsm.Stats, sign int64) dsm.Stats {
	a.Pages = nil
	a.AccessMisses += sign * b.AccessMisses
	a.DiffsApplied += sign * b.DiffsApplied
	a.DiffsFetched += sign * b.DiffsFetched
	a.IntervalsCreated += sign * b.IntervalsCreated
	a.PagesFetched += sign * b.PagesFetched
	a.GCRuns += sign * b.GCRuns
	a.DiffsCreated += sign * b.DiffsCreated
	a.DiffsDeferred += sign * b.DiffsDeferred
	a.DiffCacheHits += sign * b.DiffCacheHits
	a.DiffsFlattened += sign * b.DiffsFlattened
	a.TwinBytesLive += sign * b.TwinBytesLive
	a.FlushedPages += sign * b.FlushedPages
	a.UpdatesReceived += sign * b.UpdatesReceived
	a.SentMsgs += sign * b.SentMsgs
	a.SentFrames += sign * b.SentFrames
	a.SentBatches += sign * b.SentBatches
	for k := range a.KindMsgs {
		a.KindMsgs[k] += sign * b.KindMsgs[k]
		a.KindBytes[k] += sign * b.KindBytes[k]
	}
	return a
}

// resetPeakRSS starts a new high-water mark at the current resident set,
// so that a process measuring several workloads in a row (a full run)
// reports each one's own peak. Where /proc does not allow it the mark
// simply keeps covering the whole process.
func resetPeakRSS() {
	debug.FreeOSMemory()
	os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: see above
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), or 0
// where /proc does not provide it.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			if fields := strings.Fields(rest); len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64) // malformed line reads as 0, like a missing one
				return kb / 1024
			}
		}
	}
	return 0
}
