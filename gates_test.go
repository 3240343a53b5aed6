package repro_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro"
	"repro/internal/testenv"
	"repro/internal/wire"
)

// The runtime gates. The paper argues in counted messages and bytes; a gate
// holds the live runtime to such a count, or to the allocation budget of
// the path a program drives, and fails when a change moves it past its
// bound, correct or not. Each row runs one program under one protocol and
// configuration and checks what the program measured. Every row skips in
// short mode, and a program that measures allocation skips under -race.

// gateMetrics is what one program run measured, by name.
type gateMetrics map[string]float64

// gateCheck bounds one metric. A NaN — a ratio over nothing counted —
// fails every comparison.
type gateCheck struct {
	metric string
	cmp    string // "<", "<=" or ">"
	bound  float64
}

func (c gateCheck) holds(v float64) bool {
	switch c.cmp {
	case "<":
		return v < c.bound
	case "<=":
		return v <= c.bound
	case ">":
		return v > c.bound
	}
	panic("gate: unknown comparison " + c.cmp)
}

// gateRow is one program run and the bounds on what it measured.
type gateRow struct {
	name    string
	program func(t *testing.T, rc repro.RuntimeConfig) gateMetrics
	mode    repro.DSMMode
	config  repro.RuntimeConfig
	checks  []gateCheck
}

// Lazy diffs: every interval close cuts its pages' diffs out of their write
// logs, which leaves no logged word behind once the program has released
// everything it wrote, and a demanded diff's wire body serves every later
// requester.
var lazyDiffChecks = []gateCheck{
	{"log_bytes_live_end", "<=", 0},
	{"diff_cache_hits", ">", 0},
}

var gateRows = []gateRow{
	{"lazy-diff-LI", water, repro.LazyInvalidate, repro.RuntimeConfig{PageSize: 1024, GCEveryBarriers: 2}, lazyDiffChecks},
	{"lazy-diff-LU", water, repro.LazyUpdate, repro.RuntimeConfig{PageSize: 1024, GCEveryBarriers: 2}, lazyDiffChecks},
	// Wire bytes: an acquirer is sent write notices, a few bytes per
	// interval, instead of pages. The model (repro.Simulate) is that
	// accounting in fixed-width fields; the compact codec must stay well
	// under it although it also ships interval clocks and the closing
	// read-out (the fixed-width codec sat at 1.8-2.1 times the model and
	// spent 76 B on a lock request). The model charges a cold miss a whole
	// page, where the runtime ships its diff against zeros — water pads a
	// 24-byte molecule to a 256-byte stride — so the page ship's own size
	// is held too.
	{"wire-bytes", water, repro.LazyInvalidate, repro.RuntimeConfig{PageSize: 4096}, []gateCheck{
		// The bounds are about 1.13 x the highest of 22 runs over GOMAXPROCS
		// 1, 2 and 8 and under -race when they were set, and the ratio then
		// measured 0.19-0.23: 0.21-0.24 with each page list and clock entry
		// coded alone, 0.26-0.30 before interval runs. It measures
		// 0.220-0.254 over 22 such runs today (0.225 on one core), and under
		// -race it runs at the edge of the bound: 0.235-0.258 over ten runs
		// of `go test -race -count=1 ./internal/dsm ./internal/workload .`
		// on 2 vCPU, and 0.266 once on a loaded host. Lock traffic moves it:
		// 149-187 lock requests a run, the forwards and grants they bring,
		// and grants of 23-32 B as more records ride each (29-32 B under
		// -race). The 22 page responses (102-138 B each) move it less.
		{"live_over_model_bytes", "<=", 0.26},
		{"lock_requests", ">", 0},
		// A header and a four-entry clock, each entry after the first coded
		// against the one before it: 10.2-10.5 B (13.3-13.6 with a
		// mode-tagged section around the clock, 13.6-14.0 with each entry
		// coded alone too).
		{"lock_request_bytes", "<=", 12.5},
		// Write notices travel as one run per processor, a record paying a
		// mask byte, the clock entries that moved and its page list unless
		// it repeats the record before it's, and a grant without notices is
		// its header: 18-20 B a grant (22-24 with a section tag and a clock
		// on every grant), 29-40 B with every list spelled out and its first
		// page coded against 0, 62-69 B with a processor, index and whole
		// clock per record.
		{"lock_grant_bytes", "<=", 36},
		{"page_responses", ">", 0},
		{"page_response_bytes", "<=", 1024}, // a quarter of the page it expands to
	}},
	// Messages against the paper's model: an LI miss asks the page's
	// concurrent last modifiers (§4.3.2), each for every diff its clock
	// covers, as the model does. The bound is 1.13 x the highest of fifteen
	// runs over GOMAXPROCS 1, 2 and 8 (1.09-1.23, 1.18-1.19 under -race);
	// asking every creator of an outstanding diff measured 1.57-1.60.
	{"locusroute-LI", locusroute, repro.LazyInvalidate, repro.RuntimeConfig{PageSize: 1024}, []gateCheck{
		{"live_over_model_msgs", "<=", 1.39},
	}},
	// A critical section costs a handful of small messages and allocates
	// none of its bookkeeping: twin and diff leases, interval slot arrays,
	// want and request lists and clocks are all recycled, and every block a
	// message carries takes its slabs from the wire slab pool. What the row
	// still measures is warm-up past its four epochs: the rpc waiter and
	// frame lists reaching their peak (message shells' interval slabs grew
	// to the largest block they had decoded until the blocks came from the
	// pool). The bound is 1.13 x the
	// highest of fifteen runs over GOMAXPROCS 1, 2 and 8 when it was set
	// (134-190 B; 24-61 B since faults plan into recycled round scratch);
	// headers, slot arrays, request lists and clocks made per operation
	// measure 645-733 B, an interval log that keeps every record
	// 1,165-1,222 B, and fresh messages, a channel per rpc and a 128-deep
	// twin pool 11.5 KB. Since a miss keeps the diffs it fetches until GC,
	// the four warm-up epochs leave some of that retention's growth to the
	// measured ones: 47-141 B (40-60 B after sixteen); 9-118 B since the
	// blocks' slabs come from the pool.
	// A miss asks each concurrent last modifier of its page once, for every
	// diff its clock covers, and brings every invalid page those
	// responders serve with it: the barrier invalidates the same record
	// pages on every node, and the first miss after it fetches most of
	// them. The bound on requests is 1.13 x the highest of fifteen runs
	// over GOMAXPROCS 1, 2 and 8 (0.19-0.55; 0.19-0.57 over thirty); a
	// fault that brought only the pages its own plan's intervals wrote
	// measured 1.24-1.72, and asking every creator of an outstanding diff
	// 2.29-2.39.
	{"control-plane", lockRing, repro.LazyInvalidate, repro.RuntimeConfig{PageSize: 4096, GCEveryBarriers: 8}, []gateCheck{
		{"alloc_bytes_per_critsec", "<=", 215},
		{"diff_requests_per_critsec", "<=", 0.62},
	}},
	// Water's allocation per critical section, on the second of two fresh
	// clusters as lrcbench's splash-water measures it (the first fills the
	// process's pools and free lists), at scale 1: 5,369 critical sections
	// and barriers whose arrivals and exits carry hundreds of write
	// notices. Every interval block, decoded or exported, takes its slabs
	// from the wire slab pool and the master absorbs in place, and a
	// barrier runs a GC epoch once the history since the last one reaches
	// the pages, whose sweep hands the log's chunks and the store's storage
	// to the next epoch: what is left is a fresh cluster growing its log,
	// store and round scratch to about one epoch's history. The bound is
	// 1.13 x the highest of fifteen runs over GOMAXPROCS 1, 2 and 8
	// (581-644 B). A log and store that grew with the whole run, collected
	// only at the bridge's closing barrier, measured 695-727 B; a twin per
	// written page, parked until its diff was asked for, 718-749 B (up to
	// 769 B beside other test processes), homes that built each untouched
	// page at the GC epoch 797-858 B, a store of one slot array per
	// interval in doubling rings 861-894 B, blocks past a shell's 4 KiB
	// decoded into slabs of their own, export lists per node and copied
	// absorbs 1,033-1,338 B (1,325-1,338 on one core).
	{"water-alloc", waterAlloc, repro.LazyInvalidate, repro.RuntimeConfig{PageSize: 4096, GCEveryBarriers: 8}, []gateCheck{
		{"alloc_bytes_per_critsec", "<=", 727},
	}},
	// Water's diff-response bytes per critical section at scale 1, where
	// each node runs four GC epochs (gc_runs 16 over the four nodes), at the
	// barriers whose history since the last epoch reaches the pages: a GC
	// epoch moves no diff to a home that never touched its page — it names
	// a keeper among the page's modifiers and forwards later misses to it —
	// so what is left is the program's own misses, which the schedule
	// moves. The bound is 1.13 x the highest of 44 runs when the one epoch
	// fell at the bridge's closing barrier: fifteen over GOMAXPROCS 1, 2 and
	// 8 (1.48-1.89), five under -race (1.55-1.57) and 24 beside two or three
	// other test processes on 2 vCPU (1.55-2.90). The mid-run epochs read
	// 1.56-1.66 over fifteen runs. Homes that built each untouched page at
	// the epoch out of its whole diff history measured 9.40-11.53.
	{"water-gc-diffs", waterGC, repro.LazyInvalidate, repro.RuntimeConfig{PageSize: 4096, GCEveryBarriers: 8}, []gateCheck{
		{"gc_runs", ">", 0},
		{"diffresp_bytes_per_critsec", "<=", 3.3},
	}},
	// The data that moves is diffs, so nothing the size of the data is
	// allocated: a made diff is a lease on a pooled buffer, the encoder
	// appends it into a recycled frame, the receiver's diff borrows that
	// frame. What is left is warm-up: under LI the interval log's chunks
	// growing their page lists to four-page records, under EU frames growing
	// to fit a burst (0.0009 since a home serves an update inline; a
	// goroutine per page at its home measured up to 0.019). The bounds are
	// 1.5 x the highest of fifteen runs over GOMAXPROCS 1, 2 and 8 (LI
	// 0.0069, EU 0.019);
	// headers, slot arrays and request lists made per operation measure LI
	// 0.031 and EU 0.047, received diffs decoded into storage of their own
	// 0.08-0.09, bodies made by make 0.48-0.73, runs copied out of the frame
	// 2.14.
	{"diff-plane-LI", barrierSlab, repro.LazyInvalidate, repro.RuntimeConfig{PageSize: 4096, GCEveryBarriers: 8}, []gateCheck{
		{"alloc_per_wire_byte", "<=", 0.0105},
		// The two barriers' 12 messages and 24 for the misses — 3 faults
		// per reader, each a diff request and response to one creator — a
		// step, every run. A GC epoch that ran a ready/go round of its own
		// beside the barriers measured 37.5.
		{"msgs_per_step", "<=", 36},
	}},
	{"diff-plane-EU", barrierSlab, repro.EagerUpdate, repro.RuntimeConfig{PageSize: 4096, GCEveryBarriers: 8}, []gateCheck{
		{"alloc_per_wire_byte", "<=", 0.029},
	}},
	// EU merges a release per destination, as Munin does and the model
	// (internal/eager) charges: each writer sends each of the three other
	// nodes one update carrying all four of its pages, and gets one
	// acknowledgement — 24 messages a step — beside the two barriers' 12.
	// A flush through each page's home, which updates the other copies,
	// measured 108.
	// EI merges a release the same way, to the dirty pages' homes alone,
	// and a home invalidates every other copy of the pages an update names,
	// one invalidation naming them and one acknowledgement per copy. A
	// writer's pages have four homes, itself among them, so each update and
	// the writer's own round name one page: 3 updates and 3
	// acknowledgements, then an invalidation and its acknowledgement to
	// each copy but the writer's and the home's, 2 x 2 at each of the three
	// other homes and 3 x 2 at the writer's — 24 per writer — then 9 misses
	// of two messages per reader, beside the barriers' 12: 180 a step,
	// every run. A directory transaction per dirty page, which made its
	// writer the owner that later misses fetched from, measured 252.
	{"ei-merge", barrierSlab, repro.EagerInvalidate, repro.RuntimeConfig{PageSize: 4096, GCEveryBarriers: 8}, []gateCheck{
		{"msgs_per_step", "<=", 180},
	}},
	{"eu-merge", barrierSlab, repro.EagerUpdate, repro.RuntimeConfig{PageSize: 4096, GCEveryBarriers: 8}, []gateCheck{
		{"msgs_per_step", "<=", 36},
	}},
}

// TestRuntimeGate runs each row's program and holds what it measured to
// the row's checks; -v prints the measurements.
func TestRuntimeGate(t *testing.T) {
	for _, row := range gateRows {
		t.Run(row.name, func(t *testing.T) {
			if testing.Short() {
				t.Skip("a gate runs a whole program; skipped in short mode")
			}
			rc := row.config
			rc.Mode = row.mode
			got := row.program(t, rc)
			t.Logf("%v", got)
			for _, c := range row.checks {
				v, ok := got[c.metric]
				if !ok {
					t.Fatalf("the program measured no %s", c.metric)
				}
				if !c.holds(v) {
					t.Errorf("%s = %.4g, want %s %g", c.metric, v, c.cmp, c.bound)
				}
			}
		})
	}
}

// The workload runs: four processors at a tenth of lrcrun's scale, seconds
// to run with every protocol path exercised.
const (
	workloadProcs = 4
	workloadScale = 0.1
	workloadSeed  = 42
)

// runVerified runs workload name on the live runtime and fails t unless the
// final image is the sequential reference's.
func runVerified(t testing.TB, name string, rc repro.RuntimeConfig) (*repro.RuntimeResult, *repro.WorkloadResult) {
	t.Helper()
	ref, err := repro.ExecuteWorkload(name, workloadProcs, workloadScale, workloadSeed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.RunWorkloadOnRuntime(name, workloadProcs, workloadScale, workloadSeed, rc)
	if err != nil {
		t.Fatal(err)
	}
	if string(res.Image) != string(ref.Image) {
		t.Fatalf("%s/%s: runtime image diverges from reference", name, rc.Mode)
	}
	return res, ref
}

// water runs the water workload and reports its traffic per critical
// section, against the paper's model and per message kind, and its diff
// plane's write logs and cache hits.
func water(t *testing.T, rc repro.RuntimeConfig) gateMetrics { return splash(t, "water", rc) }

// locusroute is water's report for the locusroute workload.
func locusroute(t *testing.T, rc repro.RuntimeConfig) gateMetrics { return splash(t, "locusroute", rc) }

// splash runs SPLASH workload name and reports what water does.
func splash(t *testing.T, name string, rc repro.RuntimeConfig) gateMetrics {
	res, ref := runVerified(t, name, rc)
	model, err := repro.Simulate(ref.Trace, rc.Mode.String(), rc.PageSize, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var logged, hits, reqs, reqBytes, grants, grantBytes, ships, shipBytes int64
	for _, ns := range res.Nodes {
		logged += ns.TwinBytesLive
		hits += ns.DiffCacheHits
		reqs += ns.KindMsgs[wire.KLockReq]
		reqBytes += ns.KindBytes[wire.KLockReq]
		grants += ns.KindMsgs[wire.KLockGrant]
		grantBytes += ns.KindBytes[wire.KLockGrant]
		ships += ns.KindMsgs[wire.KPageResp]
		shipBytes += ns.KindBytes[wire.KPageResp]
	}
	return gateMetrics{
		"msgs_per_critsec":      float64(res.Net.Messages) / float64(ref.Trace.Count().Acquires),
		"log_bytes_live_end":    float64(logged),
		"diff_cache_hits":       float64(hits),
		"live_over_model_bytes": float64(res.Net.Bytes) / float64(model.TotalBytes()),
		"live_over_model_msgs":  float64(res.Net.Messages) / float64(model.TotalMessages()),
		"lock_requests":         float64(reqs),
		"lock_request_bytes":    float64(reqBytes) / float64(reqs),
		"lock_grant_bytes":      float64(grantBytes) / float64(grants),
		"page_responses":        float64(ships),
		"page_response_bytes":   float64(shipBytes) / float64(ships),
	}
}

// waterAlloc runs water at scale 1 on two fresh clusters and reports the
// bytes the second run allocated per critical section.
func waterAlloc(t *testing.T, rc repro.RuntimeConfig) gateMetrics {
	testenv.SkipAllocGate(t)
	const scale = 1
	ref, err := repro.ExecuteWorkload("water", workloadProcs, scale, workloadSeed)
	if err != nil {
		t.Fatal(err)
	}
	var res *repro.RuntimeResult
	run := func() { res, err = repro.RunWorkloadOnRuntime("water", workloadProcs, scale, workloadSeed, rc) }
	run()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	alloc := allocatedBy(run)
	if err != nil || string(res.Image) != string(ref.Image) {
		t.Fatalf("water: err %v, or the runtime image diverges from the reference", err)
	}
	return gateMetrics{"alloc_bytes_per_critsec": alloc / float64(ref.Trace.Count().Acquires)}
}

// waterGC runs water at scale 1 and reports its GC epochs and its
// diff-response bytes per critical section.
func waterGC(t *testing.T, rc repro.RuntimeConfig) gateMetrics {
	const scale = 1
	ref, err := repro.ExecuteWorkload("water", workloadProcs, scale, workloadSeed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.RunWorkloadOnRuntime("water", workloadProcs, scale, workloadSeed, rc)
	if err != nil || string(res.Image) != string(ref.Image) {
		t.Fatalf("water: err %v, or the runtime image diverges from the reference", err)
	}
	var gcs, bytes int64
	for _, ns := range res.Nodes {
		gcs += ns.GCRuns
		bytes += ns.KindBytes[wire.KDiffResp]
	}
	return gateMetrics{
		"gc_runs":                    float64(gcs),
		"diffresp_bytes_per_critsec": float64(bytes) / float64(ref.Trace.Count().Acquires),
	}
}

// newGateDSM returns a single-System cluster that t closes.
func newGateDSM(t testing.TB, cfg repro.DSMConfig) *repro.DSM {
	t.Helper()
	sys, err := repro.NewDSM(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := sys.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return sys
}

// onEveryNode runs body on nodes 0..procs-1 at once and fails t with the
// first error.
func onEveryNode(t testing.TB, procs int, node func(int) *repro.Node, body func(id int, n *repro.Node) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, procs)
	for id := 0; id < procs; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			errs[id] = body(id, node(id))
		}(id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// allocatedBy returns the bytes the process allocated while f ran.
func allocatedBy(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}

// ringRecord fills buf with record l after k updates; every byte changes
// with every update.
func ringRecord(buf []byte, l, k int) {
	binary.LittleEndian.PutUint64(buf, uint64(k))
	for b := 8; b < len(buf); b++ {
		buf[b] = byte(k) * byte(2*(l+b)+1)
	}
}

// ring is lrcbench's lock-ring on a cluster its test closes: four nodes
// pass 32 locks round a ring, each critical section reads, checks and
// rewrites one 64-byte record (four records, four writers, to a page) and
// then bumps private words, and a barrier ends every step.
type ring struct {
	sys      *repro.DSM
	pageSize int
}

const (
	ringProcs, ringLocks, ringRecordSize, ringSpacing, ringPrivate = 4, 32, 64, 1024, 16
	ringPrivBase                                                   = ringLocks * ringSpacing
)

func newRing(tb testing.TB, rc repro.RuntimeConfig) *ring {
	return &ring{pageSize: rc.PageSize, sys: newGateDSM(tb, repro.DSMConfig{
		Procs: ringProcs, SpaceSize: repro.Addr(ringPrivBase + ringProcs*rc.PageSize), PageSize: rc.PageSize,
		Mode: rc.Mode, GCEveryBarriers: rc.GCEveryBarriers,
	})}
}

// steps runs steps from through to-1 on every node.
func (r *ring) steps(tb testing.TB, from, to int) {
	onEveryNode(tb, ringProcs, r.sys.Node, func(id int, n *repro.Node) error {
		var got, want, next [ringRecordSize]byte
		for s := from; s < to; s++ {
			for m := 0; m < ringLocks/ringProcs; m++ {
				l := (id+s)%ringProcs + ringProcs*m
				addr := repro.Addr(l * ringSpacing)
				ringRecord(want[:], l, s)
				ringRecord(next[:], l, s+1)
				if err := n.Acquire(repro.LockID(l)); err != nil {
					return err
				}
				if err := n.Read(got[:], addr); err != nil {
					return err
				}
				if !bytes.Equal(got[:], want[:]) {
					return fmt.Errorf("step %d: node %d read a wrong record %d", s, id, l)
				}
				if err := n.Write(addr, next[:]); err != nil {
					return err
				}
				if err := n.Release(repro.LockID(l)); err != nil {
					return err
				}
				for k := 0; k < ringPrivate; k++ {
					a := repro.Addr(ringPrivBase + id*r.pageSize + (s*ringPrivate+k)*8%r.pageSize)
					v, err := n.ReadUint64(a)
					if err != nil {
						return err
					}
					if err := n.WriteUint64(a, v+1); err != nil {
						return err
					}
				}
			}
			if err := n.Barrier(0); err != nil {
				return err
			}
		}
		return nil
	})
}

// diffReqs returns the diff requests the ring's nodes have sent.
func (r *ring) diffReqs() (sum int64) {
	for id := 0; id < ringProcs; id++ {
		sum += r.sys.Node(id).Stats().KindMsgs[wire.KDiffReq]
	}
	return sum
}

// lockRing runs the ring: four GC epochs fill the pools, free lists, shell
// slabs and the interval log's chunk free list; it reports the bytes
// allocated and the diff requests sent per critical section over the next
// four.
func lockRing(t *testing.T, rc repro.RuntimeConfig) gateMetrics {
	testenv.SkipAllocGate(t)
	warmup, steps := 4*rc.GCEveryBarriers, 4*rc.GCEveryBarriers
	r := newRing(t, rc)
	r.steps(t, 0, warmup)
	reqs := r.diffReqs()
	alloc := allocatedBy(func() { r.steps(t, warmup, warmup+steps) })
	return gateMetrics{
		"alloc_bytes_per_critsec":   alloc / float64(steps*ringLocks),
		"diff_requests_per_critsec": float64(r.diffReqs()-reqs) / float64(steps*ringLocks),
	}
}

// slabContents fills buf with page pg as written in step s; a rewrite
// changes every byte.
func slabContents(buf []byte, pg, s int) {
	for i := range buf {
		buf[i] = byte(pg*31+i) ^ byte(s+1)
	}
}

// barrierSlab is lrcbench's barrier-slab: four nodes each rewrite every
// byte of their four pages, then after a barrier read and check the twelve
// others (under LI a miss and a whole-page diff each, under EI a miss and a
// ship; under EU the barrier pushed them already). After 40 steps it
// reports the bytes allocated over the bytes the interconnect moved in the
// next 200, and the messages per step.
func barrierSlab(t *testing.T, rc repro.RuntimeConfig) gateMetrics {
	testenv.SkipAllocGate(t)
	const procs, slab, pages, warmup, steps = 4, 4, 16, 40, 200
	pageSize := rc.PageSize
	sys := newGateDSM(t, repro.DSMConfig{
		Procs: procs, SpaceSize: repro.Addr(pages * pageSize), PageSize: pageSize,
		Mode: rc.Mode, GCEveryBarriers: rc.GCEveryBarriers,
	})
	run := func(from, to int) {
		onEveryNode(t, procs, sys.Node, func(id int, n *repro.Node) error {
			want, got := make([]byte, pageSize), make([]byte, pageSize)
			for s := from; s < to; s++ {
				for k := 0; k < slab; k++ {
					pg := id*slab + k
					slabContents(want, pg, s)
					if err := n.Write(repro.Addr(pg*pageSize), want); err != nil {
						return err
					}
				}
				if err := n.Barrier(0); err != nil {
					return err
				}
				for k := slab; k < pages; k++ {
					pg := (id*slab + k) % pages
					if err := n.Read(got, repro.Addr(pg*pageSize)); err != nil {
						return err
					}
					if slabContents(want, pg, s); !bytes.Equal(got, want) {
						return fmt.Errorf("step %d: node %d read a wrong page %d", s, id, pg)
					}
				}
				if err := n.Barrier(1); err != nil {
					return err
				}
			}
			return nil
		})
	}
	run(0, warmup)
	net0 := sys.NetStats()
	alloc := allocatedBy(func() { run(warmup, warmup+steps) })
	net1 := sys.NetStats()
	return gateMetrics{
		"alloc_per_wire_byte": alloc / float64(net1.Bytes-net0.Bytes),
		"msgs_per_step":       float64(net1.Messages-net0.Messages) / steps,
	}
}
