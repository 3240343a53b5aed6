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

// Lazy diffs: every interval close defers its diff, so on a multi-reader
// program some diffs are never asked for before GC covers them — those
// MakeDiffs vanish — and a demanded diff's wire body serves every later
// requester.
var lazyDiffChecks = []gateCheck{
	{"deferred_closes", ">", 0},
	{"diffs_created_per_deferred_close", "<", 1},
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
		{"live_over_model_bytes", "<=", 0.28}, // measures 0.21-0.24 (0.26-0.30 before interval runs)
		{"lock_requests", ">", 0},
		{"lock_request_bytes", "<=", 24}, // header, one section tag, a four-entry clock
		// Write notices travel as one run per processor, a record paying a
		// mask byte, the clock entries that moved and its pages: 30-39 B a
		// grant over sixteen runs at GOMAXPROCS 1, 2 and 8 and under -race,
		// 62-69 B with a processor, index and whole clock per record.
		{"lock_grant_bytes", "<=", 44},
		{"page_responses", ">", 0},
		{"page_response_bytes", "<=", 1024}, // a quarter of the page it expands to
	}},
	// First-touch placement earns its barrier exchange when re-homing each
	// page to its user turns flush and directory exchanges with a remote
	// home into loopback. 20 runs measured 0.64 (block 3.50-3.71
	// msgs/critsec, first-touch 2.19-2.41), so one run of each decides.
	{"first-touch", waterVersusBlock, repro.EagerInvalidate, repro.RuntimeConfig{PageSize: 1024, Placement: "first-touch"}, []gateCheck{
		{"msgs_over_block", "<=", 0.85},
		{"rehomed_pages", ">", 0},
	}},
	// A critical section costs a handful of small messages and allocates
	// none of its bookkeeping: twin and diff leases, interval slot arrays,
	// want and request lists and clocks are all recycled. What the row still
	// measures is warm-up past its four epochs: message shells' interval
	// slabs growing to the largest block they have decoded, and the rpc
	// waiter and frame lists reaching their peak. The bound is 1.13 x the
	// highest of fifteen runs over GOMAXPROCS 1, 2 and 8 when it was set
	// (134-190 B; 24-61 B since faults plan into recycled round scratch);
	// headers, slot arrays, request lists and clocks made per operation
	// measure 645-733 B, an interval log that keeps every record
	// 1,165-1,222 B, and fresh messages, a channel per rpc and a 128-deep
	// twin pool 11.5 KB.
	{"control-plane", lockRing, repro.LazyInvalidate, repro.RuntimeConfig{PageSize: 4096, GCEveryBarriers: 8}, []gateCheck{
		{"alloc_bytes_per_critsec", "<=", 215},
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
// plane's laziness.
func water(t *testing.T, rc repro.RuntimeConfig) gateMetrics {
	res, ref := runVerified(t, "water", rc)
	model, err := repro.Simulate(ref.Trace, rc.Mode.String(), rc.PageSize, repro.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var created, deferred, hits, rehomed, reqs, reqBytes, grants, grantBytes, ships, shipBytes int64
	for _, ns := range res.Nodes {
		created += ns.DiffsCreated
		deferred += ns.DiffsDeferred
		hits += ns.DiffCacheHits
		rehomed += ns.PageMigrations
		reqs += ns.KindMsgs[wire.KLockReq]
		reqBytes += ns.KindBytes[wire.KLockReq]
		grants += ns.KindMsgs[wire.KLockGrant]
		grantBytes += ns.KindBytes[wire.KLockGrant]
		ships += ns.KindMsgs[wire.KPageResp]
		shipBytes += ns.KindBytes[wire.KPageResp]
	}
	return gateMetrics{
		"msgs_per_critsec":                 float64(res.Net.Messages) / float64(ref.Trace.Count().Acquires),
		"rehomed_pages":                    float64(rehomed),
		"deferred_closes":                  float64(deferred),
		"diffs_created_per_deferred_close": float64(created) / float64(deferred),
		"diff_cache_hits":                  float64(hits),
		"live_over_model_bytes":            float64(res.Net.Bytes) / float64(model.TotalBytes()),
		"lock_requests":                    float64(reqs),
		"lock_request_bytes":               float64(reqBytes) / float64(reqs),
		"lock_grant_bytes":                 float64(grantBytes) / float64(grants),
		"page_responses":                   float64(ships),
		"page_response_bytes":              float64(shipBytes) / float64(ships),
	}
}

// waterVersusBlock runs water under rc's placement and under block
// placement, and reports the first's messages per critical section over
// the second's.
func waterVersusBlock(t *testing.T, rc repro.RuntimeConfig) gateMetrics {
	block := rc
	block.Placement = "block"
	m := water(t, rc)
	m["msgs_over_block"] = m["msgs_per_critsec"] / water(t, block)["msgs_per_critsec"]
	return m
}

// newGateDSM returns a single-System cluster that t closes.
func newGateDSM(t *testing.T, cfg repro.DSMConfig) *repro.DSM {
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

// lockRing is lrcbench's lock-ring: four nodes pass 32 locks round a ring,
// each critical section reads, checks and rewrites one 64-byte record (four
// records, four writers, to a page) and then bumps private words, and a
// barrier ends every step. Four GC epochs fill the pools, free lists, shell
// slabs and the interval log's chunk free list; it reports the bytes
// allocated per critical section over the next four.
func lockRing(t *testing.T, rc repro.RuntimeConfig) gateMetrics {
	testenv.SkipAllocGate(t)
	const (
		procs, locks, record, spacing, private = 4, 32, 64, 1024, 16
		privBase                               = locks * spacing
	)
	pageSize, warmup, steps := rc.PageSize, 4*rc.GCEveryBarriers, 4*rc.GCEveryBarriers
	sys := newGateDSM(t, repro.DSMConfig{
		Procs: procs, SpaceSize: repro.Addr(privBase + procs*pageSize), PageSize: pageSize,
		Mode: rc.Mode, GCEveryBarriers: rc.GCEveryBarriers,
	})
	run := func(from, to int) {
		onEveryNode(t, procs, sys.Node, func(id int, n *repro.Node) error {
			var got, want, next [record]byte
			for s := from; s < to; s++ {
				for m := 0; m < locks/procs; m++ {
					l := (id+s)%procs + procs*m
					addr := repro.Addr(l * spacing)
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
					for k := 0; k < private; k++ {
						a := repro.Addr(privBase + id*pageSize + (s*private+k)*8%pageSize)
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
	run(0, warmup)
	alloc := allocatedBy(func() { run(warmup, warmup+steps) })
	return gateMetrics{"alloc_bytes_per_critsec": alloc / float64(steps*locks)}
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
