package workload

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dsm"
	"repro/internal/mem"
	"repro/internal/proto"
	"repro/internal/sim"
)

// Differential correctness harness: every workload is executed on the
// lockstep backend (the sequential reference: one legal interleaving on a
// flat memory), replayed through the trace simulator's value plane, and
// executed for real on the live DSM runtime under all five protocols —
// LI, LU, EI, EU and SC — on genuinely concurrent goroutines. A
// properly-synchronized program must observe exactly the values its
// consistency model promises, so all final shared-memory images must be
// byte-identical.

func diffParams(t *testing.T) (procs int, scale float64, pageSizes []int) {
	t.Helper()
	if testing.Short() {
		return 4, 0.05, []int{1024}
	}
	return 8, 0.1, []int{512, 4096}
}

const diffSeed = 42

func TestWorkloadsOnRuntimeMatchReference(t *testing.T) {
	procs, scale, pageSizes := diffParams(t)
	for _, name := range Names {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			ref, err := ExecuteCached(name, procs, scale, diffSeed)
			if err != nil {
				t.Fatal(err)
			}

			// Leg 1: the trace's value replay must reproduce the lockstep
			// execution's image (the trace faithfully denotes the run).
			if !bytes.Equal(ref.Trace.Image(), ref.Image) {
				t.Fatal("trace value replay diverges from lockstep execution image")
			}

			// Leg 2: the simulator's replay — the protocol engines replay
			// the trace with the value plane running beside them. Read
			// currency is not asserted here (the workloads contain benign
			// racy reads whose values they ignore); the DRF fuzz programs
			// in internal/sim exercise those asserts.
			for _, protoName := range sim.AllProtocolNames {
				img, err := sim.ReplayImage(ref.Trace, protoName, pageSizes[0], proto.Options{}, false)
				if err != nil {
					t.Fatalf("simulator replay %s: %v", protoName, err)
				}
				if !bytes.Equal(img, ref.Image) {
					t.Errorf("simulator replay %s image diverges from reference", protoName)
				}
			}

			// Leg 3: the live runtime under every protocol engine, across
			// page sizes.
			for _, mode := range dsm.Modes {
				for _, ps := range pageSizes {
					prog, err := New(name, procs, scale, diffSeed)
					if err != nil {
						t.Fatal(err)
					}
					res, err := RunOnRuntime(prog, RuntimeConfig{PageSize: ps, Mode: mode})
					if err != nil {
						t.Fatalf("%s/%d: %v", mode, ps, err)
					}
					if !bytes.Equal(res.Image, ref.Image) {
						t.Errorf("%s/%d: runtime image diverges from reference (first diff at byte %d)",
							mode, ps, firstDiff(res.Image, ref.Image))
					}
					if res.Net.Messages == 0 {
						t.Errorf("%s/%d: runtime moved no messages", mode, ps)
					}
				}
			}
		})
	}
}

// TestRuntimeDifferentialWithGC re-runs the barrier-heavy workload with the
// runtime's barrier-time garbage collection enabled: discarding covered
// diffs must not change the values any node observes.
func TestRuntimeDifferentialWithGC(t *testing.T) {
	procs, scale, pageSizes := diffParams(t)
	ref, err := ExecuteCached("mp3d", procs, scale, diffSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []dsm.Mode{dsm.LazyInvalidate, dsm.LazyUpdate} {
		prog, err := New("mp3d", procs, scale, diffSeed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunOnRuntime(prog, RuntimeConfig{PageSize: pageSizes[0], Mode: mode, GCEveryBarriers: 2})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if !bytes.Equal(res.Image, ref.Image) {
			t.Errorf("%s: image with GC diverges from reference", mode)
		}
	}
}

// TestBatchingDifferential: the outbox's frame coalescing is a framing
// optimization only: all five protocols must produce byte-identical
// images at one goroutine per node and oversubscribed, over simnet and
// (non-short) loopback TCP. The framing invariants are checked too: a
// frame carries at least one message, and a batch is a frame.
func TestBatchingDifferential(t *testing.T) {
	const procs, scale = 4, 0.05
	ref, err := ExecuteCached("mp3d", procs, scale, diffSeed)
	if err != nil {
		t.Fatal(err)
	}
	legs := []string{"simnet"}
	if !testing.Short() {
		legs = append(legs, "tcp")
	}
	for _, leg := range legs {
		for _, mode := range dsm.Modes {
			for _, gpn := range []int{1, 4} {
				prog, err := New("mp3d", procs, scale, diffSeed)
				if err != nil {
					t.Fatal(err)
				}
				rc := RuntimeConfig{PageSize: 1024, Mode: mode, GoroutinesPerNode: gpn}
				if leg == "tcp" {
					rc.Transports = tcpTransports(t, procs/gpn)
				}
				res, err := RunOnRuntime(prog, rc)
				if err != nil {
					t.Fatalf("%s %s/gpn=%d: %v", leg, mode, gpn, err)
				}
				if !bytes.Equal(res.Image, ref.Image) {
					t.Errorf("%s %s/gpn=%d: image diverges from reference (first diff at byte %d)",
						leg, mode, gpn, firstDiff(res.Image, ref.Image))
				}
				if res.Net.Frames > res.Net.Messages || res.Net.Batches > res.Net.Frames {
					t.Errorf("%s %s/gpn=%d: framing violated (want Frames <= Messages, Batches <= Frames): %+v",
						leg, mode, gpn, res.Net)
				}
			}
		}
	}
}

// TestRuntimeResultShape checks the runtime execution's reporting surface:
// per-node stats are populated and the interconnect estimate is positive.
func TestRuntimeResultShape(t *testing.T) {
	procs, scale, pageSizes := diffParams(t)
	prog, err := New("water", procs, scale, diffSeed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOnRuntime(prog, RuntimeConfig{PageSize: pageSizes[0], Mode: dsm.LazyUpdate})
	if err != nil {
		t.Fatal(err)
	}
	if res.Name != "water" {
		t.Errorf("Name = %q", res.Name)
	}
	if len(res.Nodes) != procs {
		t.Fatalf("node stats for %d nodes, want %d", len(res.Nodes), procs)
	}
	var intervals int64
	for _, ns := range res.Nodes {
		intervals += ns.IntervalsCreated
	}
	if intervals == 0 {
		t.Error("no intervals created across all nodes")
	}
}

// outOfRange is a buggy program whose processor 1 accesses past the end of
// the shared space after the barrier.
type outOfRange struct{ procs int }

func (o *outOfRange) Name() string { return "oob" }
func (o *outOfRange) Config() Config {
	return Config{NumProcs: o.procs, SpaceSize: 4096, NumLocks: 1, NumBarriers: 1}
}
func (o *outOfRange) Proc(c Ctx) {
	c.Write(mem.Addr(c.Proc()*8), 8)
	c.Barrier(0)
	if c.Proc() == 1 {
		c.Read(4092, 8) // 4 bytes past the end
	}
}

// TestExecuteRejectsOutOfRangeAccess: a workload bug surfaces as a
// descriptive error from the lockstep backend, not a panic.
func TestExecuteRejectsOutOfRangeAccess(t *testing.T) {
	_, err := Execute(&outOfRange{procs: 2})
	if err == nil || !strings.Contains(err.Error(), "outside space") {
		t.Fatalf("err = %v, want out-of-range access error", err)
	}
}

// TestRuntimeErrorPropagation: the same bug on the live runtime must
// surface the failing node's root-cause error — including when the barrier
// master (node 0) is already parked collecting arrivals and has to be
// unblocked by the shutdown.
func TestRuntimeErrorPropagation(t *testing.T) {
	_, err := RunOnRuntime(&outOfRange{procs: 3}, RuntimeConfig{PageSize: 512})
	if err == nil {
		t.Fatal("out-of-range access on the runtime succeeded")
	}
	if !strings.Contains(err.Error(), "processor 1") || !strings.Contains(err.Error(), "outside space") {
		t.Fatalf("err = %v, want processor 1's out-of-range error as the root cause", err)
	}
}

func firstDiff(a, b []byte) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return -1
}
