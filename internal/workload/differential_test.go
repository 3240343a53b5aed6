package workload

import (
	"strings"
	"testing"

	"repro/internal/dsm"
	"repro/internal/mem"
)

// The differential matrix (matrix_test.go) runs the programs; the tests
// here check the runtime's reporting and its refusals.

const diffSeed = 42

// TestRuntimeResultShape checks the runtime execution's reporting surface:
// per-node stats are populated and the interconnect estimate is positive.
func TestRuntimeResultShape(t *testing.T) {
	const procs = 4
	prog, err := New("water", procs, 0.05, diffSeed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOnRuntime(prog, RuntimeConfig{PageSize: 1024, Mode: dsm.LazyUpdate})
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
