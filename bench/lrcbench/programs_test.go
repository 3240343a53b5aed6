package main

import (
	"reflect"
	"testing"
)

func TestStrideSequenceIsSeeded(t *testing.T) {
	a1, t1 := strideSequence(7, 2)
	a2, t2 := strideSequence(7, 2)
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(t1, t2) {
		t.Fatal("the same seed gave different sequences")
	}
	if b, _ := strideSequence(8, 2); reflect.DeepEqual(a1, b) {
		t.Error("different seeds gave the same sequence")
	}
	seen := map[int64]bool{}
	firsts := 0
	for j, a := range a1 {
		if seen[int64(a)] {
			t.Fatalf("address %d repeats within a round", a)
		}
		seen[int64(a)] = true
		if pg := int(a) / pageSize; pg%nodes != 2 {
			t.Fatalf("write %d lands on page %d, which block placement does not home at node 2", j, pg)
		}
		if t1[j] {
			firsts++
		}
	}
	if firsts != hpSlab/pageSize {
		t.Errorf("%d first touches per round, want one per page (%d)", firsts, hpSlab/pageSize)
	}
}

func TestRingScheduleOneTakerPerLockAndRotation(t *testing.T) {
	for s := 0; s < 9; s++ {
		taker := map[int]int{}
		for node := 0; node < nodes; node++ {
			for m := 0; m < lrGroups; m++ {
				l := ringLock(node, s, m)
				if l < 0 || l >= lrLocks {
					t.Fatalf("step %d: lock %d out of range", s, l)
				}
				if prev, dup := taker[l]; dup {
					t.Fatalf("step %d: lock %d taken by nodes %d and %d", s, l, prev, node)
				}
				taker[l] = node
			}
		}
		if len(taker) != lrLocks {
			t.Fatalf("step %d: %d locks taken, want all %d", s, len(taker), lrLocks)
		}
		for l, node := range taker {
			// The next step's taker is a different node, so every acquire
			// is remote, and over four steps every node holds every lock.
			next := -1
			for n := 0; n < nodes; n++ {
				for m := 0; m < lrGroups; m++ {
					if ringLock(n, s+1, m) == l {
						next = n
					}
				}
			}
			if next == node || next != (node+nodes-1)%nodes {
				t.Fatalf("lock %d: holder %d at step %d, %d at step %d: not a rotation", l, node, s, next, s+1)
			}
		}
	}
}

// TestProgramsVerifyOnLiveCluster runs a few steps of every synthetic
// workload on a real cluster: no per-op check fails and the final image
// equals the analytic reference.
func TestProgramsVerifyOnLiveCluster(t *testing.T) {
	for _, spec := range workloads {
		if spec.program == nil {
			continue
		}
		t.Run(spec.name, func(t *testing.T) {
			res := runSteps(spec, 3, 12, 1, true)
			if res.failed != 0 || res.attempted == 0 {
				t.Fatalf("failed %d of %d: %v", res.failed, res.attempted, res.errs)
			}
			if res.ops != 12*spec.program(3).opsPerStep() {
				t.Errorf("ops = %d", res.ops)
			}
			if len(res.sync) == 0 || len(res.miss) == 0 || len(res.traces) != nodes {
				t.Errorf("samples: %d sync, %d miss, %d traces", len(res.sync), len(res.miss), len(res.traces))
			}
		})
	}
}
