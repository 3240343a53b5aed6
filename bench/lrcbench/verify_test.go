package main

import (
	"encoding/binary"
	"testing"

	"repro/internal/dsm"
	"repro/internal/mem"
)

func TestFlippedImageByteCounts(t *testing.T) {
	p := newBarrierSlab(1)
	want := p.image(5)
	got := append([]byte(nil), want...)
	if n := mismatches(got, want); n != 0 {
		t.Fatalf("identical images differ in %d bytes", n)
	}
	got[12345] ^= 0x80
	if n := mismatches(got, want); n != 1 {
		t.Errorf("one flipped byte counted as %d", n)
	}
	if n := mismatches(got[:100], want); n != int64(len(want)-100) {
		t.Errorf("a short image counted as %d", n)
	}
}

// tampering is lock-ring with one saboteur: before step at, node 0
// bumps record 0's counter under its lock, so the next taker reads a
// counter that is not the step number.
type tampering struct {
	*lockRing
	at int
}

func (p tampering) phase(w *worker, s, ph int) error {
	if n, live := w.n.(*dsm.Node); live && s == p.at && w.id == 0 {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(s+1000))
		if err := n.Acquire(0); err != nil {
			return err
		}
		if err := n.Write(mem.Addr(0), b[:]); err != nil {
			return err
		}
		if err := n.Release(0); err != nil {
			return err
		}
	}
	return p.lockRing.phase(w, s, ph)
}

func TestWrongCounterCountsAsFailedOp(t *testing.T) {
	spec := *findWorkload("lock-ring")
	spec.program = func(seed int64) stepProgram { return tampering{newLockRing(seed), 6} }
	res := runSteps(&spec, 1, 10, 1, false)
	if res.failed == 0 {
		t.Fatal("a tampered counter went unnoticed")
	}
	// One warm-up step and ten timed steps.
	if want := int64(11 * nodes * lrGroups); res.attempted != want {
		t.Errorf("attempted %d ops, want every one counted (%d): a failed check must not stop the run", res.attempted, want)
	}
	share := float64(res.failed) / float64(res.attempted)
	if share <= 0 {
		t.Errorf("failed_op_share = %g", share)
	}
	t.Logf("failed %d of %d: %v", res.failed, res.attempted, res.errs)
}

// unreachable makes node 1 fail its third step outright, as a timed-out
// or closed runtime call would.
type unreachable struct{ *barrierSlab }

func (p unreachable) phase(w *worker, s, ph int) error {
	if n, live := w.n.(*dsm.Node); live && s == 3 && ph == 0 && w.id == 1 {
		return n.Write(p.space(), []byte{1}) // outside the address space: the runtime refuses
	}
	return p.barrierSlab.phase(w, s, ph)
}

func TestAbortedRunFailsItsRemainingOps(t *testing.T) {
	spec := *findWorkload("barrier-slab")
	spec.program = func(seed int64) stepProgram { return unreachable{newBarrierSlab(seed)} }
	res := runSteps(&spec, 1, 20, 1, false)
	// Warm-up is step 0; the timed steps are 1..20, so node 1 completes
	// two of them and every node fails the rest.
	if res.attempted != 21*nodes {
		t.Errorf("attempted %d, want %d", res.attempted, 21*nodes)
	}
	if res.failed < 18*nodes-nodes || res.failed > 18*nodes {
		t.Errorf("failed %d ops, want about %d (all remaining on every node)", res.failed, 18*nodes)
	}
	if len(res.errs) == 0 {
		t.Error("no error recorded")
	}
}
