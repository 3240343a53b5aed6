package repro_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"repro"
)

// Control-plane allocation gate: the paper's case for laziness is that a
// critical section costs a handful of small messages and nothing else, so
// the runtime should allocate little beyond what such a section keeps —
// its interval record, its clocks, a diff body. The program is lrcbench's
// lock-ring: four nodes pass 32 locks round a ring, each critical section
// reads and rewrites one 64-byte record (four records, four writers, to a
// 4 KiB page) and then bumps private words, and a barrier ends every step.
// When every message was a fresh struct on both sides, every rpc made its
// own channel and the twin pool kept 128 of the ~500 twins a GC epoch
// frees, a critical section allocated about 11.5 KB to move 395 B.

const (
	ctlGateProcs    = 4
	ctlGateLocks    = 32
	ctlGateGroups   = ctlGateLocks / ctlGateProcs
	ctlGateRecord   = 64
	ctlGateSpacing  = 1024
	ctlGatePageSize = 4096
	ctlGatePrivBase = ctlGateLocks * ctlGateSpacing
	ctlGatePrivate  = 16
	ctlGateGCEvery  = 8
	// Four GC epochs fill the pools, the free lists, the slabs the message
	// shells keep and the interval log's chunk free list and index lists,
	// which every epoch sweeps; the measured steps span four more, from step
	// 32 to step 64.
	ctlGateWarmup = 4 * ctlGateGCEvery
	ctlGateSteps  = 32
	// ctlGateBytesPerSection bounds the bytes allocated per critical
	// section: 1.13 x the highest of fifteen runs over GOMAXPROCS 1, 2 and 8
	// (645-733 B), and 0.68-0.71 x the 1,165-1,222 B its parent measures, whose
	// interval log kept every record it was handed — chunks, page windows
	// and index lists at the creator and three receivers, about 60 B a copy.
	// The log now recycles what a GC epoch sweeps, so what is left is what a
	// section hands on: the diff it served, made into a run table and
	// payload windows, the slots that held it, and the wants and request of
	// the miss that fetched it.
	ctlGateBytesPerSection = 830
)

// ctlGateRecordAt fills buf with record l after k updates; every byte
// changes with every update.
func ctlGateRecordAt(buf []byte, l, k int) {
	binary.LittleEndian.PutUint64(buf, uint64(k))
	for b := 8; b < len(buf); b++ {
		buf[b] = byte(k) * byte(2*(l+b)+1)
	}
}

// runControlPlaneGate runs the ring for warmup+steps steps and returns the
// bytes allocated per measured critical section. Every record read is
// checked.
func runControlPlaneGate(t *testing.T) float64 {
	t.Helper()
	sys, err := repro.NewDSM(repro.DSMConfig{
		Procs: ctlGateProcs, SpaceSize: ctlGatePrivBase + ctlGateProcs*ctlGatePageSize, PageSize: ctlGatePageSize,
		Mode: repro.LazyInvalidate, GCEveryBarriers: ctlGateGCEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := sys.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	run := func(from, to int) {
		var wg sync.WaitGroup
		errs := make([]error, ctlGateProcs)
		for id := 0; id < ctlGateProcs; id++ {
			wg.Add(1)
			go func(id int) {
				defer wg.Done()
				n := sys.Node(id)
				var got, want, next [ctlGateRecord]byte
				errs[id] = func() error {
					for s := from; s < to; s++ {
						for m := 0; m < ctlGateGroups; m++ {
							l := (id+s)%ctlGateProcs + ctlGateProcs*m
							addr := repro.Addr(l * ctlGateSpacing)
							ctlGateRecordAt(want[:], l, s)
							ctlGateRecordAt(next[:], l, s+1)
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
							for k := 0; k < ctlGatePrivate; k++ {
								a := repro.Addr(ctlGatePrivBase + id*ctlGatePageSize + (s*ctlGatePrivate+k)*8%ctlGatePageSize)
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
				}()
			}(id)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	run(0, ctlGateWarmup)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(ctlGateWarmup, ctlGateWarmup+ctlGateSteps)
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / (ctlGateSteps * ctlGateLocks)
}

func TestControlPlaneAllocGate(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate runs 64 whole-cluster steps; skipped in short mode")
	}
	perSection := runControlPlaneGate(t)
	t.Logf("%.0f B allocated per critical section", perSection)
	if perSection > ctlGateBytesPerSection {
		t.Errorf("a critical section allocates %.0f B, want at most %d", perSection, ctlGateBytesPerSection)
	}
}
