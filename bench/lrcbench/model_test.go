package main

import (
	"testing"

	"repro/internal/trace"
)

// TestModelTraceIsLegalAndSelfConsistent records every synthetic
// program without a cluster: the interleaving must be a legal trace
// (lock nesting, complete barrier episodes), no check may fail on the
// sequentially consistent image, and the paper's model must charge the
// traffic the program's structure implies.
func TestModelTraceIsLegalAndSelfConsistent(t *testing.T) {
	for _, spec := range workloads {
		if spec.program == nil {
			continue
		}
		t.Run(spec.name, func(t *testing.T) {
			prog := spec.program(5)
			tr, steps, failed := modelTrace(prog, spec.name)
			if failed != 0 {
				t.Fatalf("%d ops fail on a sequentially consistent memory", failed)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("recorded trace is not legal: %v", err)
			}
			if steps < 2 || len(tr.Events) < modelEvents && steps < modelSteps {
				t.Fatalf("%d steps, %d events recorded", steps, len(tr.Events))
			}
			if got := tr.Count().BarrierArrivals; got != steps*prog.phases()*nodes {
				t.Errorf("%d barrier arrivals for %d steps of %d phases", got, steps, prog.phases())
			}
			m, err := stepModel(spec, prog)
			if err != nil {
				t.Fatal(err)
			}
			perOp := float64(m.stats.TotalMessages()) / float64(m.ops)
			t.Logf("%d steps, %d events, model %.4f msgs/op, %.1f B/op", steps, len(tr.Events), perOp, float64(m.stats.TotalBytes())/float64(m.ops))
			switch spec.name {
			case "hit-private":
				// Nothing is shared: only the barrier's 2(n-1) messages per round.
				if want := 2.0 * (nodes - 1) / float64(prog.opsPerStep()); perOp < want || perOp > 1.5*want {
					t.Errorf("model charges %.6f msgs per access, want about %.6f (barriers only)", perOp, want)
				}
			case "lock-ring", "lock-ring-tcp":
				// At least the lock transfer and one diff round trip per critical section.
				if perOp < 4 {
					t.Errorf("model charges %.2f msgs per critical section, want at least 4", perOp)
				}
			case "barrier-slab", "barrier-slab-eu":
				if perOp < 12 {
					t.Errorf("model charges %.2f msgs per step, want at least the two barriers", perOp)
				}
			}
		})
	}
}

func TestModelNodeServesWhatWasWritten(t *testing.T) {
	tr := &trace.Trace{}
	n := &modelNode{t: tr, image: make([]byte, 64), proc: 2}
	if err := n.WriteUint64(8, 0xfeed); err != nil {
		t.Fatal(err)
	}
	if v, _ := n.ReadUint64(8); v != 0xfeed {
		t.Errorf("read back %#x", v)
	}
	buf := make([]byte, 4)
	n.Write(20, []byte{1, 2, 3, 4})
	n.Read(buf, 20)
	if buf[3] != 4 {
		t.Errorf("read back %v", buf)
	}
	n.Acquire(3)
	n.Release(3)
	want := []trace.Kind{trace.Write, trace.Read, trace.Write, trace.Read, trace.Acquire, trace.Release}
	if len(tr.Events) != len(want) {
		t.Fatalf("%d events, want %d", len(tr.Events), len(want))
	}
	for i, e := range tr.Events {
		if e.Kind != want[i] || e.Proc != 2 {
			t.Errorf("event %d = %v", i, e)
		}
	}
	if e := tr.Events[0]; e.Addr != 8 || e.Size != 8 {
		t.Errorf("first event covers [%d,+%d)", e.Addr, e.Size)
	}
}
