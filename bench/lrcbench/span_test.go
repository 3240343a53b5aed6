package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestSelfTimeSubtractsChildren(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"two disjoint", []interval{{110, 120}, {150, 180}}, 60},
		{"overlapping counted once", []interval{{110, 150}, {140, 160}}, 50},
		{"clipped to the parent", []interval{{90, 110}, {190, 250}}, 80},
		{"covering", []interval{{50, 300}}, 0},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestNodeTraceAggregatesBeyondKeep(t *testing.T) {
	tr := newNodeTrace(2, 3)
	for op := int64(0); op < 4; op++ {
		base := 1000 * (op + 1)
		tr.beginOp(base)
		tr.add(spAcquire, false, base+10, base+30) // 20
		tr.add(spRead, true, base+40, base+90)     // 50
		tr.endOp(base + 100)                       // self 30
	}
	if len(tr.spans) != 3 {
		t.Errorf("%d spans kept, want 3", len(tr.spans))
	}
	agg, self := mergedAgg([]*nodeTrace{tr})
	if got := agg[spOp][0]; got.n != 4 || got.ns != 400 {
		t.Errorf("op aggregate %+v, want 4 spans of 100", got)
	}
	if got := agg[spRead][1]; got.n != 4 || got.meanNs() != 50 {
		t.Errorf("first-read aggregate %+v, want 4 spans of 50", got)
	}
	if self != 4*30 {
		t.Errorf("op self time %d, want %d", self, 4*30)
	}
	if tr.spans[0].op != 1 || tr.spans[2].op != 1 {
		t.Errorf("spans of the first op carry ids %d and %d, want the shared id 1", tr.spans[0].op, tr.spans[2].op)
	}

	var buf bytes.Buffer
	if err := writeChromeTrace(&buf, "w", []*nodeTrace{tr}, []probeSpan{{"probe.x", 5, 9}}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string
			Ph   string
			Tid  int
			Args struct{ Op, Tag string }
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if len(doc.TraceEvents) != 4 {
		t.Fatalf("%d events, want 3 spans and 1 probe", len(doc.TraceEvents))
	}
	if e := doc.TraceEvents[1]; e.Name != "dsm.read" || e.Ph != "X" || e.Tid != 2 || e.Args.Op != "2.1" || e.Args.Tag != "first" {
		t.Errorf("second event = %+v", e)
	}
}

func TestRecorderSkipsClockOnUntracedHits(t *testing.T) {
	var r recorder
	if !r.quiet(repeat) || !r.quiet(first) || r.quiet(missed) {
		t.Error("an untraced run must time exactly the accesses tagged missed")
	}
	r.tr = newNodeTrace(0, 1)
	if r.quiet(repeat) {
		t.Error("a traced run times every access")
	}
}
