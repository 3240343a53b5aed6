package sim

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/proto"
	"repro/internal/trace"
)

func microTrace() *trace.Trace {
	return &trace.Trace{
		NumProcs:    4,
		SpaceSize:   16384,
		NumLocks:    4,
		NumBarriers: 1,
		Name:        "micro",
		Events: []trace.Event{
			{Kind: trace.Write, Proc: 0, Addr: 0, Size: 64},
			{Kind: trace.Barrier, Proc: 0, Sync: 0},
			{Kind: trace.Barrier, Proc: 1, Sync: 0},
			{Kind: trace.Barrier, Proc: 2, Sync: 0},
			{Kind: trace.Barrier, Proc: 3, Sync: 0},
			{Kind: trace.Acquire, Proc: 1, Sync: 2},
			{Kind: trace.Read, Proc: 1, Addr: 0, Size: 64},
			{Kind: trace.Write, Proc: 1, Addr: 64, Size: 8},
			{Kind: trace.Release, Proc: 1, Sync: 2},
			{Kind: trace.Acquire, Proc: 2, Sync: 2},
			{Kind: trace.Read, Proc: 2, Addr: 64, Size: 8},
			{Kind: trace.Release, Proc: 2, Sync: 2},
		},
	}
}

func TestNewProtocolNames(t *testing.T) {
	layout := mem.MustLayout(16384, 1024)
	for _, name := range AllProtocolNames {
		p, err := NewProtocol(name, layout, 4, proto.Options{})
		if err != nil {
			t.Fatalf("NewProtocol(%s): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("engine for %s names itself %s", name, p.Name())
		}
	}
	if _, err := NewProtocol("bogus", layout, 4, proto.Options{}); err == nil {
		t.Error("bogus protocol accepted")
	}
}

func TestReplayCountsEvents(t *testing.T) {
	tr := microTrace()
	for _, name := range AllProtocolNames {
		st, err := Run(tr, name, 1024, proto.Options{})
		if err != nil {
			t.Fatalf("Run(%s): %v", name, err)
		}
		if st.Reads != 2 || st.Writes != 2 || st.Acquires != 2 || st.Releases != 2 || st.Barriers != 1 {
			t.Errorf("%s: event counters = reads %d writes %d acq %d rel %d barriers %d",
				name, st.Reads, st.Writes, st.Acquires, st.Releases, st.Barriers)
		}
		if st.TotalMessages() <= 0 {
			t.Errorf("%s: no messages counted", name)
		}
		if st.TotalBytes() <= st.TotalMessages()*int64(proto.MsgHeaderBytes)-1 {
			t.Errorf("%s: total bytes %d below header floor", name, st.TotalBytes())
		}
	}
}

func TestReplayIsDeterministic(t *testing.T) {
	tr := microTrace()
	for _, name := range ProtocolNames {
		a, err := Run(tr, name, 512, proto.Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(tr, name, 512, proto.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two replays differ", name)
		}
	}
}

func TestReplayIncompleteBarrier(t *testing.T) {
	tr := microTrace()
	tr.Events = tr.Events[:2] // one barrier arrival, never completed
	layout := mem.MustLayout(16384, 1024)
	p, _ := NewProtocol("LI", layout, 4, proto.Options{})
	err := Replay(tr, p)
	if err == nil || !strings.Contains(err.Error(), "incomplete barrier") {
		t.Fatalf("incomplete barrier not reported: %v", err)
	}
	tr = microTrace()
	tr.Events[1].Sync = 1 // the trace declares one barrier
	p, _ = NewProtocol("LI", layout, 4, proto.Options{})
	if err := Replay(tr, p); err == nil || !strings.Contains(err.Error(), "barrier 1 out of range") {
		t.Fatalf("undeclared barrier not reported: %v", err)
	}
}

func TestRunRejectsBadPageSize(t *testing.T) {
	if _, err := Run(microTrace(), "LI", 1000, proto.Options{}); err == nil {
		t.Fatal("non-power-of-two page size accepted")
	}
}

func TestSweepOrdering(t *testing.T) {
	tr := microTrace()
	sizes := []int{2048, 512, 1024}
	results, err := Sweep(tr, []string{"LU", "LI"}, sizes, proto.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("got %d results, want 6", len(results))
	}
	// Ordered by given protocol order, then descending page size.
	wantOrder := []struct {
		p  string
		ps int
	}{{"LU", 2048}, {"LU", 1024}, {"LU", 512}, {"LI", 2048}, {"LI", 1024}, {"LI", 512}}
	for i, w := range wantOrder {
		if results[i].Protocol != w.p || results[i].PageSize != w.ps {
			t.Errorf("result %d = %s/%d, want %s/%d", i, results[i].Protocol, results[i].PageSize, w.p, w.ps)
		}
	}
	for _, r := range results {
		if r.Workload != "micro" {
			t.Errorf("workload label = %q", r.Workload)
		}
	}
}

func TestSweepMatchesIndividualRuns(t *testing.T) {
	tr := microTrace()
	results, err := Sweep(tr, ProtocolNames, []int{512, 4096}, proto.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		want, err := Run(tr, r.Protocol, r.PageSize, proto.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if r.Messages() != want.TotalMessages() || r.DataBytes() != want.TotalBytes() {
			t.Errorf("%s/%d: sweep %d msgs %d bytes, individual run %d msgs %d bytes",
				r.Protocol, r.PageSize, r.Messages(), r.DataBytes(),
				want.TotalMessages(), want.TotalBytes())
		}
	}
}

func TestSeries(t *testing.T) {
	tr := microTrace()
	results, err := Sweep(tr, []string{"LI"}, []int{512, 1024}, proto.Options{})
	if err != nil {
		t.Fatal(err)
	}
	msgs, err := Series(results, "LI", []int{1024, 512}, "messages")
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 {
		t.Fatalf("series length %d", len(msgs))
	}
	if _, err := Series(results, "LI", []int{2048}, "messages"); err == nil {
		t.Error("missing page size not reported")
	}
	if _, err := Series(results, "LI", []int{512}, "bogus"); err == nil {
		t.Error("bogus metric accepted")
	}
	data, err := Series(results, "LI", []int{512}, "data")
	if err != nil || len(data) != 1 {
		t.Errorf("data series: %v %v", data, err)
	}
}

// TestSequentialReuseAcrossProtocols checks the engines share no hidden
// state: interleaving two replays gives the same totals as fresh runs.
func TestEnginesAreIndependent(t *testing.T) {
	tr := microTrace()
	layout := mem.MustLayout(16384, 1024)
	a1, _ := NewProtocol("LI", layout, 4, proto.Options{})
	a2, _ := NewProtocol("LI", layout, 4, proto.Options{})
	if err := Replay(tr, a1); err != nil {
		t.Fatal(err)
	}
	if err := Replay(tr, a2); err != nil {
		t.Fatal(err)
	}
	if a1.Stats().TotalMessages() != a2.Stats().TotalMessages() {
		t.Error("two engines over the same trace disagree")
	}
}
