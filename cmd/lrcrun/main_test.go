package main

import (
	"encoding/json"
	"net"
	"strings"
	"sync"
	"testing"

	"repro/internal/wire"
)

func TestRunDemoCounter(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-demo", "counter", "-procs", "2", "-iters", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"counter reached 10", "interconnect:", "node 0:"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

func TestRunDemoQueueLU(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-demo", "queue", "-mode", "LU", "-procs", "2", "-iters", "5"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "queue drained 10 tasks") {
		t.Errorf("output:\n%s", out.String())
	}
}

// TestRunWorkloadOnRuntime runs -app on the live runtime, one row per
// flag it takes: every run must verify its image against the sequential
// reference, never print DIVERGES, and print the row's lines — the
// per-node counters, the -mode, the traffic table of msgs and bytes per
// critical section.
func TestRunWorkloadOnRuntime(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want []string
	}{
		{[]string{"-app", "locusroute", "-mode", "LU"}, []string{"== locusroute", "runtime", "simulator", "access misses",
			"diff requests per access miss", "fallbacks to a creator"}},
		{[]string{"-app", "mp3d", "-mode", "LU"}, []string{"msgs", "wire bytes", "wireB/critsec", "runtime", "simulator"}},
		{[]string{"-app", "mp3d", "-gc", "2"}, []string{"pages held by a keeper for their home", "page requests forwarded",
			"interval records logged at exit on one node"}},
		{[]string{"-app", "mp3d", "-mode", "SC"}, []string{"mode SC", "runtime", "simulator", "ownership moves"}},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var out strings.Builder
			if err := run(append([]string{"-procs", "4", "-scale", "0.05", "-pagesize", "1024"}, tc.args...), &out); err != nil {
				t.Fatal(err)
			}
			got := out.String()
			if strings.Contains(got, "DIVERGES") {
				t.Errorf("image diverged:\n%s", got)
			}
			for _, want := range append(tc.want, "matches sequential reference") {
				if !strings.Contains(got, want) {
					t.Errorf("output missing %q:\n%s", want, got)
				}
			}
		})
	}
}

// TestStatsJSONNamesKinds: -statsjson keys each node's per-kind traffic by
// kind name beside the positional arrays, and the two agree.
func TestStatsJSONNamesKinds(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-demo", "counter", "-procs", "2", "-iters", "5", "-statsjson"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	var rep struct {
		Node []struct {
			KindMsgs  []int64
			KindBytes []int64
		} `json:"nodeStats"`
		NodeKinds []map[string]kindTraffic `json:"nodeKinds"`
	}
	if err := json.Unmarshal([]byte(got[strings.Index(got, "{"):]), &rep); err != nil {
		t.Fatalf("%v in:\n%s", err, got)
	}
	if len(rep.Node) != 2 || len(rep.NodeKinds) != 2 {
		t.Fatalf("%d nodes' stats and %d nodes' kinds, want 2 and 2", len(rep.Node), len(rep.NodeKinds))
	}
	for i, kinds := range rep.NodeKinds {
		for name, k := range map[string]wire.Kind{"lockreq": wire.KLockReq, "lockgrant": wire.KLockGrant, "arrive": wire.KBarrierArrive} {
			if want := (kindTraffic{rep.Node[i].KindMsgs[k], rep.Node[i].KindBytes[k]}); kinds[name] != want {
				t.Errorf("node %d's %s traffic reads %+v, its arrays %+v", i, name, kinds[name], want)
			}
		}
		if kinds["lockreq"].Msgs+kinds["lockgrant"].Msgs == 0 {
			t.Errorf("node %d names no lock traffic: %v", i, kinds)
		}
	}
}

// TestRunDemoEagerModes smokes the demo programs under the eager engines.
func TestRunDemoEagerModes(t *testing.T) {
	for _, mode := range []string{"EI", "EU"} {
		var out strings.Builder
		if err := run([]string{"-demo", "counter", "-mode", mode, "-procs", "3", "-iters", "5"}, &out); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if !strings.Contains(out.String(), "counter reached 15") {
			t.Errorf("%s output:\n%s", mode, out.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-mode", "XX"}, &out); err == nil {
		t.Error("unknown mode accepted")
	} else if !strings.Contains(err.Error(), "LI, LU, EI, EU, SC") {
		t.Errorf("mode error %v does not enumerate the supported set", err)
	}
	if err := run([]string{"-demo", "bogus"}, &out); err == nil {
		t.Error("unknown demo accepted")
	}
	if err := run([]string{"-app", "bogus"}, &out); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run([]string{"-app", "water", "-demo", "counter"}, &out); err == nil {
		t.Error("-app with -demo accepted")
	}
	if err := run([]string{"-demo", "counter", "-gc", "-1"}, &out); err == nil {
		t.Error("negative -gc accepted")
	} else if !strings.Contains(err.Error(), "GCEveryBarriers") {
		t.Errorf("-gc error %v does not name the field", err)
	}
	// The pipeline has one configuration, pages one home map and nodes one
	// application goroutine: their former knobs are not flags.
	for _, flag := range []string{"-nobatch", "-flushmsgs=2", "-flushbytes=2", "-flushdelay=1ms", "-compress=64", "-eagerdiffs", "-placement=block", "-gpn=1"} {
		if err := run([]string{flag}, &out); err == nil {
			t.Errorf("retired flag %s accepted", flag)
		}
	}
}

// TestTransportFlagErrors mirrors the -mode validation style for the
// transport selection: every misuse fails fast, before any socket opens,
// with a message naming the fix.
func TestTransportFlagErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"unknown transport", []string{"-transport", "carrier-pigeon"}, "supported: simnet, tcp"},
		{"tcp without peers", []string{"-transport", "tcp"}, "requires -peers"},
		{"empty peer entry", []string{"-transport", "tcp", "-peers", "a:1,,b:2"}, "empty address at position 1"},
		{"self out of range", []string{"-transport", "tcp", "-peers", "a:1,b:2", "-self", "5"}, "-self 5 outside peer list [0,2)"},
		{"negative self", []string{"-transport", "tcp", "-peers", "a:1,b:2", "-self", "-1"}, "outside peer list"},
		{"procs conflicts with peers", []string{"-transport", "tcp", "-peers", "a:1,b:2", "-procs", "5"}, "conflicts with the 2-entry peer list"},
		{"peers without tcp", []string{"-peers", "a:1,b:2"}, "-peers requires -transport tcp"},
		{"app all over tcp", []string{"-transport", "tcp", "-peers", "a:1,b:2", "-app", "all"}, "start each -app separately"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := run(tc.args, &out)
			if err == nil {
				t.Fatalf("args %v accepted", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// reservePorts grabs n ephemeral loopback ports and releases them for
// the cluster processes to re-bind (the window for another process to
// steal one is negligible in a test environment).
func reservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// TestTCPClusterEndToEnd runs the counter demo as a real two-process TCP
// cluster (two run() invocations, one per node, exactly as two shells
// would) and checks the node-0 process prints the verified result.
func TestTCPClusterEndToEnd(t *testing.T) {
	addrs := reservePorts(t, 2)
	peers := strings.Join(addrs, ",")
	var outs [2]strings.Builder
	var errs [2]error
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = run([]string{
				"-transport", "tcp", "-peers", peers, "-self", string(rune('0' + i)),
				"-demo", "counter", "-mode", "LU", "-iters", "5",
			}, &outs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v\noutput:\n%s", i, err, outs[i].String())
		}
	}
	if got := outs[0].String(); !strings.Contains(got, "counter reached 10") {
		t.Errorf("node 0 process output missing verification:\n%s", got)
	}
	for i, out := range outs {
		if !strings.Contains(out.String(), "interconnect:") {
			t.Errorf("process %d output missing traffic report:\n%s", i, out.String())
		}
	}
}

// TestTCPWorkloadEndToEnd runs a SPLASH workload as a TCP cluster inside
// one test process; the node-0 process verifies the image against the
// sequential reference, the other reports its own traffic.
func TestTCPWorkloadEndToEnd(t *testing.T) {
	addrs := reservePorts(t, 2)
	peers := strings.Join(addrs, ",")
	var outs [2]strings.Builder
	var errs [2]error
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = run([]string{
				"-transport", "tcp", "-peers", peers, "-self", string(rune('0' + i)),
				"-app", "locusroute", "-scale", "0.05", "-pagesize", "1024", "-mode", "LI",
			}, &outs[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("process %d: %v\noutput:\n%s", i, err, outs[i].String())
		}
	}
	if got := outs[0].String(); !strings.Contains(got, "matches sequential reference") {
		t.Errorf("node 0 process did not verify the image:\n%s", got)
	}
	if got := outs[1].String(); !strings.Contains(got, "this process's nodes done") {
		t.Errorf("node 1 process output:\n%s", got)
	}
}
