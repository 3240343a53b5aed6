package dsm

import (
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
	"repro/internal/wire"
)

// Placement unit coverage and hostile home-delta hardening. The live
// tests puppet one side of a two-node TCP cluster: the real System under
// test runs a genuine barrier while the test plays its peer over the raw
// endpoint, which is the only way to put a forged placement payload in
// front of the real decode path.

func TestParsePlacement(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Placement
	}{
		{"", PlaceBlock}, {"block", PlaceBlock}, {"first-touch", PlaceFirstTouch},
	} {
		got, err := ParsePlacement(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePlacement(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, in := range []string{"best-fit", "rr"} {
		if _, err := ParsePlacement(in); err == nil || !strings.Contains(err.Error(), PlacementNames()) {
			t.Errorf("ParsePlacement(%q) = %v, want an error naming the supported set", in, err)
		}
	}
}

func TestInitialHomes(t *testing.T) {
	// Every policy starts from the block table; first-touch's exchange
	// refines it.
	homes := initialHomes(8, 3)
	for pg, h := range homes {
		if int(h) != pg%3 {
			t.Fatalf("home(%d) = %d, want %d", pg, h, pg%3)
		}
	}
	runs := []mem.ProcID{0, 0, 0, 0, 1, 1, 1, 1}
	if got, want := FormatHomeTable(runs), "pg0-3=0,pg4-7=1"; got != want {
		t.Errorf("FormatHomeTable = %q, want %q", got, want)
	}
}

// TestExitPlanDecodeSeverities: a structurally broken exchange payload is
// a hard error, found before anything is allocated for its entries; a
// well-framed home plan with an impossible entry is the soft, recorded-
// and-dropped kind. A good plan round-trips.
func TestExitPlanDecodeSeverities(t *testing.T) {
	const numPages, procs = 8, 2
	good := []homeDelta{{pg: 1, home: 1}, {pg: 6, home: 0}}
	plan := encodeHomePlan(good)
	if homes, homeErr, err := decodeHomePlan(plan, numPages, procs); err != nil || homeErr != nil || !slices.Equal(homes, good) {
		t.Fatalf("round trip = %v, %v, %v; want %v", homes, homeErr, err, good)
	}
	// Hard: truncation, a count beyond the space, a count the length belies.
	for name, data := range map[string][]byte{
		"truncated header": {1, 2},
		"truncated entry":  plan[:len(plan)-1],
		"over-counted":     {0xff, 0xff, 0xff, 0x7f},
		"under-counted":    append([]byte{1, 0, 0, 0}, plan[4:]...),
	} {
		if _, _, err := decodeHomePlan(data, numPages, procs); err == nil {
			t.Errorf("%s plan decoded", name)
		}
		if _, err := decodeClaims(data, 1, numPages); err == nil {
			t.Errorf("%s claims decoded", name)
		}
	}
	// Soft: deltas naming impossible pages/nodes or overlapping.
	for name, homes := range map[string][]homeDelta{
		"page beyond the space": {{pg: 99, home: 1}},
		"node beyond the ring":  {{pg: 1, home: 7}},
		"overlapping deltas":    {{pg: 1, home: 1}, {pg: 1, home: 0}},
	} {
		gotHomes, homeErr, err := decodeHomePlan(encodeHomePlan(homes), numPages, procs)
		if err != nil {
			t.Fatalf("%s: hard error %v, want soft homeErr", name, err)
		}
		if homeErr == nil || gotHomes != nil {
			t.Errorf("%s: homeErr=%v homes=%v, want recorded-and-dropped", name, homeErr, gotHomes)
		}
	}
	// Claims have one severity: the master skips the placement.
	if _, err := decodeClaims(encodeClaims([]touchClaim{{pg: 99, score: 1}}), 1, numPages); err == nil {
		t.Error("claim on a page beyond the space decoded")
	}
}

// puppetCluster builds a two-endpoint TCP loopback cluster where the
// test holds endpoint `puppet` raw and a real System owns the other.
func puppetCluster(t *testing.T, puppet int, cfg Config) (*System, *tcp.Transport) {
	t.Helper()
	cluster, err := tcp.NewLoopbackCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Procs = 2
	cfg.Transport = cluster[1-puppet]
	s, err := New(cfg)
	if err != nil {
		cluster[puppet].Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { cluster[puppet].Close() })
	return s, cluster[puppet]
}

// recvMsgs reads one physical frame off the raw endpoint and expands it.
func recvMsgs(t *testing.T, ep interface {
	Recv() (int, []byte, bool)
}) []*wire.Msg {
	t.Helper()
	_, payload, ok := ep.Recv()
	if !ok {
		t.Fatal("transport closed under the puppet endpoint")
	}
	msgs, err := decodeFrame(payload)
	if err != nil {
		t.Fatal(err)
	}
	return msgs
}

// decodeFrame expands one physical frame into its messages.
func decodeFrame(payload []byte) ([]*wire.Msg, error) {
	if wire.IsBatch(payload) {
		return wire.DecodeBatch(payload)
	}
	m, err := wire.Decode(payload)
	if err != nil {
		return nil, err
	}
	return []*wire.Msg{m}, nil
}

// puppetSend sends m from the puppet endpoint to node dst.
func puppetSend(t *testing.T, ep transport.Endpoint, dst int, m *wire.Msg) {
	t.Helper()
	if err := ep.Send(dst, m.EncodeAppend(framebuf.Get())); err != nil {
		t.Fatal(err)
	}
}

// awaitReply reads the puppet endpoint until a message of the given kind
// and seq arrives, failing the test after 5 s: a node that never answers
// is the failure, not a hang.
func awaitReply(t *testing.T, ep transport.Endpoint, kind wire.Kind, seq uint64) {
	t.Helper()
	got := make(chan bool, 1)
	go func() {
		for {
			_, payload, ok := ep.Recv()
			if !ok {
				got <- false
				return
			}
			msgs, _ := decodeFrame(payload)
			for _, m := range msgs {
				if m.Kind == kind && m.Seq == seq {
					got <- true
					return
				}
			}
		}
	}()
	select {
	case ok := <-got:
		if !ok {
			t.Fatalf("transport closed before %v seq %d arrived", kind, seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("no %v seq %d within 5 s", kind, seq)
	}
}

// TestForgedHomeDeltasRecordedNotApplied: a barrier exit whose home
// section overlaps (page 0 assigned twice) reaches a real non-master
// node's decode path. The node must record the forgery, drop the home
// section without touching its home table, and complete the barrier —
// a placement hint is never worth failing the run over, but silently
// applying a forged one would split the cluster's directories.
func TestForgedHomeDeltasRecordedNotApplied(t *testing.T) {
	s, master := puppetCluster(t, 0, Config{
		SpaceSize: 8192, PageSize: 1024, Mode: EagerInvalidate, Placement: PlaceFirstTouch,
	})
	n := s.Node(1)
	before := n.homes.snapshot()

	barErr := make(chan error, 1)
	go func() { barErr <- n.Barrier(0) }()

	var arrive *wire.Msg
	for arrive == nil {
		for _, m := range recvMsgs(t, master.Endpoint(0)) {
			if m.Kind == wire.KBarrierArrive {
				arrive = m
			}
		}
	}
	// The forged exit: valid framing, overlapping home deltas.
	exit := &wire.Msg{
		Kind: wire.KBarrierExit, Seq: arrive.Seq, A: arrive.A,
		Data: encodeHomePlan([]homeDelta{{pg: 0, home: 1}, {pg: 0, home: 0}}),
	}
	if err := master.Endpoint(0).Send(1, exit.EncodeAppend(framebuf.Get())); err != nil {
		t.Fatal(err)
	}
	if err := <-barErr; err != nil {
		t.Fatalf("barrier failed over a droppable home section: %v", err)
	}
	waitNodeErr(t, n, "overlapping home deltas")
	after := n.homes.snapshot()
	for pg := range before {
		if before[pg] != after[pg] {
			t.Fatalf("forged home delta applied: page %d moved %d -> %d", pg, before[pg], after[pg])
		}
	}
	if cerr := s.Close(); cerr == nil || !strings.Contains(cerr.Error(), "overlapping home deltas") {
		t.Fatalf("Close = %v, want the recorded forged-home cause", cerr)
	}
}

// TestForgedClaimsRecordedNotApplied: the arrival side of the same
// boundary — a peer's exchange payload claiming one page twice is
// recorded at the master and the whole placement skipped, leaving the
// home table untouched.
func TestForgedClaimsRecordedNotApplied(t *testing.T) {
	s, peer := puppetCluster(t, 1, Config{
		SpaceSize: 8192, PageSize: 1024, Mode: EagerInvalidate, Placement: PlaceFirstTouch,
	})
	n := s.Node(0)
	before := n.homes.snapshot()

	barErr := make(chan error, 1)
	go func() { barErr <- n.Barrier(0) }()

	// A genuine node's claim snapshot has one entry per page;
	// encodeClaims encodes whatever it is handed, so the forgery is
	// simply a duplicated claim.
	arrive := &wire.Msg{
		Kind: wire.KBarrierArrive, Seq: 5, A: 0, B: 1,
		Data: encodeClaims([]touchClaim{{pg: 0, score: 9}, {pg: 0, score: 2}}),
	}
	if err := peer.Endpoint(1).Send(0, arrive.EncodeAppend(framebuf.Get())); err != nil {
		t.Fatal(err)
	}
	if err := <-barErr; err != nil {
		t.Fatalf("master barrier failed over a droppable claim payload: %v", err)
	}
	waitNodeErr(t, n, "claims page 0 twice")
	after := n.homes.snapshot()
	for pg := range before {
		if before[pg] != after[pg] {
			t.Fatalf("forged claim applied: page %d moved %d -> %d", pg, before[pg], after[pg])
		}
	}
	if cerr := s.Close(); cerr == nil || !strings.Contains(cerr.Error(), "claims page 0 twice") {
		t.Fatalf("Close = %v, want the recorded forged-claim cause", cerr)
	}
}
