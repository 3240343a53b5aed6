package dsm

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"regexp"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/page"
	"repro/internal/simnet"
	"repro/internal/transport/tcp"
	"repro/internal/vc"
	"repro/internal/wire"
)

// Hostile-peer hardening: anything a remote peer can put on the wire —
// an undecodable frame, a frame of a retired kind, a forged message
// with out-of-range ids or an unknown sequence — must be recorded and
// dropped, surfacing through System.Close, never panicking the node.
// (A panic here would let one corrupt or malicious peer take down every
// process in the cluster.)

// waitNodeErr polls until node n has recorded an error containing want.
func waitNodeErr(t *testing.T, n *Node, want string) {
	t.Helper()
	waitFor(t, fmt.Sprintf("node %d to record an error containing %q", n.id, want), func() bool {
		n.errMu.Lock()
		defer n.errMu.Unlock()
		for _, err := range n.errs {
			if strings.Contains(err.Error(), want) {
				return true
			}
		}
		return false
	})
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// retiredCompressedKind is the kind byte flate-compressed frames opened
// with before they were removed: a frame that starts with it is an
// unknown kind, recorded and dropped like any other.
const (
	retiredCompressedKind = 25
	retiredKindErr        = "unknown message kind 25"
)

// TestCorruptTCPFramesSurfaceOnClose: corrupt frames injected into a
// live loopback TCP cluster — garbage bytes, a damaged batch, a frame of
// the retired compressed kind — are recorded and dropped; the run terminates with
// the causes in System.Close's error instead of a decoder panic.
func TestCorruptTCPFramesSurfaceOnClose(t *testing.T) {
	cluster, err := tcp.NewLoopbackCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	newSys := func(i int) *System {
		s, err := New(Config{
			Procs: 2, SpaceSize: 8192, PageSize: 1024, Mode: LazyUpdate,
			Transport: cluster[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s0, s1 := newSys(0), newSys(1)
	defer s1.Close()
	defer s0.Close()

	// A healthy lock-synchronized exchange first: the hostile frames
	// arrive at a node that is genuinely mid-protocol, not idle.
	lockedWrite := func(n *Node, addr mem.Addr, v uint64) error {
		if err := n.Acquire(0); err != nil {
			return err
		}
		if err := n.WriteUint64(addr, v); err != nil {
			return err
		}
		return n.Release(0)
	}
	lockedRead := func(n *Node, addr mem.Addr) (uint64, error) {
		if err := n.Acquire(0); err != nil {
			return 0, err
		}
		v, err := n.ReadUint64(addr)
		if err != nil {
			return 0, err
		}
		return v, n.Release(0)
	}
	if err := lockedWrite(s1.Node(1), 0, 7); err != nil {
		t.Fatal(err)
	}
	if v, err := lockedRead(s0.Node(0), 0); err != nil || v != 7 {
		t.Fatalf("warm-up read = %d, %v; want 7", v, err)
	}

	inject := s1.tr.Endpoint(1)
	// Garbage bytes in message position (unknown kind 0xff).
	garbage := make([]byte, 24)
	for i := range garbage {
		garbage[i] = 0xff
	}
	// A batch header whose sub-frames are lies.
	badBatch := wire.AppendBatchHeader(nil, 2)
	badBatch = append(badBatch, 0xde, 0xad, 0xbe, 0xef)
	// What used to be a compressed frame (kind byte, inner length 24,
	// flate stream): the kind is retired, so it is one more unknown kind.
	badZ := []byte{retiredCompressedKind, 24, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	for _, frame := range [][]byte{garbage, badBatch, badZ} {
		if err := inject.Send(0, frame); err != nil {
			t.Fatal(err)
		}
	}
	n0 := s0.Node(0)
	waitNodeErr(t, n0, "undecodable frame from 1")
	waitNodeErr(t, n0, "undecodable batch frame from 1")
	waitNodeErr(t, n0, retiredKindErr)

	// The node is still alive: the healthy peer keeps working.
	if err := lockedWrite(s1.Node(1), 1024, 9); err != nil {
		t.Fatal(err)
	}
	if v, err := lockedRead(s0.Node(0), 1024); err != nil || v != 9 {
		t.Fatalf("post-corruption read = %d, %v; want 9", v, err)
	}

	cerr := s0.Close()
	if cerr == nil {
		t.Fatal("Close returned nil despite recorded hostile-frame errors")
	}
	for _, want := range []string{"undecodable frame", "undecodable batch frame", retiredKindErr} {
		if !strings.Contains(cerr.Error(), want) {
			t.Errorf("Close error %q lost the %q cause", cerr, want)
		}
	}
}

// TestHostileSectionsRecordedNotPanic: a synchronization message's
// section is validated against the node's own protocol. A section tagged
// with another mode (a real protocol or an id outside every table), a
// second section and a clock of the wrong width are forgeries: each is
// recorded and dropped while the rest of the message still applies — the
// lock is still granted, the node stays alive.
func TestHostileSectionsRecordedNotPanic(t *testing.T) {
	cases := []struct {
		name     string
		sections []wire.Section
		want     string
	}{
		{"non-resident mode", []wire.Section{{Mode: uint16(EagerInvalidate)}},
			"section for mode EI on an LU node"},
		{"mode beyond the engine table", []wire.Section{{Mode: 0x7f}},
			"section for mode Mode(127) on an LU node"},
		{"duplicate mode sections", []wire.Section{{Mode: uint16(LazyUpdate)}, {Mode: uint16(LazyUpdate)}},
			"duplicate section for mode"},
		{"truncated section clock", []wire.Section{{Mode: uint16(LazyUpdate), VC: []int32{3}}},
			"carries a 1-entry clock"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{Procs: 2, SpaceSize: 8192, PageSize: 1024, Mode: LazyUpdate})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			// Prime the lock: after node 0 acquires and releases, the
			// manager knows a previous holder, so the next request is
			// forwarded there and answered with a payload-building grant —
			// which first validates the request's sections.
			if err := s.Node(0).Acquire(0); err != nil {
				t.Fatal(err)
			}
			if err := s.Node(0).Release(0); err != nil {
				t.Fatal(err)
			}
			msg := &wire.Msg{Kind: wire.KLockReq, Seq: 99, A: 0, B: 1, Sections: tc.sections}
			if err := s.tr.Endpoint(1).Send(0, msg.EncodeAppend(framebuf.Get())); err != nil {
				t.Fatal(err)
			}
			waitNodeErr(t, s.Node(0), tc.want)
			waitFor(t, "the lock to be granted to node 1", func() bool {
				return s.Node(0).stats.kindMsgs[wire.KLockGrant].Load() == 1
			})
			if cerr := s.Close(); cerr == nil || !strings.Contains(cerr.Error(), tc.want) {
				t.Fatalf("Close = %v, want the recorded %q cause", cerr, tc.want)
			}
		})
	}
}

// foreignSection matches the error a node records for a section tagged
// with another protocol than its own.
var foreignSection = regexp.MustCompile(`section for (non-resident mode|mode \S+ on an \S+ node)`)

// TestMismatchedModesFailLoudly: the section tag is the one thing that
// tells a node its peer runs another protocol — LI and LU speak the same
// message kinds. Two Systems over loopback TCP configured with different
// modes run a program that writes, meets at a barrier, reads the peer's
// page, passes a lock and meets again. Whatever each side makes of the
// other's traffic, the run ends within the RPC timeouts, nothing panics,
// and at least one side's Close names the foreign section.
func TestMismatchedModesFailLoudly(t *testing.T) {
	for _, pair := range [][2]Mode{{LazyInvalidate, LazyUpdate}, {LazyInvalidate, EagerUpdate}, {SeqConsistent, LazyInvalidate}} {
		t.Run(pair[0].String()+"-"+pair[1].String(), func(t *testing.T) {
			cluster, err := tcp.NewLoopbackCluster(2)
			if err != nil {
				t.Fatal(err)
			}
			systems := make([]*System, 2)
			for i := range systems {
				systems[i], err = New(Config{Procs: 2, SpaceSize: 8192, PageSize: 1024, Mode: pair[i],
					RPCTimeout: 2 * time.Second, Transport: cluster[i]})
				if err != nil {
					t.Fatal(err)
				}
			}
			program := func(n *Node) error {
				own, peer := mem.Addr(1024*n.ID()), mem.Addr(1024*(1-n.ID()))
				if err := n.WriteUint64(own, 1); err != nil {
					return err
				}
				if err := n.Barrier(0); err != nil {
					return err
				}
				if _, err := n.ReadUint64(peer); err != nil {
					return err
				}
				if err := n.Acquire(0); err != nil {
					return err
				}
				if err := n.WriteUint64(4096, uint64(n.ID())); err != nil {
					return err
				}
				if err := n.Release(0); err != nil {
					return err
				}
				return n.Barrier(1)
			}
			done := make(chan struct{})
			go func() {
				defer close(done)
				var wg sync.WaitGroup
				for _, s := range systems {
					wg.Add(1)
					go func(n *Node) {
						defer wg.Done()
						program(n) // failing is expected; hanging is not
					}(s.Local()[0])
				}
				wg.Wait()
			}()
			select {
			case <-done:
			case <-time.After(30 * time.Second):
				t.Error("the mismatched run did not end within its RPC timeouts")
			}
			named := false
			for _, s := range systems {
				if cerr := s.Close(); cerr != nil && foreignSection.MatchString(cerr.Error()) {
					named = true
				}
			}
			<-done
			if !named {
				t.Error("neither side's Close names a foreign section")
			}
		})
	}
}

// TestForgedFramesRecordedNotPanic: well-formed frames carrying forged
// content — ids outside every table, sequences nobody asked about,
// kinds the engine does not speak — exercise each engine's handler-side
// validation: the cause is recorded for Close and the frame dropped.
func TestForgedFramesRecordedNotPanic(t *testing.T) {
	// A diff for frames that borrow their receive buffer: whatever the
	// handler makes of the message, its frame must be let go exactly once.
	forged, err := page.DiffFromRuns([]page.Run{{Off: 8, Len: 4}}, [][]byte{{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	diffs := []wire.DiffRec{{Page: 0, Proc: 1, Index: 1, Diff: forged}}
	cases := []struct {
		name string
		mode Mode
		msg  *wire.Msg
		want string
	}{
		{"unknown kind", SeqConsistent,
			&wire.Msg{Kind: wire.KDiffReq, Seq: 99, Wants: []wire.Want{{Page: 0}}},
			"unhandled message kind"},
		{"retired compressed kind", LazyInvalidate,
			&wire.Msg{Kind: retiredCompressedKind, Seq: 99},
			retiredKindErr},
		// The first-touch hand-off's own ready/go bytes, retired when its
		// rounds moved onto KGCReady/KGCDone.
		{"retired hand-off ready kind", LazyInvalidate,
			&wire.Msg{Kind: 22, Seq: 99, A: 0, B: 1},
			"unknown message kind 22"},
		{"retired hand-off go kind", EagerInvalidate,
			&wire.Msg{Kind: 23, Seq: 99, A: 0},
			"unknown message kind 23"},
		{"lock request from invalid requester", LazyInvalidate,
			&wire.Msg{Kind: wire.KLockReq, Seq: 99, A: 0, B: 77},
			"lock request"},
		{"page request beyond the space", LazyInvalidate,
			&wire.Msg{Kind: wire.KPageReq, Seq: 99, A: 1 << 20, B: 1},
			"page request"},
		{"eager page request beyond the space", EagerInvalidate,
			&wire.Msg{Kind: wire.KPageReq, Seq: 99, A: 1 << 20, B: 1},
			"page request"},
		{"sc read request from invalid requester", SeqConsistent,
			&wire.Msg{Kind: wire.KPageReq, Seq: 99, A: 0, B: 77},
			"page request"},
		{"page grant for impossible page", EagerInvalidate,
			&wire.Msg{Kind: wire.KPageResp, Seq: 99, A: 1 << 20, Data: make([]byte, 1024)},
			"page install"},
		{"flush reconciliation nobody asked for", EagerUpdate,
			&wire.Msg{Kind: wire.KFlushDone, Seq: 424242, A: 0},
			"flush reconcile"},
		{"invalidation beyond the space", EagerInvalidate,
			&wire.Msg{Kind: wire.KInval, Seq: 99, A: 1 << 20, B: 0},
			"invalidation"},
		{"response nobody awaits", LazyUpdate,
			&wire.Msg{Kind: wire.KDiffResp, Seq: 424242},
			"response routing"},
		{"diffs nobody asked for", LazyInvalidate,
			&wire.Msg{Kind: wire.KDiffResp, Seq: 424242, Diffs: diffs},
			"response routing"},
		{"update beyond the space", EagerUpdate,
			&wire.Msg{Kind: wire.KUpdate, Seq: 99, A: 1 << 20, Diffs: diffs},
			"update of invalid page"},
		{"flush carrying a diff from an invalid flusher", EagerUpdate,
			&wire.Msg{Kind: wire.KFlushReq, Seq: 99, A: 0, B: 77, Diffs: diffs},
			"flush request"},
		{"lock request smuggling diffs", LazyInvalidate,
			&wire.Msg{Kind: wire.KLockReq, Seq: 99, A: 0, B: 77,
				Sections: []wire.Section{{Mode: uint16(LazyInvalidate), Diffs: diffs}}},
			"lock request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := New(Config{Procs: 2, SpaceSize: 8192, PageSize: 1024, Mode: tc.mode})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.tr.Endpoint(1).Send(0, tc.msg.EncodeAppend(framebuf.Get())); err != nil {
				t.Fatal(err)
			}
			waitNodeErr(t, s.Node(0), tc.want)
			if cerr := s.Close(); cerr == nil || !strings.Contains(cerr.Error(), tc.want) {
				t.Fatalf("Close = %v, want the recorded %q cause", cerr, tc.want)
			}
		})
	}
}

// soloTransport hosts only endpoint 0 of an in-process network, so a test
// can play the rest of the cluster by hand.
type soloTransport struct{ *simnet.Network }

func (soloTransport) Local() []int { return []int{0} }

// newSysWithFakePeer starts node 0 of a two-node cluster whose node 1 is
// the test: every message node 0 sends it is answered with reply's result
// under the request's sequence number (nil: no answer).
func newSysWithFakePeer(t *testing.T, mode Mode, reply func(req *wire.Msg) *wire.Msg) *System {
	t.Helper()
	net := simnet.New(2)
	s, err := New(Config{Procs: 2, SpaceSize: 8192, PageSize: 1024, Mode: mode,
		Transport: soloTransport{net}})
	if err != nil {
		t.Fatal(err)
	}
	peer := net.Endpoint(1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			_, frame, ok := peer.Recv()
			if !ok {
				return
			}
			var reqs []*wire.Msg
			var err error
			if wire.IsBatch(frame) {
				reqs, err = wire.DecodeBatch(frame)
			} else {
				var m *wire.Msg
				m, err = wire.Decode(frame)
				reqs = []*wire.Msg{m}
			}
			if err != nil {
				t.Errorf("fake peer: %v", err)
				return
			}
			for _, req := range reqs {
				if resp := reply(req); resp != nil {
					resp.Seq = req.Seq
					if err := peer.Send(0, resp.EncodeAppend(framebuf.Get())); err != nil {
						return // the system is closing
					}
				}
			}
		}
	}()
	t.Cleanup(func() {
		s.Close()
		<-done
	})
	return s
}

// TestForgedPageShipsRecordedNotInstalled: a page ship's expanded length
// is the sender's word, and a response reaches its waiter by sequence
// number alone. Whatever a faulty or hostile home answers a cold miss with
// — a short page, no page, another kind, a clock of the wrong width, a
// short reconciliation base — must fail the access with a recorded cause,
// not become a page copy the next access slices past the end of.
func TestForgedPageShipsRecordedNotInstalled(t *testing.T) {
	const remote = mem.Addr(1024) // page 1, homed at the fake node 1
	answer := func(resp wire.Msg) func(*wire.Msg) *wire.Msg {
		return func(req *wire.Msg) *wire.Msg {
			if req.Kind != wire.KPageReq {
				return nil
			}
			r := resp
			r.A = req.A
			return &r
		}
	}
	cases := []struct {
		name  string
		reply func(*wire.Msg) *wire.Msg
	}{
		{"short page", answer(wire.Msg{Kind: wire.KPageResp, Data: make([]byte, 100)})},
		{"long page", answer(wire.Msg{Kind: wire.KPageResp, Data: make([]byte, 4096)})},
		{"no page", answer(wire.Msg{Kind: wire.KPageResp})},
		{"another kind", answer(wire.Msg{Kind: wire.KDiffResp, Data: make([]byte, 1024)})},
		{"clock of the wrong width", answer(wire.Msg{Kind: wire.KPageResp, Data: make([]byte, 1024), VC: []int32{0, 0, 0}})},
		// No home ships interval records with a page.
		{"clock beside an interval block", answer(wire.Msg{Kind: wire.KPageResp, Data: make([]byte, 1024), VC: []int32{0, -1},
			Intervals: []wire.IntervalRec{{Proc: 1, Index: 0, VC: vc.VC{-1, 0}, Pages: []mem.PageID{1}}}})},
	}
	for _, mode := range []Mode{LazyInvalidate, LazyUpdate} {
		for _, tc := range cases {
			t.Run(mode.String()+"/"+tc.name, func(t *testing.T) {
				s := newSysWithFakePeer(t, mode, tc.reply)
				n := s.Node(0)
				if _, err := n.ReadUint64(remote); err == nil || !strings.Contains(err.Error(), "page install") {
					t.Fatalf("read of a forged page = %v, want a page install error", err)
				}
				if err := n.WriteUint64(remote+1016, 1); err == nil {
					t.Fatal("write to the page succeeded after its ship was refused")
				}
				if cerr := s.Close(); cerr == nil || !strings.Contains(cerr.Error(), "page install") {
					t.Fatalf("Close = %v, want the recorded page install cause", cerr)
				}
			})
		}
	}

	// The eager engines check the grant on its shard worker (the "page grant
	// for impossible page" row above); their other whole-page transfer is
	// the base a home sends a flusher whose copy was invalidated.
	t.Run("EI/short flush base", func(t *testing.T) {
		s := newSysWithFakePeer(t, EagerInvalidate, func(req *wire.Msg) *wire.Msg {
			switch req.Kind {
			case wire.KPageReq:
				return &wire.Msg{Kind: wire.KPageResp, A: req.A, Data: make([]byte, 1024)}
			case wire.KFlushReq:
				return &wire.Msg{Kind: wire.KFlushDone, A: req.A, Data: make([]byte, 100)}
			}
			return nil
		})
		n := s.Node(0)
		if err := n.Acquire(0); err != nil {
			t.Fatal(err)
		}
		if err := n.WriteUint64(remote, 7); err != nil {
			t.Fatal(err)
		}
		if err := n.Release(0); err == nil {
			t.Fatal("release succeeded over a short reconciliation base")
		}
		if cerr := s.Close(); cerr == nil || !strings.Contains(cerr.Error(), "flush reconcile") {
			t.Fatalf("Close = %v, want the recorded flush reconcile cause", cerr)
		}
	})
}

// TestForgedIntervalRecordsRecordedNotAbsorbed: an interval record off the
// wire is validated before the log sees it — the log stores clocks at a
// fixed stride and panics on a short one, and every later reader indexes
// with a record's processor and pages. Each kind of bad record, arriving on
// a lock grant or a barrier exit beside a sound one, is recorded for Close
// and skipped: it leaves no trace in the log or the node's clock, the sound
// record is absorbed, and the synchronization completes.
func TestForgedIntervalRecordsRecordedNotAbsorbed(t *testing.T) {
	sound := wire.IntervalRec{Proc: 0, Index: 0, VC: vc.VC{0, -1}, Pages: []mem.PageID{2}}
	cases := []struct {
		name string
		bad  wire.IntervalRec
		want string
	}{
		{"processor outside the cluster", wire.IntervalRec{Proc: 5, Index: 0, VC: vc.VC{0, -1}, Pages: []mem.PageID{1}},
			"interval record for invalid processor 5"},
		{"short clock", wire.IntervalRec{Proc: 0, Index: 1, VC: vc.VC{1}, Pages: []mem.PageID{1}},
			"interval record p0/1 carries a 1-entry clock (cluster has 2)"},
		{"long clock", wire.IntervalRec{Proc: 0, Index: 1, VC: vc.VC{1, -1, -1}, Pages: []mem.PageID{1}},
			"interval record p0/1 carries a 3-entry clock (cluster has 2)"},
		{"page outside the space", wire.IntervalRec{Proc: 0, Index: 1, VC: vc.VC{1, -1}, Pages: []mem.PageID{1, 99}},
			"interval record p0/1 names invalid page 99"},
		{"index past the high-water mark", wire.IntervalRec{Proc: 0, Index: 3, VC: vc.VC{3, -1}, Pages: []mem.PageID{1}},
			"interval gap for p0: have 0, got 3"},
	}
	// The carriers: node 1 acquires a lock the puppet manages, or arrives at
	// a barrier the puppet is master of, and is answered with the records.
	carriers := []struct {
		name          string
		request, kind wire.Kind
		sync          func(n *Node) error
	}{
		{"grant", wire.KLockReq, wire.KLockGrant, func(n *Node) error { return n.Acquire(0) }},
		{"barrier exit", wire.KBarrierArrive, wire.KBarrierExit, func(n *Node) error { return n.Barrier(0) }},
	}
	for _, mode := range []Mode{LazyInvalidate, LazyUpdate} {
		for _, via := range carriers {
			for _, tc := range cases {
				t.Run(fmt.Sprintf("%v/%s/%s", mode, via.name, tc.name), func(t *testing.T) {
					s, puppet := puppetCluster(t, 0, Config{SpaceSize: 8192, PageSize: 1024, Mode: mode})
					n := s.Node(1)
					done := make(chan error, 1)
					go func() { done <- via.sync(n) }()
					var req *wire.Msg
					for req == nil {
						for _, m := range recvMsgs(t, puppet.Endpoint(0)) {
							if m.Kind == via.request {
								req = m
							}
						}
					}
					// The bad record first: an unsorted block is sorted before
					// it is absorbed, a sorted one is taken as it comes.
					answer := &wire.Msg{Kind: via.kind, Seq: req.Seq, A: req.A, Sections: []wire.Section{{
						Mode: uint16(mode), VC: vc.VC{3, -1}, Intervals: []wire.IntervalRec{tc.bad, sound},
					}}}
					if err := puppet.Endpoint(0).Send(1, answer.EncodeAppend(framebuf.Get())); err != nil {
						t.Fatal(err)
					}
					if err := <-done; err != nil {
						t.Fatalf("%s failed over a droppable forged record: %v", via.name, err)
					}
					waitNodeErr(t, n, tc.want)
					e := lazyOf(n)
					clock, ivs := logOf(e)
					if !reflect.DeepEqual(clock, vc.VC{0, -1}) || e.log.Count() != 1 || len(ivs) != 1 ||
						ivs[0].ID != (core.IntervalID{Proc: 0, Index: 0}) || !reflect.DeepEqual(ivs[0].Pages, sound.Pages) {
						t.Errorf("clock %v, log of %d intervals %+v: want only the sound p0/0 absorbed", clock, e.log.Count(), ivs)
					}
					if cerr := s.Close(); cerr == nil || !strings.Contains(cerr.Error(), "interval absorb") || !strings.Contains(cerr.Error(), tc.want) {
						t.Fatalf("Close = %v, want the recorded interval absorb cause %q", cerr, tc.want)
					}
				})
			}
		}
	}
}

// TestHostileRangeWantsRecordedNotServed: a range want names its members
// by its two ends, so a creator serves one only when both are its own
// intervals on the page and every interval between them is still held.
// Anything else — another processor's range, an end that left the page
// alone, a range running past the node's clock or into collected history,
// and a sound want beside a bad one — is recorded and the whole request
// dropped: nothing is answered, so nothing torn is installed.
func TestHostileRangeWantsRecordedNotServed(t *testing.T) {
	// Node 0 closes intervals 0..2 on page 1 and interval 3 on page 2.
	cases := []struct {
		name  string
		gc    bool
		wants []wire.Want
		want  string
	}{
		{"another processor's intervals", false, []wire.Want{{Page: 1, Proc: 1, Index: 0, Span: 2}}, "not a run of this node's intervals"},
		{"last interval is not on the page", false, []wire.Want{{Page: 1, Proc: 0, Index: 0, Span: 3}}, "not a run of this node's intervals"},
		{"first interval is not on the page", false, []wire.Want{{Page: 2, Proc: 0, Index: 2, Span: 1}}, "not a run of this node's intervals"},
		{"past the node's clock", false, []wire.Want{{Page: 1, Proc: 0, Index: 2, Span: 5}}, "not a run of this node's intervals"},
		{"wraps the index", false, []wire.Want{{Page: 1, Proc: 0, Index: 2, Span: 1<<31 - 1}}, "not a run of this node's intervals"},
		{"negative span", false, []wire.Want{{Page: 1, Proc: 0, Index: 2, Span: -2}}, "not a run of this node's intervals"},
		{"invalid page", false, []wire.Want{{Page: 1 << 20, Proc: 0, Index: 0, Span: 2}}, "on invalid page"},
		{"collected history", true, []wire.Want{{Page: 1, Proc: 0, Index: 0, Span: 2}}, "from collected history"},
		{"a sound want beside a bad one", false, []wire.Want{{Page: 1, Proc: 0, Index: 0, Span: 2}, {Page: 1, Proc: 0, Index: 1, Span: 7}}, "not a run of this node's intervals"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Procs: 2, SpaceSize: 8192, PageSize: 1024, Mode: LazyInvalidate}
			if tc.gc {
				cfg.GCEveryBarriers = 1
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			n := s.Node(0)
			for r := 0; r < 4; r++ {
				addr := mem.Addr(1024 + 8*r)
				if r == 3 {
					addr = 2048
				}
				if err := n.Acquire(0); err != nil {
					t.Fatal(err)
				}
				if err := n.WriteUint64(addr, uint64(100+r)); err != nil {
					t.Fatal(err)
				}
				if err := n.Release(0); err != nil {
					t.Fatal(err)
				}
			}
			if tc.gc {
				var wg sync.WaitGroup
				for p := 0; p < 2; p++ {
					wg.Add(1)
					go func(n *Node) {
						defer wg.Done()
						if err := n.Barrier(0); err != nil {
							t.Error(err)
						}
					}(s.Node(p))
				}
				wg.Wait()
			}
			// In memory, not through the codec, which refuses some of these
			// before the engine sees them.
			e := n.e.(*lazyEngine)
			sent := n.stats.kindMsgs[wire.KDiffResp].Load()
			e.handleDiffReq(&wire.Msg{Kind: wire.KDiffReq, Seq: 99, A: 1, Wants: tc.wants}, 1)
			if err := n.out.flushAll(); err != nil {
				t.Fatal(err)
			}
			if got := n.stats.kindMsgs[wire.KDiffResp].Load(); got != sent {
				t.Errorf("the refused request was answered: %d diff responses sent", got-sent)
			}
			if cerr := s.Close(); cerr == nil || !strings.Contains(cerr.Error(), tc.want) || !strings.Contains(cerr.Error(), "diff request") {
				t.Fatalf("Close = %v, want the recorded diff request cause %q", cerr, tc.want)
			}
		})
	}
}

// TestCollectedHistoryRecordedNotServed: a GC epoch sweeps the records of
// the intervals it covers out of the log, so remote input that names one —
// a want, a diff record LU would store, a lock request or a barrier
// arrival whose clock lies below the swept floor — has nothing to be
// checked against. Each is recorded, never a panic: a want or a diff
// record into collected history is refused, and a grant or an exit built
// for a forged clock is served from the floor.
func TestCollectedHistoryRecordedNotServed(t *testing.T) {
	// Node 0 closes intervals 0..3 on page 1, a GC epoch sweeps them, and it
	// closes interval 4, the one record above the floor.
	cases := []struct {
		name, want string
		// exports says hostile builds a message, whose interval records it
		// returns: they must be exactly the one above the floor.
		exports bool
		hostile func(n *Node, e *lazyEngine) []wire.IntervalRec
	}{
		{"a want into collected history", "asked for diff 0/1 of page 1 from collected history",
			false, func(n *Node, e *lazyEngine) []wire.IntervalRec {
				e.handleDiffReq(&wire.Msg{Kind: wire.KDiffReq, Seq: 99, A: 1, Wants: []wire.Want{{Page: 1, Proc: 0, Index: 1}}}, 1)
				return nil
			}},
		{"a range want into collected history", "asked for diff 0/2 of page 1 from collected history",
			false, func(n *Node, e *lazyEngine) []wire.IntervalRec {
				e.handleDiffReq(&wire.Msg{Kind: wire.KDiffReq, Seq: 99, A: 1, Wants: []wire.Want{{Page: 1, Proc: 0, Index: 2, Span: 2}}}, 1)
				return nil
			}},
		{"a diff record of a collected interval", "diff record 0/3 for page 1 names collected history",
			false, func(n *Node, e *lazyEngine) []wire.IntervalRec {
				d, err := page.DiffFromRuns([]page.Run{{Off: 8, Len: 8}}, [][]byte{make([]byte, 8)})
				if err != nil {
					t.Fatal(err)
				}
				e.mu.Lock()
				defer e.mu.Unlock()
				e.storeDiffRecsLocked([]wire.DiffRec{{Page: 1, Proc: 0, Index: 3, Diff: d}})
				if held := heldCells(e.store[0]); held != 1 {
					t.Errorf("processor 0's ring holds %d intervals, want interval 4's alone: the store took a diff of a collected interval", held)
				}
				return nil
			}},
		{"a lock request below the floor", "forged clock <-1,-1> lies below the collected floor 3 of processor 0",
			true, func(n *Node, e *lazyEngine) []wire.IntervalRec {
				var grant wire.Msg
				n.lockMu.Lock()
				defer n.lockMu.Unlock()
				e.grant(&wire.Msg{Kind: wire.KLockReq, VC: vc.VC{-1, -1}}, &grant)
				return slices.Clone(grant.Intervals)
			}},
		{"a barrier arrival below the floor", "forged clock <2,-1> lies below the collected floor 3 of processor 0",
			true, func(n *Node, e *lazyEngine) []wire.IntervalRec {
				var exit wire.Msg
				e.exit(&wire.Msg{Kind: wire.KBarrierArrive, VC: vc.VC{2, -1}}, &exit)
				return slices.Clone(exit.Intervals)
			}},
	}
	for _, mode := range []Mode{LazyInvalidate, LazyUpdate} {
		for _, tc := range cases {
			t.Run(mode.String()+"/"+tc.name, func(t *testing.T) {
				s, err := New(Config{Procs: 2, SpaceSize: 8192, PageSize: 1024, Mode: mode, GCEveryBarriers: 1})
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				n := s.Node(0)
				section := func(r int) {
					t.Helper()
					if err := n.Acquire(0); err != nil {
						t.Fatal(err)
					}
					if err := n.WriteUint64(mem.Addr(1024+8*r), uint64(100+r)); err != nil {
						t.Fatal(err)
					}
					if err := n.Release(0); err != nil {
						t.Fatal(err)
					}
				}
				for r := 0; r < 4; r++ {
					section(r)
				}
				var wg sync.WaitGroup
				for p := 0; p < 2; p++ {
					wg.Add(1)
					go func(n *Node) {
						defer wg.Done()
						if err := n.Barrier(0); err != nil {
							t.Error(err)
						}
					}(s.Node(p))
				}
				wg.Wait()
				section(4)
				e := lazyOf(n)
				if e.log.Floor(0) != 3 || e.log.Count() != 1 {
					t.Fatalf("after the epoch the log's floor is %d and it holds %d intervals, want 3 and 1", e.log.Floor(0), e.log.Count())
				}
				sent := n.stats.kindMsgs[wire.KDiffResp].Load()
				recs := tc.hostile(n, e)
				if err := n.out.flushAll(); err != nil {
					t.Fatal(err)
				}
				if got := n.stats.kindMsgs[wire.KDiffResp].Load(); got != sent {
					t.Errorf("the refused request was answered: %d diff responses sent", got-sent)
				}
				if tc.exports && (len(recs) != 1 || recs[0].Proc != 0 || recs[0].Index != 4) {
					t.Errorf("exported %+v, want p0/4 alone: served from the floor", recs)
				}
				if cerr := s.Close(); cerr == nil || !strings.Contains(cerr.Error(), tc.want) {
					t.Fatalf("Close = %v, want the recorded cause %q", cerr, tc.want)
				}
			})
		}
	}
}

// TestMismatchedDiffResponsesFailTheMiss: a response reaches its waiter by
// sequence number alone and a miss finds a record by its want's position,
// so whatever a faulty or hostile creator answers with that does not
// answer the request — another kind, a record too few or too many, a
// record for another page, processor or interval, the records of a
// two-page request in the wrong order — must fail the access with an error
// that names the peer, leave every copy invalid and untouched, and surface
// at Close; the run ends, it does not hang.
func TestMismatchedDiffResponsesFailTheMiss(t *testing.T) {
	forged, err := page.DiffFromRuns([]page.Run{{Off: 8, Len: 4}}, [][]byte{{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	rec := func(pg mem.PageID, p mem.ProcID, idx int32) wire.DiffRec {
		return wire.DiffRec{Page: pg, Proc: p, Index: idx, Diff: forged}
	}
	cases := []struct {
		name  string
		pages []mem.PageID // the pages the fake interval wrote; nil is page 0 alone
		resp  wire.Msg
	}{
		{"another kind", nil, wire.Msg{Kind: wire.KPageResp, Data: make([]byte, 1024)}},
		{"no record", nil, wire.Msg{Kind: wire.KDiffResp}},
		{"a record too many", nil, wire.Msg{Kind: wire.KDiffResp, Diffs: []wire.DiffRec{rec(0, 1, 0), rec(0, 1, 1)}}},
		{"another interval", nil, wire.Msg{Kind: wire.KDiffResp, Diffs: []wire.DiffRec{rec(0, 1, 1)}}},
		{"another processor", nil, wire.Msg{Kind: wire.KDiffResp, Diffs: []wire.DiffRec{rec(0, 0, 0)}}},
		{"another page", nil, wire.Msg{Kind: wire.KDiffResp, Diffs: []wire.DiffRec{rec(1, 1, 0)}}},
		// One request asks for both pages' diffs — LI's fault on page 0 takes
		// page 2 along as its sibling, LU revalidates both — and the answer
		// carries them swapped.
		{"two-page records swapped", []mem.PageID{0, 2}, wire.Msg{Kind: wire.KDiffResp, Diffs: []wire.DiffRec{rec(2, 1, 0), rec(0, 1, 0)}}},
	}
	for _, mode := range []Mode{LazyInvalidate, LazyUpdate} {
		for _, tc := range cases {
			t.Run(mode.String()+"/"+tc.name, func(t *testing.T) {
				pages := tc.pages
				if pages == nil {
					pages = []mem.PageID{0}
				}
				var wants []wire.Want
				for _, pg := range pages {
					wants = append(wants, wire.Want{Page: pg, Proc: 1, Index: 0})
				}
				// The fake node 1 holds lock 1 and grants it with the notice of
				// its interval 0 on the pages, which node 0 homes and has written.
				s := newSysWithFakePeer(t, mode, func(req *wire.Msg) *wire.Msg {
					switch req.Kind {
					case wire.KLockReq:
						// The requester's clock travels in its one section: no
						// top-level clock for a manager to forward.
						if req.VC != nil || len(req.Sections) != 1 || Mode(req.Sections[0].Mode) != mode || len(req.Sections[0].VC) != 2 {
							t.Errorf("lock request carries VC %v, sections %+v: want one %v section with the clock", req.VC, req.Sections, mode)
						}
						clock := vc.VC{-1, 0}
						return &wire.Msg{Kind: wire.KLockGrant, A: req.A, Sections: []wire.Section{{Mode: uint16(mode), VC: clock,
							Intervals: []wire.IntervalRec{{Proc: 1, Index: 0, VC: clock, Pages: pages}}}}}
					case wire.KDiffReq:
						if !slices.Equal(req.Wants, wants) {
							t.Errorf("asked for %+v, want %+v", req.Wants, wants)
						}
						if req.B != 0 {
							t.Errorf("diff request carries B = %d, want 0", req.B)
						}
						r := tc.resp
						return &r
					}
					return nil
				})
				n := s.Node(0)
				for _, pg := range pages {
					if err := n.WriteUint64(mem.Addr(pg)*1024, 7); err != nil {
						t.Fatal(err)
					}
				}
				// LU fetches at the acquire, LI at the access.
				err := n.Acquire(1)
				if err == nil {
					_, err = n.ReadUint64(0)
				}
				if err == nil || !strings.Contains(err.Error(), "bad diff response from 1") {
					t.Fatalf("miss over a mismatched response = %v, want a diff fetch error naming node 1", err)
				}
				e := n.e.(*lazyEngine)
				for _, pg := range pages {
					if pc := e.pages[pg]; pc.valid || binary.LittleEndian.Uint64(pc.data) != 7 || pc.data[8] != 0 {
						t.Errorf("page %d's copy changed: valid=%t, first words % x", pg, pc.valid, pc.data[:16])
					}
				}
				if _, err := n.ReadUint64(0); err == nil {
					t.Error("a second read of the page succeeded")
				}
				if cerr := s.Close(); cerr == nil || !strings.Contains(cerr.Error(), "diff fetch") {
					t.Fatalf("Close = %v, want the recorded diff fetch cause", cerr)
				}
			})
		}
	}
}
