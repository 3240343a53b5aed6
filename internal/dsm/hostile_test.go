package dsm

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"maps"
	"regexp"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/page"
	"repro/internal/simnet"
	"repro/internal/transport"
	"repro/internal/transport/tcp"
	"repro/internal/vc"
	"repro/internal/wire"
)

// Hostile-peer hardening: whatever a remote peer puts on the wire — an
// undecodable frame, a retired kind, a well-formed message that lies about
// ids, sequences, clocks, intervals, diffs or its own identity — ends in
// the right image or a cause recorded for System.Close, never in a panic,
// a hang or a silently wrong page.
//
// One harness plays the peer. The puppet is one node of a simnet cluster
// one System hosts: a real node that runs only the program's barriers, an
// honest minimal peer, behind a tap on its endpoint through which a script
// speaks for it — sending frames, swapping a message it gets or sends for
// another, preempting a waiting rpc — while the other nodes run a fixed
// program phase by phase. TestHostilePeer's table and FuzzPeer's inputs
// are such scripts.

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

// wideTransport claims a cluster of n endpoints over a transport of fewer.
type wideTransport struct {
	Transport
	n int
}

func (w wideTransport) NumEndpoints() int { return w.n }

// TestMismatchedModesFailLoudly: Systems that disagree on a cluster-wide
// field — LI and LU speak the same message kinds, and no message says
// which protocol wrote it — fail at the join. Over loopback TCP, node 0's
// System is built and its program waits at barrier 0 for node 1, then node
// 1's System is built with one field changed. No wait has a timeout
// (RPCTimeout 0), yet nothing hangs: node 1's New fails naming the field,
// node 0's barrier returns it, so does its next call, and its Close names
// it too.
func TestMismatchedModesFailLoudly(t *testing.T) {
	base := Config{Procs: 2, SpaceSize: 8192, PageSize: 1024}
	for _, row := range []struct {
		name, field    string
		master, joiner func(*Config)
	}{
		{"LI-LU", "Mode", func(c *Config) {}, func(c *Config) { c.Mode = LazyUpdate }},
		{"LI-EU", "Mode", func(c *Config) {}, func(c *Config) { c.Mode = EagerUpdate }},
		{"SC-LI", "Mode", func(c *Config) { c.Mode = SeqConsistent }, func(c *Config) {}},
		{"Procs", "Procs", func(c *Config) {}, func(c *Config) { c.Procs = 3 }},
		{"PageSize", "PageSize", func(c *Config) {}, func(c *Config) { c.PageSize = 512 }},
		{"SpaceSize", "SpaceSize", func(c *Config) {}, func(c *Config) { c.SpaceSize = 16384 }},
		{"GCEveryBarriers", "GCEveryBarriers", func(c *Config) {}, func(c *Config) { c.GCEveryBarriers = 2 }},
	} {
		t.Run(row.name, func(t *testing.T) {
			cluster, err := tcp.NewLoopbackCluster(2)
			if err != nil {
				t.Fatal(err)
			}
			mcfg, jcfg := base, base
			row.master(&mcfg)
			row.joiner(&jcfg)
			mcfg.Transport, jcfg.Transport = cluster[0], cluster[1]
			if jcfg.Procs != base.Procs {
				jcfg.Transport = wideTransport{cluster[1], jcfg.Procs}
			}
			s0, err := New(mcfg)
			if err != nil {
				cluster[1].Close()
				t.Fatal(err)
			}
			named := regexp.MustCompile(`node 1's Config\.` + row.field + ` \S+ differs from the master's \S+`)
			waited := make(chan error, 1)
			go func() { waited <- s0.Node(0).Barrier(0) }()
			joined := make(chan error, 1)
			go func() {
				s1, err := New(jcfg)
				if err == nil {
					s1.Close()
				}
				joined <- err
			}()
			select {
			case err := <-joined:
				if err == nil || !named.MatchString(err.Error()) {
					t.Errorf("the joiner's New = %v, want it to name Config.%s", err, row.field)
				}
			case <-time.After(peerDeadline):
				t.Fatal("hang: the joiner's New did not return")
			}
			select {
			case err := <-waited:
				if err == nil || !named.MatchString(err.Error()) {
					t.Errorf("the master's barrier = %v, want it to name Config.%s", err, row.field)
				}
			case <-time.After(peerDeadline):
				s0.Close()
				t.Fatal("hang: the master's barrier did not return")
			}
			if err := s0.Node(0).Barrier(0); err == nil || !named.MatchString(err.Error()) {
				t.Errorf("the master's barrier after the join = %v, want it to name Config.%s", err, row.field)
			}
			if err := s0.Close(); err == nil || !named.MatchString(err.Error()) {
				t.Errorf("the master's Close = %v, want it to name Config.%s", err, row.field)
			}
		})
	}
}

// sniffer is an endpoint that keeps every message its node sends.
type sniffer struct {
	transport.Endpoint
	mu   *sync.Mutex
	sent *[]*wire.Msg
}

func (s sniffer) Send(dst int, frame []byte) error {
	if m, err := wire.Decode(slices.Clone(frame)); err == nil {
		s.mu.Lock()
		*s.sent = append(*s.sent, m)
		s.mu.Unlock()
	}
	return s.Endpoint.Send(dst, frame)
}

type sniffNet struct {
	*simnet.Network
	eps []transport.Endpoint
}

func (n sniffNet) Endpoint(i int) transport.Endpoint { return n.eps[i] }

// TestSyncMessagesCarryNoSection: under every protocol, no message a lock
// round or a barrier round sends carries a wire.Section; a lazy request's
// or arrival's payload is its flat clock, one entry per node, and a grant
// or exit carries a clock exactly when write notices follow it.
func TestSyncMessagesCarryNoSection(t *testing.T) {
	const procs = 3
	for _, mode := range Modes {
		t.Run(mode.String(), func(t *testing.T) {
			var mu sync.Mutex
			var sent []*wire.Msg
			net := sniffNet{Network: simnet.New(procs)}
			for i := range procs {
				net.eps = append(net.eps, sniffer{net.Network.Endpoint(i), &mu, &sent})
			}
			s, err := New(Config{Procs: procs, SpaceSize: 8192, PageSize: 1024, Mode: mode, Transport: net})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for _, n := range s.Local() {
				wg.Add(1)
				go func() {
					defer wg.Done()
					err := errors.Join(n.WriteUint64(mem.Addr(1024*n.ID()), 1), n.Barrier(0), n.Acquire(0))
					if err == nil {
						var v uint64
						v, err = n.ReadUint64(4096)
						err = errors.Join(err, n.WriteUint64(4096, v+1), n.Release(0), n.Barrier(1))
					}
					if err == nil { // a lock round and a barrier with nothing to notice
						err = errors.Join(n.Acquire(1), n.Release(1), n.Barrier(2))
					}
					if err != nil {
						t.Errorf("node %d: %v", n.ID(), err)
					}
				}()
			}
			wg.Wait()
			must(t, s.Close())
			seen := map[wire.Kind]int{}
			for _, m := range sent {
				seen[m.Kind]++
				if m.Sections != nil {
					t.Errorf("%v carries %d sections", m.Kind, len(m.Sections))
				}
				lazy := mode <= LazyUpdate
				switch m.Kind {
				case wire.KLockReq, wire.KBarrierArrive:
					if lazy != (len(m.VC) == procs) {
						t.Errorf("%v carries a %d-entry clock", m.Kind, len(m.VC))
					}
				case wire.KLockGrant, wire.KBarrierExit:
					if want := len(m.Intervals) > 0; (m.VC != nil) != want || want && len(m.VC) != procs {
						t.Errorf("%v carries a %d-entry clock beside %d records", m.Kind, len(m.VC), len(m.Intervals))
					}
				}
				m.Release()
			}
			for _, k := range []wire.Kind{wire.KLockReq, wire.KLockGrant, wire.KBarrierArrive, wire.KBarrierExit} {
				if seen[k] == 0 {
					t.Errorf("no %v was sent: %v", k, seen)
				}
			}
		})
	}
}

// --- the puppet harness ---

// The cluster: three nodes, eight 1 KiB pages homed pg % 3. The puppet is
// node 0 (barrier master, manager of lock 0) or node 2. Node 1 homes the
// pages the program shares (1, 4, 7), and writes two words of page 1 in its
// first window, so a page listed twice on the dirty list fails Close; the
// other program node, r, reads the puppet's page pid+3 cold and writes it
// under lock 1: a copyset of one. A
// run that collects (withGC) meets at each barrier twice: the barrier's GC
// epoch is discarded at the next one, so the second meeting is where the
// first one's epoch goes.
const (
	peerProcs    = 3
	peerTimeout  = 250 * time.Millisecond
	peerDeadline = 12 * peerTimeout // for any call or Close: past it the run hangs
	withGC       = 8                // mode byte flag: GCEveryBarriers = 1
)

// phase is a point of the program a script step is armed at.
type phase uint8

const (
	atStart    phase = iota // before the writes
	atBarrier0              // before barrier 0
	atDiscard0              // before barrier 0 again, in a run that collects
	atRead                  // before r's cold reads
	atLocks                 // before the locked increments
	atBarrier1              // before barrier 1
	atDiscard1              // before barrier 1 again, in a run that collects
	atEnd                   // after the program
	numPhases
)

// step is one script entry, armed as its phase starts. opSend sends frame
// to node arg as the puppet. opSwap swallows the next message of kind arg
// to or from the puppet and puts frame in its place: back to the sender of
// one the puppet got, on to the receiver of one it sent (an empty frame
// just drops it). opPreempt sends frame to node arg once that node waits
// on an rpc for a response of the frame's kind. A swap or preempt gets the
// swallowed or awaited seq patched in.
type step struct {
	op    byte
	at    phase
	arg   byte
	frame []byte
}

const (
	opSend = iota
	opSwap
	opPreempt
	numOps
)

func send(at phase, to int, m *wire.Msg) step { return step{opSend, at, byte(to), m.EncodeAppend(nil)} }
func swap(at phase, k wire.Kind, m *wire.Msg) step {
	return step{opSwap, at, byte(k), m.EncodeAppend(nil)}
}
func preempt(at phase, to int, m *wire.Msg) step {
	return step{opPreempt, at, byte(to), m.EncodeAppend(nil)}
}

// patch re-encodes frame with seq (unless 0), into a buffer of its own; a
// frame that does not decode is copied as is.
func patch(frame []byte, seq uint64) []byte {
	m, err := wire.Decode(slices.Clone(frame))
	if err != nil {
		return append(framebuf.Get(), frame...)
	}
	defer m.Release()
	m.Seq = cmp.Or(seq, m.Seq)
	return m.EncodeAppend(framebuf.Get())
}

// encodeScript is FuzzPeer's form of a script: op, phase, arg and a
// two-byte length before each frame; decodeScript reads any bytes as one.
func encodeScript(steps []step) (b []byte) {
	for _, s := range steps {
		b = append(binary.LittleEndian.AppendUint16(append(b, s.op, byte(s.at), s.arg), uint16(len(s.frame))), s.frame...)
	}
	return b
}

func decodeScript(b []byte) (steps []step) {
	for len(b) >= 5 {
		n := min(int(binary.LittleEndian.Uint16(b[3:])), len(b)-5)
		steps = append(steps, step{b[0] % numOps, phase(b[1] % byte(numPhases)), b[2], b[5 : 5+n]})
		b = b[5+n:]
	}
	return steps
}

// tap is the puppet's endpoint: it keeps every message the puppet gets and
// carries out the armed swaps.
type tap struct {
	transport.Endpoint
	mu    sync.Mutex
	swaps []step
	got   []*wire.Msg // held until the run is closed
}

// tapNet is simnet with one endpoint behind a tap, or another wrapper.
type tapNet struct {
	*simnet.Network
	tap transport.Endpoint
}

func (n tapNet) Endpoint(i int) transport.Endpoint {
	if i == n.tap.ID() {
		return n.tap
	}
	return n.Network.Endpoint(i)
}

// newTapSys starts a System over simnet with node pid behind a tap. The
// caller closes the System.
func newTapSys(t testing.TB, cfg Config, pid int) (*System, *tap) {
	net := simnet.New(cfg.Procs)
	tp := &tap{Endpoint: net.Endpoint(pid)}
	cfg.Transport = tapNet{net, tp}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, tp
}

func (t *tap) Recv() (int, []byte, bool) {
	for {
		src, frame, ok := t.Endpoint.Recv()
		if !ok {
			return src, frame, ok
		}
		stand, swapped := t.pass(true, frame)
		if !swapped {
			return src, frame, true
		}
		if len(stand) > 0 {
			t.Endpoint.Send(src, stand)
		}
	}
}

func (t *tap) Send(dst int, frame []byte) error {
	if stand, swapped := t.pass(false, frame); swapped {
		if len(stand) == 0 {
			return nil
		}
		frame = stand
	}
	return t.Endpoint.Send(dst, frame)
}

// pass reports whether a swap takes the message of a frame the puppet got
// (in) or sent, and returns its stand-in, which goes back to a got
// frame's sender or on in a sent frame's place; an empty one withholds the
// message.
func (t *tap) pass(in bool, frame []byte) (stand []byte, swapped bool) {
	m, err := wire.Decode(slices.Clone(frame))
	if err != nil {
		return nil, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if i := slices.IndexFunc(t.swaps, func(s step) bool { return wire.Kind(s.arg) == m.Kind }); i >= 0 {
		stand, swapped = patch(t.swaps[i].frame, m.Seq), true
		t.swaps = slices.Delete(t.swaps, i, i+1)
	}
	if in {
		t.got = append(t.got, m)
	} else {
		m.Release()
	}
	return stand, swapped
}

// received returns the messages of kind k the puppet has got.
func (t *tap) received(k wire.Kind) []*wire.Msg {
	t.mu.Lock()
	defer t.mu.Unlock()
	return slices.DeleteFunc(slices.Clone(t.got), func(m *wire.Msg) bool { return m.Kind != k })
}

// peerRun is one run of the program against a puppet.
type peerRun struct {
	s         *System
	tap       *tap
	pid       int
	h, r      *Node // node 1; the other program node
	mu        sync.Mutex
	errs      []error // every failed call
	cold, own uint64  // r's reads of page 1 and of the puppet's page
	lockReads map[mem.LockID][]uint64
	wrote     map[mem.ProcID]uint64 // each node's write of lock 1's counter
}

func (pr *peerRun) note(errs ...error) {
	pr.mu.Lock()
	defer pr.mu.Unlock()
	if err := errors.Join(errs...); err != nil {
		pr.errs = append(pr.errs, err)
	}
}

// lockedAdd increments the word at addr under lock l (r writes the
// puppet's page under lock 1 too), releasing the lock whatever failed.
func (pr *peerRun) lockedAdd(n *Node, l mem.LockID, addr mem.Addr) {
	err := n.Acquire(l)
	acquired := err == nil
	if acquired {
		var v uint64
		if v, err = n.ReadUint64(addr); err == nil {
			err = n.WriteUint64(addr, v+1)
			pr.mu.Lock()
			pr.lockReads[l] = append(pr.lockReads[l], v)
			if l == 1 && err == nil {
				pr.wrote[n.id] = v + 1
			}
			pr.mu.Unlock()
		}
		if err == nil && n == pr.r && l == 1 {
			err = n.WriteUint64(mem.Addr(pr.pid+3)*1024+8, 3)
		}
	}
	if rel := n.Release(l); acquired {
		err = errors.Join(err, rel)
	}
	pr.note(err)
}

// program runs phase at on node n; the puppet runs the barriers alone.
func (pr *peerRun) program(n *Node, at phase) {
	switch {
	case at == atBarrier0 || at == atBarrier1 || (at == atDiscard0 || at == atDiscard1) && pr.s.cfg.GCEveryBarriers > 0:
		pr.note(n.Barrier(mem.BarrierID(at / atBarrier1)))
	case int(n.id) == pr.pid:
	case at == atStart && n == pr.h:
		pr.note(n.WriteUint64(1024, 0x1111), n.WriteUint64(1032, 0x2222))
	case at == atStart:
		pr.note(n.WriteUint64(4096, 0x2222))
	case at == atRead && n == pr.r:
		v, err := n.ReadUint64(1024)
		w, err2 := n.ReadUint64(mem.Addr(pr.pid+3) * 1024)
		pr.note(err, err2)
		pr.mu.Lock()
		pr.cold, pr.own = v, w
		pr.mu.Unlock()
	case at == atLocks:
		pr.lockedAdd(n, 1, 7168)
		pr.lockedAdd(n, mem.LockID(pr.pid), 7176)
	}
}

// preempt sends st's frame once its node waits on an rpc for a response of
// the frame's kind, with that rpc's seq, and reports whether it did.
func (pr *peerRun) preempt(st step) bool {
	n, seq := pr.s.Node(int(st.arg)%peerProcs), uint64(0)
	n.waiterMu.Lock()
	for s, w := range n.waiters {
		if len(st.frame) > 0 && w.want == wire.Kind(st.frame[0]) {
			seq = max(seq, s)
		}
	}
	n.waiterMu.Unlock()
	if seq != 0 {
		pr.tap.Endpoint.Send(int(n.id), patch(st.frame, seq))
	}
	return seq != 0
}

// runPeer runs the program phase by phase on a cluster whose node pid is a
// puppet running script, failing t if a phase misses the deadline. The
// caller checks the run and closes it.
func runPeer(t *testing.T, cfg Config, pid int, script []step) *peerRun {
	s, tp := newTapSys(t, cfg, pid)
	pr := &peerRun{s: s, tap: tp, pid: pid, h: s.Node(1), r: s.Node(2 - pid), lockReads: map[mem.LockID][]uint64{}, wrote: map[mem.ProcID]uint64{}}
	for at := atStart; at < numPhases; at++ {
		var preempts []step
		for _, st := range script {
			switch dst := int(st.arg) % cfg.Procs; {
			case st.at != at:
			case st.op == opSwap:
				tp.mu.Lock()
				tp.swaps = append(tp.swaps, st)
				tp.mu.Unlock()
			case dst == pid:
			case st.op == opPreempt:
				preempts = append(preempts, st)
			default:
				tp.Endpoint.Send(dst, patch(st.frame, 0))
			}
		}
		if at == atEnd {
			break
		}
		var wg sync.WaitGroup
		start := func(n *Node) {
			wg.Add(1)
			go func() { defer wg.Done(); pr.program(n, at) }()
		}
		for _, n := range s.Local() {
			if int(n.id) != pid {
				start(n)
			}
		}
		for giveUp := time.Now().Add(peerTimeout); len(preempts) > 0 && time.Now().Before(giveUp); time.Sleep(100 * time.Microsecond) {
			preempts = slices.DeleteFunc(preempts, pr.preempt)
		}
		start(s.Node(pid)) // last, so a preempted node still waits in the barrier
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(peerDeadline):
			go s.Close()
			t.Fatalf("hang: phase %d of the program did not return within %v", at, peerDeadline)
		}
	}
	return pr
}

// close closes the System within the deadline and checks what holds
// whatever the puppet sent: no write-set violation, every lazy log closed
// under happened-before, and the lazy lock and diff requests the puppet
// got shaped as the protocol sends them.
func (pr *peerRun) close(t *testing.T) error {
	closed := make(chan error, 1)
	go func() { closed <- pr.s.Close() }()
	var err error
	select {
	case err = <-closed:
	case <-time.After(peerDeadline):
		t.Fatalf("hang: System.Close did not return within %v", peerDeadline)
	}
	if err != nil && strings.Contains(err.Error(), "write set") {
		t.Errorf("Close = %v: the write-set check failed", err)
	}
	for _, n := range pr.s.Local() {
		if e, ok := n.e.(*lazyEngine); ok {
			checkLogClosed(t, e)
		}
	}
	pr.tap.mu.Lock()
	defer pr.tap.mu.Unlock()
	for _, m := range pr.tap.got {
		if mode := pr.s.cfg.Mode; mode <= LazyUpdate && (m.Kind == wire.KDiffReq && m.B != 0 || m.Kind == wire.KLockReq &&
			(m.Sections != nil || len(m.VC) != peerProcs || m.Intervals != nil || m.Diffs != nil)) {
			t.Errorf("the puppet got %v with B %d, clock %v, %d records, %d diffs, sections %+v", m.Kind, m.B, m.VC, len(m.Intervals), len(m.Diffs), m.Sections)
		}
		m.Release()
	}
	pr.tap.got = nil
	return err
}

// checkImage checks what the program read: node 1's write through a cold
// copy, the puppet's zeros, and each counter once at 0 and once at 1.
func (pr *peerRun) checkImage(t *testing.T) {
	if pr.cold != 0x1111 || pr.own != 0 {
		t.Errorf("cold reads = %#x, %#x; want 0x1111, 0", pr.cold, pr.own)
	}
	for _, l := range []mem.LockID{1, mem.LockID(pr.pid)} {
		if got := slices.Sorted(slices.Values(pr.lockReads[l])); !slices.Equal(got, []uint64{0, 1}) {
			t.Errorf("lock %d's counter read %v, want 0 and 1", l, got)
		}
	}
}

// peerConfig decodes a mode byte: a mode index and withGC. The higher
// bits, bit 16 included (which once chose a page placement), are ignored,
// so any saved input still decodes.
func peerConfig(b byte) Config {
	cfg := Config{Procs: peerProcs, SpaceSize: 8 * 1024, PageSize: 1024, Mode: Modes[int(b&7)%len(Modes)], RPCTimeout: peerTimeout}
	if b&withGC != 0 {
		cfg.GCEveryBarriers = 1
	}
	return cfg
}

// joinOf returns the join body of peerConfig(b).
func joinOf(b byte) []byte {
	cfg := peerConfig(b)
	return cfg.joinBody()
}

// --- the table ---

// hostileRow is one script and what it must end in under each of modes.
type hostileRow struct {
	name   string
	modes  []Mode
	pid    int  // the puppet: 0 or 2
	flags  byte // withGC
	script []step
	want   string // the cause Close's error names; "" wants none
	fails  string // what some call's error names; "" wants every call to succeed
	image  bool   // the program reads what it wrote
	check  func(t *testing.T, pr *peerRun)
}

var (
	lazyModes      = []Mode{LazyInvalidate, LazyUpdate}
	li, lu, ei, eu = []Mode{LazyInvalidate}, []Mode{LazyUpdate}, []Mode{EagerInvalidate}, []Mode{EagerUpdate}
	sc             = []Mode{SeqConsistent}
	// forged is four bytes at offset 16 of a page, a word nothing writes.
	forged, _ = page.DiffFromRuns([]page.Run{{Off: 16, Len: 4}}, [][]byte{{1, 2, 3, 4}})
)

func rec(pg mem.PageID, p mem.ProcID, idx int32) wire.DiffRec {
	return wire.DiffRec{Page: pg, Proc: p, Index: idx, Diff: forged}
}

// frameRow sends node 1 m from puppet 2 before the program starts.
func frameRow(name string, modes []Mode, want string, m *wire.Msg) hostileRow {
	return hostileRow{name: name, modes: modes, pid: 2, script: []step{send(atStart, 1, m)}, want: want}
}

// wantsRow sends node 1, after the program, a diff request for wants it
// must refuse whole.
func wantsRow(name string, modes []Mode, flags byte, want string, wants ...wire.Want) hostileRow {
	return hostileRow{name: name, modes: modes, pid: 2, flags: flags, want: want, check: unanswered, script: []step{send(atEnd, 1, &wire.Msg{Kind: wire.KDiffReq, Seq: 99, A: 2, Wants: wants})}}
}

// requestRow asks node 1, lock 1's manager, for the lock after the program
// with a request it must refuse whole.
func requestRow(name, want string, m *wire.Msg) hostileRow {
	m.Kind, m.Seq, m.A, m.B = wire.KLockReq, 99, 1, 2
	return hostileRow{name: name, modes: lu, pid: 2, want: want, check: notQueued, script: []step{send(atEnd, 1, m)}}
}

// joinRow sends the master, before the program, puppet 2's join with body,
// which stops every node on want.
func joinRow(name, want string, body []byte) hostileRow {
	named := func(err error) bool { return err != nil && strings.Contains(err.Error(), want) }
	return hostileRow{name: name, modes: li, pid: 2, want: want, fails: want, check: stoppedOn(strconv.Quote(want), named),
		script: []step{send(atStart, 0, &wire.Msg{Kind: wire.KJoin, Seq: 99, B: 2, Data: body})}}
}

// carriesSection is what a node records for a message of kind k from 0
// or 2 that carries a wire.Section.
func carriesSection(k wire.Kind, from int) string {
	return fmt.Sprintf("%v from %d refused: it carries a section", k, from)
}

// shipRow answers r's cold read of the puppet's page with m, and its write
// of the page under lock 1 again.
func shipRow(name string, m wire.Msg) hostileRow {
	m.A = 5
	want, fails := "page install", "page install"
	if m.Kind != wire.KPageResp { // refused before the install sees it
		want, fails = "diffresp answers seq", "response refused"
	}
	return hostileRow{name: name, modes: lazyModes, pid: 2, want: want, fails: fails, check: refusedTwice(fails), script: []step{wrote5, swap(atRead, wire.KPageReq, &m), swap(atLocks, wire.KPageReq, &m)}}
}

// wrote5 is the puppet's arrival at barrier 0 with a write notice of its
// page 5: r, the master, then knows a writer of the page, so its cold
// misses of it ship the page where they would make the zero page.
var wrote5 = swap(atBarrier0, wire.KBarrierArrive, &wire.Msg{Kind: wire.KBarrierArrive, B: 2,
	VC: vc.VC{-1, -1, 0}, Intervals: []wire.IntervalRec{{Proc: 2, VC: vc.VC{-1, -1, 0}, Pages: []mem.PageID{5}}}})

// intervalRows grant lock 0 as its manager, or let node 1 out of barrier 0
// in the master's stead, with a bad interval record beside a sound one:
// only the sound one may land.
func intervalRows() (rows []hostileRow) {
	for _, kind := range []wire.Kind{wire.KLockGrant, wire.KBarrierExit} {
		for _, c := range []struct {
			name, want string
			bad        wire.IntervalRec
		}{
			{"processor outside the cluster", "interval record for invalid processor 5", wire.IntervalRec{Proc: 5, VC: vc.VC{0, -1, -1}, Pages: []mem.PageID{1}}},
			{"short clock", "interval record p0/1 carries a 1-entry clock (cluster has 3)", wire.IntervalRec{Index: 1, VC: vc.VC{1}, Pages: []mem.PageID{1}}},
			{"long clock", "interval record p0/1 carries a 4-entry clock (cluster has 3)", wire.IntervalRec{Index: 1, VC: vc.VC{1, -1, -1, -1}, Pages: []mem.PageID{1}}},
			{"page outside the space", "interval record p0/1 names invalid page 99", wire.IntervalRec{Index: 1, VC: vc.VC{1, -1, -1}, Pages: []mem.PageID{1, 99}}},
			{"index past the high-water mark", "interval gap for p0: have 0, got 3", wire.IntervalRec{Index: 3, VC: vc.VC{3, -1, -1}, Pages: []mem.PageID{1}}},
			// FuzzPeer finding: a clock that names intervals nobody sent.
			{"clock past what the node knows", "interval record p0/1 is stamped <1,9,-1>", wire.IntervalRec{Index: 1, VC: vc.VC{1, 9, -1}, Pages: []mem.PageID{1}}},
		} { // the bad record first: a block is sorted before it is absorbed
			m := &wire.Msg{Kind: kind, VC: vc.VC{3, -1, -1}, Intervals: []wire.IntervalRec{c.bad, sound}}
			st, name := swap(atLocks, wire.KLockReq, m), "grant/"
			if kind == wire.KBarrierExit {
				st, name = preempt(atBarrier0, 1, m), "barrier exit/"
			}
			rows = append(rows, hostileRow{name: name + c.name, modes: lazyModes, want: c.want, check: soundOnly, script: []step{st}})
		}
	}
	return rows
}

var sound = wire.IntervalRec{VC: vc.VC{0, -1, -1}, Pages: []mem.PageID{2}}

// mismatchRows grant lock 0 with the puppet's interval 0 on page 7 (and
// page 1), then answer the diff request for it with a response that does
// not answer it, and the next two (LU's revalidation at barrier 1, the
// check's second read) with no record.
func mismatchRows() (rows []hostileRow) {
	p7 := []mem.PageID{7}
	for _, c := range []struct {
		name  string
		modes []Mode
		pages []mem.PageID
		diffs []wire.DiffRec // nil: a page response
	}{
		{"another kind", lazyModes, p7, nil},
		{"no record", lazyModes, p7, []wire.DiffRec{}},
		{"a record too many", lazyModes, p7, []wire.DiffRec{rec(7, 0, 0), rec(7, 0, 1)}},
		{"another interval", lazyModes, p7, []wire.DiffRec{rec(7, 0, 1)}},
		{"another processor", lazyModes, p7, []wire.DiffRec{rec(7, 1, 0)}},
		{"another page", lazyModes, p7, []wire.DiffRec{rec(6, 0, 0)}},
		// One request for both pages: LI's fault on page 7 takes page 1 along
		// as its sibling, LU revalidates both in page order.
		{"LI/two-page records swapped", li, []mem.PageID{1, 7}, []wire.DiffRec{rec(1, 0, 0), rec(7, 0, 0)}},
		{"LU/two-page records swapped", lu, []mem.PageID{1, 7}, []wire.DiffRec{rec(7, 0, 0), rec(1, 0, 0)}},
		// The puppet is the interval's creator: it may not say it does not
		// hold its diff, and nobody else is asked.
		{"not held by its creator", lazyModes, p7, []wire.DiffRec{{Page: 7, Proc: 0, Index: 0, NotHeld: true}}},
	} {
		resp, want, fails := &wire.Msg{Kind: wire.KDiffResp, Diffs: c.diffs}, "bad diff response from 0", "bad diff response from 0"
		if c.diffs == nil { // refused before the miss sees it
			resp, want, fails = &wire.Msg{Kind: wire.KPageResp, Data: make([]byte, 1024)}, "pageresp answers seq", "response refused"
		}
		notice, none := wire.IntervalRec{VC: vc.VC{0, -1, -1}, Pages: c.pages}, &wire.Msg{Kind: wire.KDiffResp}
		rows = append(rows, hostileRow{name: c.name, modes: c.modes, want: want, fails: fails, check: requesterIntact, script: []step{swap(atLocks, wire.KLockReq, &wire.Msg{Kind: wire.KLockGrant, VC: vc.VC{0, -1, -1}, Intervals: []wire.IntervalRec{notice}}), swap(atLocks, wire.KDiffReq, resp), swap(atLocks, wire.KDiffReq, none), swap(atLocks, wire.KDiffReq, none)}})
	}
	return rows
}

// notHeldRows ask node 1, after the program, for another processor's diff:
// r's (node 0's) interval 0, which wrote page 4 before barrier 0 — node 1's
// clock covers it since, and node 1, which never touched page 4, does not
// hold its diff. That one want is answered "not held", which node 1 does
// not record (the puppet, which never sent the request, records the
// response); a want no honest requester sends of node 1 is refused with
// the whole request.
func notHeldRows() []hostileRow {
	return []hostileRow{
		{name: "another processor's diff the clock covers", modes: lazyModes, pid: 2, image: true, check: answeredNotHeld,
			want:   "node 2: response routing: unexpected response seq 99 kind diffresp",
			script: []step{send(atEnd, 1, &wire.Msg{Kind: wire.KDiffReq, Seq: 99, A: 2, Wants: []wire.Want{{Page: 4, Proc: 0, Index: 0}}})}},
		wantsRow("another processor's diff past the clock", lazyModes, 0, "asked for diff 0/9 page 4 this node does not hold", wire.Want{Page: 4, Proc: 0, Index: 9}),
		wantsRow("another processor's diff of a page its interval did not write", lazyModes, 0, "asked for diff 0/0 of page 1, which the interval did not write", wire.Want{Page: 4, Proc: 0, Index: 0}, wire.Want{Page: 1, Proc: 0, Index: 0}),
		wantsRow("its own diff of a page its interval did not write", lazyModes, 0, "asked for diff 1/0 page 4 this node does not hold", wire.Want{Page: 4, Proc: 1, Index: 0}),
	}
}

// hostileRows is the table, by the test that runs each part: TestHostilePeer
// and, under their old names, the forged-message tests it replaced.
var hostileRows = map[string][]hostileRow{
	"TestHostilePeer": {
		{name: "arrival from 2 claiming node 1", modes: li, pid: 2, image: true, want: "arrive claims node 1 but came from 2", script: []step{send(atBarrier0, 0, &wire.Msg{Kind: wire.KBarrierArrive, Seq: 5, B: 1})}},
		{name: "lock request from 2 claiming node 1", modes: li, pid: 2, want: "lockreq claims node 1 but came from 2", check: noHolderOf4, script: []step{send(atEnd, 1, &wire.Msg{Kind: wire.KLockReq, Seq: 99, A: 4, B: 1})}},
		{name: "page request from 2 claiming node 1", modes: li, pid: 2, want: "pagereq claims node 1 but came from 2", script: []step{send(atEnd, 0, &wire.Msg{Kind: wire.KPageReq, Seq: 99, B: 1})}},
		// Only a lazy page's home forwards a request with its requester in
		// B, and only to a keeper, which holds a copy: a request from a node
		// that does not home the page is refused, and one that reaches a
		// node holding no copy is refused unanswered — never with the zero
		// page.
		{name: "page request for another home's page claiming node 0", modes: lazyModes, pid: 2, image: true, want: "pagereq claims node 0 but came from 2", check: pageReqUnanswered,
			script: []step{send(atLocks, 1, &wire.Msg{Kind: wire.KPageReq, Seq: 424242, A: 3, B: 0})}},
		{name: "forwarded page request to a node holding no copy", modes: lazyModes, pid: 2, image: true, want: "request for page 5 from 0, which this node neither homes nor holds", check: pageReqUnanswered,
			script: []step{send(atLocks, 1, &wire.Msg{Kind: wire.KPageReq, Seq: 424242, A: 5, B: 0})}},
		// The puppet's arrival claims it wrote page 5, its own, which it
		// holds no copy of: at the GC epoch the page has history, no copy at
		// its home and no modifier but the home to keep it, and the home's
		// epoch fails its invariant check.
		{name: "GC/homed page with history, no copy and no keeper", modes: lazyModes, pid: 2, flags: withGC, fails: "homed page 5 has modification history but neither a copy nor a keeper", script: []step{wrote5}},
		{name: "exit from a non-master", modes: li, pid: 2, image: true, want: "exit from 2 dropped: only the barrier master 0 sends it", script: []step{preempt(atBarrier0, 1, &wire.Msg{Kind: wire.KBarrierExit})}},
		// A response is found by seq alone: neither another kind nor another
		// page's grant may wake a miss over a page never installed (FuzzPeer
		// findings).
		{name: "a page request answered with another kind", modes: []Mode{EagerInvalidate, SeqConsistent}, want: "diffresp answers seq", fails: "response refused",
			script: []step{swap(atRead, wire.KPageReq, &wire.Msg{Kind: wire.KDiffResp})}},
		{name: "a page grant for another page", modes: []Mode{EagerInvalidate, EagerUpdate}, pid: 2, want: "grant for page 2 answers the miss of page 5", fails: "answers the miss of page 5",
			script: []step{swap(atRead, wire.KPageReq, &wire.Msg{Kind: wire.KPageResp, A: 2, Data: make([]byte, 1024)})}},
		// FuzzPeer finding: the master's barrier 0, which never gets the
		// arrival swallowed and answered in its stead, fails with an error
		// that names the round, not a released shell. The master stops on
		// it, the arrivers' waits on it time out in turn, and every node
		// ends stopped, its log closed.
		{name: "an arrival answered in the master's stead", modes: lazyModes, flags: withGC, fails: "master: arrivals at barrier 0: no arrival within", check: allStopped, script: []step{swap(atBarrier0, wire.KBarrierArrive, &wire.Msg{Kind: wire.KBarrierExit})}},
		{name: "forward from a non-manager", modes: li, pid: 2, want: "lockfwd of lock 1 from 2 dropped: only its manager 1 forwards it", script: []step{send(atEnd, 0, &wire.Msg{Kind: wire.KLockFwd, Seq: 99, A: 1, B: 2})}},
		// A merged EU update lands each record on its own: node 1 homes pages
		// 1, 4 and 7, whose records land, and neither holds nor fetches page
		// 2, whose record is refused.
		{name: "merged update of a page the node neither holds nor fetches", modes: eu, pid: 2, image: true, want: "update of page 2 from 2, which this node neither holds nor fetches", check: noCopyOf2,
			script: []step{send(atStart, 1, &wire.Msg{Kind: wire.KUpdate, Seq: 99, Diffs: []wire.DiffRec{rec(1, 2, 0), rec(2, 2, 0), rec(4, 2, 0), rec(7, 2, 0)}})}},
		{name: "merged update of a page out of range", modes: eu, pid: 2, image: true, want: "update of invalid page 1048576 from 2",
			script: []step{send(atStart, 1, &wire.Msg{Kind: wire.KUpdate, Seq: 99, Diffs: []wire.DiffRec{rec(1, 2, 0), rec(1<<20, 2, 0)}})}},
		// EI keeps no hints: a writer's update that claims known copies of
		// page 1, which r holds since its cold read, still invalidates r's,
		// and an acknowledgement naming copies of the puppet's page leaves
		// r's hints empty.
		{name: "EI/merged update claiming known copies", modes: ei, pid: 2, image: true, want: "update of page 1 from 2 claims 2 known copies", check: rLosesPage1,
			script: []step{send(atLocks, 1, &wire.Msg{Kind: wire.KUpdate, Seq: 99, Diffs: []wire.DiffRec{rec(1, 2, 2)}})}},
		{name: "EI/acknowledgement naming copies", modes: ei, pid: 2, want: "updateack from 2 names node 1 a copy of page 5", check: rKeepsNoHint,
			script: []step{swap(atLocks, wire.KUpdate, &wire.Msg{Kind: wire.KUpdateAck, Wants: []wire.Want{{Page: 5, Proc: 1}}})}},
		// A join reaches the master once per System as it starts. One at
		// another node changes nothing but what Close reports; one at the
		// master that differs, or does not parse, stops every node of the
		// master's System (here, all three) at once, so every call fails
		// naming it.
		{name: "a join at a node that is not the master", modes: li, pid: 2, image: true, want: "join from 2 dropped: only the master 0 is joined",
			script: []step{send(atStart, 1, &wire.Msg{Kind: wire.KJoin, Seq: 99, B: 2, Data: joinOf(0)})}},
		joinRow("a join of another configuration", "node 2's Config.GCEveryBarriers 1 differs from the master's 0", joinOf(withGC)),
		joinRow("a malformed join", "malformed join of node 2: no Config.PageSize", []byte{0, peerProcs}),
		{name: "a join claiming node 1", modes: li, pid: 2, image: true, want: "join claims node 1 but came from 2",
			script: []step{send(atStart, 0, &wire.Msg{Kind: wire.KJoin, Seq: 99, B: 1, Data: joinOf(0)})}},
	},
	"TestCorruptTCPFramesSurfaceOnClose": {
		{name: "garbage", modes: lu, pid: 2, image: true, want: "undecodable frame from 2", script: []step{{opSend, atLocks, 0, slices.Repeat([]byte{0xff}, 24)}}},
		// Byte 24 opened a batch frame of several messages, a format since
		// retired: this one claims two and holds four bytes of garbage.
		{name: "retired batch byte", modes: lu, pid: 2, image: true, want: "undecodable frame from 2", script: []step{{opSend, atLocks, 0, []byte{24, 2, 0xde, 0xad, 0xbe, 0xef}}}},
		{name: "retired compressed kind", modes: lu, pid: 2, image: true, want: "unknown message kind 25", script: []step{{opSend, atLocks, 0, []byte{25, 24, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}}}},
	},
	// No runtime message carries a wire.Section: a lock request, grant,
	// arrival or exit that does, whatever the section says, is refused
	// whole, and so is a synchronization clock not one entry per node.
	"TestHostileSectionsRecordedNotPanic": {
		requestRow("non-resident mode", carriesSection(wire.KLockReq, 2), &wire.Msg{Sections: []wire.Section{{Mode: uint16(EagerInvalidate)}}}),
		requestRow("mode beyond the engine table", carriesSection(wire.KLockReq, 2), &wire.Msg{Sections: []wire.Section{{Mode: 0x7f}}}),
		requestRow("duplicate mode sections", carriesSection(wire.KLockReq, 2), &wire.Msg{Sections: []wire.Section{{Mode: uint16(LazyUpdate)}, {Mode: uint16(LazyUpdate)}}}),
		requestRow("truncated section clock", carriesSection(wire.KLockReq, 2), &wire.Msg{Sections: []wire.Section{{Mode: uint16(LazyUpdate), VC: []int32{3}}}}),
		requestRow("a section beside the flat clock", carriesSection(wire.KLockReq, 2), &wire.Msg{VC: vc.VC{-1, -1, -1}, Sections: []wire.Section{{}}}),
		requestRow("truncated clock", "lockreq from 2 refused: it carries a 1-entry clock (cluster has 3)", &wire.Msg{VC: vc.VC{3}}),
		requestRow("empty clock", "lockreq from 2 refused: it carries a 0-entry clock (cluster has 3)", &wire.Msg{VC: vc.VC{}}),
		// A grant after the program answers nothing: refused before its
		// routing would record it as a response nobody awaits. The other
		// stand-ins reach a node that waits for the real message, which
		// comes after them: the run ends as an honest one would.
		{name: "a grant carrying a section", modes: lazyModes, image: true, want: carriesSection(wire.KLockGrant, 0),
			script: []step{send(atEnd, 1, &wire.Msg{Kind: wire.KLockGrant, Seq: 99, Sections: []wire.Section{{VC: vc.VC{0, -1, -1}, Intervals: []wire.IntervalRec{sound}}}})}},
		{name: "an arrival carrying a section", modes: lazyModes, pid: 2, image: true, want: carriesSection(wire.KBarrierArrive, 2),
			script: []step{send(atBarrier0, 0, &wire.Msg{Kind: wire.KBarrierArrive, Seq: 6, B: 2, Sections: []wire.Section{{VC: vc.VC{-1, -1, 0}}}})}},
		{name: "an exit carrying a section", modes: lazyModes, image: true, want: carriesSection(wire.KBarrierExit, 0),
			script: []step{preempt(atBarrier0, 1, &wire.Msg{Kind: wire.KBarrierExit, Sections: []wire.Section{{VC: vc.VC{0, -1, -1}, Intervals: []wire.IntervalRec{sound}}}})}},
		{name: "a grant whose clock is too wide", modes: lazyModes, image: true, want: "lockgrant from 0 refused: it carries a 4-entry clock (cluster has 3)",
			script: []step{send(atEnd, 1, &wire.Msg{Kind: wire.KLockGrant, Seq: 99, VC: vc.VC{0, -1, -1, -1}, Intervals: []wire.IntervalRec{sound}})}},
	},
	"TestForgedFramesRecordedNotPanic": {
		frameRow("unknown kind", sc, "unhandled message kind", &wire.Msg{Kind: wire.KDiffReq, Seq: 99, Wants: []wire.Want{{Page: 0}}}),
		frameRow("retired compressed kind", li, "unknown message kind 25", &wire.Msg{Kind: 25, Seq: 99}),
		frameRow("retired hand-off ready kind", li, "unknown message kind 22", &wire.Msg{Kind: 22, Seq: 99, B: 2}),
		frameRow("retired hand-off go kind", ei, "unknown message kind 23", &wire.Msg{Kind: 23, Seq: 99}),
		frameRow("lock request from invalid requester", li, "lockreq claims node 77", &wire.Msg{Kind: wire.KLockReq, Seq: 99, A: 1, B: 77}),
		frameRow("page request beyond the space", li, "page request", &wire.Msg{Kind: wire.KPageReq, Seq: 99, A: 1 << 20, B: 2}),
		frameRow("eager page request beyond the space", ei, "page request", &wire.Msg{Kind: wire.KPageReq, Seq: 99, A: 1 << 20, B: 2}),
		frameRow("sc read request from invalid requester", sc, "pagereq claims node 77", &wire.Msg{Kind: wire.KPageReq, Seq: 99, A: 1, B: 77}),
		frameRow("page grant for impossible page", ei, "page install", &wire.Msg{Kind: wire.KPageResp, Seq: 99, A: 1 << 20, Data: make([]byte, 1024)}),
		// EI retired its ownership transaction: a reconciliation is a
		// response nobody awaits.
		frameRow("flush reconciliation nobody asked for", ei, "unexpected response seq 424242 kind flushdone", &wire.Msg{Kind: wire.KFlushDone, Seq: 424242, A: 1}),
		frameRow("invalidation beyond the space", ei, "invalidation", &wire.Msg{Kind: wire.KInval, Seq: 99, Wants: []wire.Want{{Page: 1}, {Page: 1 << 20}}}),
		frameRow("invalidation naming no page", sc, "names no page", &wire.Msg{Kind: wire.KInval, Seq: 99}),
		frameRow("response nobody awaits", lu, "response routing", &wire.Msg{Kind: wire.KDiffResp, Seq: 424242}),
		frameRow("diffs nobody asked for", li, "response routing", &wire.Msg{Kind: wire.KDiffResp, Seq: 424242, Diffs: []wire.DiffRec{rec(1, 2, 0)}}),
		frameRow("update beyond the space", eu, "update of invalid page", &wire.Msg{Kind: wire.KUpdate, Seq: 99, Diffs: []wire.DiffRec{rec(1<<20, 2, 0)}}),
		frameRow("flush carrying a diff from an invalid flusher", eu, "unhandled message kind flushreq from 2", &wire.Msg{Kind: wire.KFlushReq, Seq: 99, A: 1, B: 77, Diffs: []wire.DiffRec{rec(1, 2, 0)}}),
		frameRow("lock request smuggling diffs", li, "lockreq claims node 77", &wire.Msg{Kind: wire.KLockReq, Seq: 99, A: 1, B: 77, Diffs: []wire.DiffRec{rec(1, 2, 0)}}),
	},
	"TestForgedPageShipsRecordedNotInstalled": {
		shipRow("short page", wire.Msg{Kind: wire.KPageResp, Data: make([]byte, 100)}),
		shipRow("long page", wire.Msg{Kind: wire.KPageResp, Data: make([]byte, 4096)}),
		shipRow("no page", wire.Msg{Kind: wire.KPageResp}),
		shipRow("another kind", wire.Msg{Kind: wire.KDiffResp, Data: make([]byte, 1024)}),
		shipRow("clock of the wrong width", wire.Msg{Kind: wire.KPageResp, Data: make([]byte, 1024), VC: vc.VC{0, 0, 0, 0}}),
		// No home ships interval records with a page.
		shipRow("clock beside an interval block", wire.Msg{Kind: wire.KPageResp, Data: make([]byte, 1024), VC: vc.VC{-1, -1, 0}, Intervals: []wire.IntervalRec{{Proc: 2, VC: vc.VC{-1, -1, 0}, Pages: []mem.PageID{5}}}}),
		// The retired EI reconciliation, a short base, answering r's update of
		// the puppet's page: refused before anything reads its page.
		{name: "EI/short flush base", modes: ei, pid: 2, want: "flushdone answers seq", fails: "response refused", script: []step{swap(atLocks, wire.KUpdate, &wire.Msg{Kind: wire.KFlushDone, A: 5, Data: make([]byte, 100)})}},
		// Only a page's home ships it: an unsolicited ship of page 1, which
		// node 1 homes, from the puppet leaves r's copy as it was.
		{name: "a ship from a node that does not home the page", modes: []Mode{EagerInvalidate, EagerUpdate, SeqConsistent}, pid: 2, image: true,
			want: "pageresp of page 1 from 2, which does not home it", check: rKeepsPage1,
			script: []step{send(atLocks, 0, &wire.Msg{Kind: wire.KPageResp, Seq: 777, A: 1, Data: bytes.Repeat([]byte{0xff}, 1024)})}},
	},
	"TestForgedIntervalRecordsRecordedNotAbsorbed": intervalRows(),
	"TestHostileRangeWantsRecordedNotServed": {
		wantsRow("another processor's intervals", li, 0, "not a run of this node's intervals", wire.Want{Page: 7, Index: 1, Span: 1}),
		wantsRow("last interval is not on the page", li, 0, "not a run of this node's intervals", wire.Want{Page: 1, Proc: 1, Span: 2}),
		wantsRow("first interval is not on the page", li, 0, "not a run of this node's intervals", wire.Want{Page: 7, Proc: 1, Span: 2}),
		wantsRow("past the node's clock", li, 0, "not a run of this node's intervals", wire.Want{Page: 7, Proc: 1, Index: 1, Span: 5}),
		// The codec refuses these two (serveLocked's own check:
		// TestServeRefusesSpansTheCodecRefuses).
		wantsRow("wraps the index", li, 0, "undecodable frame from 2", wire.Want{Page: 7, Proc: 1, Index: 2, Span: 1<<31 - 1}),
		wantsRow("negative span", li, 0, "undecodable frame from 2", wire.Want{Page: 7, Proc: 1, Index: 2, Span: -2}),
		wantsRow("invalid page", li, 0, "on invalid page", wire.Want{Page: 1 << 20, Proc: 1, Index: 1, Span: 1}),
		wantsRow("collected history", li, withGC, "from collected history", wire.Want{Page: 7, Proc: 1, Index: 1, Span: 1}),
		wantsRow("a sound want beside a bad one", li, 0, "not a run of this node's intervals", wire.Want{Page: 7, Proc: 1, Index: 1, Span: 1}, wire.Want{Page: 7, Proc: 1, Index: 1, Span: 7}),
	},
	"TestCollectedHistoryRecordedNotServed": {
		wantsRow("a want into collected history", lazyModes, withGC, "asked for diff 1/1 of page 7 from collected history", wire.Want{Page: 7, Proc: 1, Index: 1}),
		wantsRow("a range want into collected history", lazyModes, withGC, "asked for diff 1/1 of page 7 from collected history", wire.Want{Page: 7, Proc: 1, Index: 1, Span: 1}),
		// Barrier 0's epoch, discarded at its second meeting, swept node 0's
		// interval 0. LI keeps only the diffs its misses fetch, and reads no
		// grant's.
		{name: "LI/a diff record of a collected interval", modes: li, pid: 2, flags: withGC, check: storeKnown, script: collectedGrant},
		{name: "LU/a diff record of a collected interval", modes: lu, pid: 2, flags: withGC, check: storeKnown, script: collectedGrant, want: "diff record 0/0 for page 4 names collected history"},
		{name: "a lock request below the floor", modes: lazyModes, pid: 2, flags: withGC, want: "forged clock <-1,-1,-1> lies below the collected floor", check: servedFromFloor(wire.KLockGrant, 2), script: []step{send(atEnd, 1, &wire.Msg{Kind: wire.KLockReq, Seq: 99, A: 1, B: 2, VC: vc.VC{-1, -1, -1}})}},
		// The puppet's own second arrival at barrier 1 claims to know nothing.
		{name: "a barrier arrival below the floor", modes: lazyModes, pid: 2, flags: withGC, want: "forged clock <-1,-1,-1> lies below the collected floor", check: servedFromFloor(wire.KBarrierExit, 0), script: []step{swap(atDiscard1, wire.KBarrierArrive, &wire.Msg{Kind: wire.KBarrierArrive, A: 1, B: 2, VC: vc.VC{-1, -1, -1}})}},
	},
	"TestMismatchedDiffResponsesFailTheMiss": mismatchRows(),
	"TestNotHeldWantsAnsweredOrRefused":      notHeldRows(),
	"TestForgedArrivalIntervalsRecordedNotAbsorbedRepro": {
		{name: "the master's interval in an arrival", modes: li, pid: 2, want: "carries interval p0/0 of another processor", check: mastersOwn, script: []step{swap(atBarrier0, wire.KBarrierArrive, &wire.Msg{Kind: wire.KBarrierArrive, B: 2, VC: vc.VC{-1, -1, 0},
			Intervals: []wire.IntervalRec{{VC: vc.VC{0, -1, -1}, Pages: []mem.PageID{3}}, {Proc: 2, VC: vc.VC{-1, -1, 0}, Pages: []mem.PageID{2}}}})}},
	},
	"TestForgedRendezvousRecordedNotCounted": {
		// The GC's ready/go round is retired: a ready is a kind no node
		// handles, whoever it claims to come from.
		{name: "GC ready from node 7", modes: li, pid: 2, flags: withGC, image: true, want: "unhandled message kind gcready from 2", script: []step{send(atBarrier0, 0, &wire.Msg{Kind: wire.KGCReady, Seq: 6, B: 7})}},
		{name: "arrival claiming node 0", modes: li, pid: 2, image: true, want: "arrive claims node 0 but came from 2", script: []step{send(atBarrier0, 0, &wire.Msg{Kind: wire.KBarrierArrive, Seq: 6})}},
	},
	"TestRendezvousFloodAtNonMasterIsDropped": {
		{name: "four arrivals at node 1", modes: li, image: true, want: "arrive from 0 dropped: this node is not the barrier master", script: slices.Repeat([]step{send(atStart, 1, &wire.Msg{Kind: wire.KBarrierArrive, Seq: 10})}, 4)},
	},
	// A forged home plan is no longer refused but ignored: homes are
	// arithmetic, and nothing decodes a barrier's Data.
	"TestForgedHomeDeltasRecordedNotApplied": {
		// A barrier's Data is read by nobody: the master's exit carries the
		// bytes of a home plan that names page 0 twice, and the arriver
		// leaves as from an honest exit. The eager and SC exits carry no
		// payload, so the stand-in is the honest exit plus Data.
		{name: "stray data on a barrier exit", modes: []Mode{EagerInvalidate, EagerUpdate, SeqConsistent}, image: true,
			script: []step{swap(atBarrier0, wire.KBarrierExit, &wire.Msg{Kind: wire.KBarrierExit, Data: []byte{2, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}})}},
	},
}

// collectedGrant grants the puppet's lock with node 0's diff of interval 0.
var collectedGrant = []step{swap(atLocks, wire.KLockReq, &wire.Msg{Kind: wire.KLockGrant, A: 2, Diffs: []wire.DiffRec{rec(4, 0, 0)}})}

// --- row checks, run before Close ---

// answeredNotHeld: the puppet's request (seq 99) came back with one record,
// r's diff 0/0 of page 4 marked not held, and node 1 recorded nothing.
func answeredNotHeld(t *testing.T, pr *peerRun) {
	defer func() {
		if errs := pr.h.takeErrs(); len(errs) > 0 {
			t.Errorf("node 1 recorded %v", errs)
		}
	}()
	var resp *wire.Msg
	waitFor(t, "the response to the puppet's request", func() bool {
		for _, m := range pr.tap.received(wire.KDiffResp) {
			if m.Seq == 99 {
				resp = m
			}
		}
		return resp != nil
	})
	want := wire.DiffRec{Page: 4, Proc: 0, Index: 0, NotHeld: true}
	if len(resp.Diffs) != 1 || resp.Diffs[0].Page != want.Page || resp.Diffs[0].Proc != want.Proc ||
		resp.Diffs[0].Index != want.Index || !resp.Diffs[0].NotHeld {
		t.Errorf("the request was answered with %+v, want one record %+v", resp.Diffs, want)
	}
}

// unanswered: no response to the puppet's request (seq 99) came back. It
// closes the run first, so a response still in flight is counted.
func unanswered(t *testing.T, pr *peerRun) {
	pr.s.Close()
	for _, m := range pr.tap.received(wire.KDiffResp) {
		if m.Seq == 99 {
			t.Errorf("the refused request was answered with %d diffs", len(m.Diffs))
		}
	}
}

// pageReqUnanswered: no node got an answer to the puppet's page request
// (seq 424242), which names node 0 its requester. It closes the run
// first, so a response still in flight is counted.
func pageReqUnanswered(t *testing.T, pr *peerRun) {
	if err := pr.s.Close(); err != nil && strings.Contains(err.Error(), "seq 424242 kind pageresp") {
		t.Errorf("the refused page request was answered: %v", err)
	}
}

// notQueued: lock 1's manager, node 1, did not take the puppet for the
// lock's last holder, and no grant reached the puppet.
func notQueued(t *testing.T, pr *peerRun) {
	pr.h.lockMu.Lock()
	last := pr.h.mgrLast[1]
	pr.h.lockMu.Unlock()
	if last == 2 {
		t.Error("lock 1's manager queued the refused request")
	}
	pr.s.Close()
	for _, m := range pr.tap.received(wire.KLockGrant) {
		if m.Seq == 99 {
			t.Error("the refused request was granted")
		}
	}
}

// servedFromFloor checks that the last message of kind k the puppet gets
// exports no program node's interval at or below floor.
func servedFromFloor(k wire.Kind, floor int32) func(t *testing.T, pr *peerRun) {
	return func(t *testing.T, pr *peerRun) {
		waitFor(t, fmt.Sprintf("a %v at the puppet", k), func() bool { return len(pr.tap.received(k)) > 0 })
		got := pr.tap.received(k)
		for _, r := range got[len(got)-1].Intervals {
			if int(r.Proc) != pr.pid && r.Index <= floor {
				t.Errorf("%v exports %d/%d, at or below the floor %d", k, r.Proc, r.Index, floor)
			}
		}
	}
}

// refusedTwice: r's read of the puppet's page and its write of it both
// failed naming what, and no copy other than a whole page was installed.
func refusedTwice(what string) func(t *testing.T, pr *peerRun) {
	return func(t *testing.T, pr *peerRun) {
		if n := len(slices.DeleteFunc(slices.Clone(pr.errs), func(err error) bool { return !strings.Contains(err.Error(), what) })); n != 2 {
			t.Errorf("%d calls failed naming %q, want the read and the write: %v", n, what, pr.errs)
		}
		pmu := pr.r.pageLock(5)
		pmu.Lock()
		defer pmu.Unlock()
		if pc := lazyOf(pr.r).pages[5]; pc != nil && len(pc.data) != 1024 {
			t.Errorf("a %d-byte copy of page 5 was installed", len(pc.data))
		}
	}
}

// soundOnly: of the puppet's intervals, a node holds the sound 0/0 or none.
func soundOnly(t *testing.T, pr *peerRun) {
	held := 0
	for _, n := range pr.s.Local() {
		clock, ivs := logOf(lazyOf(n))
		ivs = slices.DeleteFunc(ivs, func(iv core.Interval) bool { return iv.ID.Proc != 0 })
		if len(ivs) == 1 && ivs[0].ID.Index == 0 && slices.Equal(ivs[0].Pages, sound.Pages) && clock[0] == 0 {
			held++
		} else if len(ivs) > 0 || clock[0] != -1 {
			t.Errorf("node %d: clock %v, puppet intervals %v: want the sound 0/0 alone", n.id, clock, ivs)
		}
	}
	if held == 0 {
		t.Error("no node absorbed the sound record")
	}
}

// requesterIntact: the node the forged grant went to keeps its copy of
// page 7 invalid, holding its own counter write and not the forged bytes,
// and a second read of the page fails too.
func requesterIntact(t *testing.T, pr *peerRun) {
	n := pr.s.Node(int(pr.tap.received(wire.KLockReq)[0].B))
	pmu := n.pageLock(7)
	pmu.Lock()
	pc := lazyOf(n).pages[7]
	if pc == nil {
		t.Errorf("node %d holds no copy of page 7", n.id)
	} else if pc.valid || binary.LittleEndian.Uint64(pc.data) != pr.wrote[n.id] || binary.LittleEndian.Uint32(pc.data[16:]) != 0 {
		t.Errorf("node %d's copy of page 7: valid %t, bytes % x; want invalid, its write %d and no forged bytes", n.id, pc.valid, pc.data[:20], pr.wrote[n.id])
	}
	pmu.Unlock()
	if _, err := n.ReadUint64(7176); err == nil {
		t.Error("a second read of page 7 succeeded")
	}
	for _, node := range pr.s.Local() {
		if f := node.Stats().DiffFallbacks; f != 0 {
			t.Errorf("node %d asked %d wants again", node.id, f)
		}
	}
}

// storeKnown: a node's diff store holds entries only for intervals above
// the floor that its clock covers; a diff of a collected interval would
// land in an entry below the one, one past its clock past the other.
func storeKnown(t *testing.T, pr *peerRun) {
	for _, n := range pr.s.Local() {
		e := lazyOf(n)
		e.mu.Lock()
		for p := range e.store.procs {
			sp, floor := &e.store.procs[p], e.log.Floor(mem.ProcID(p))
			for c, chunk := range sp.chunks {
				if chunk == nil {
					continue
				}
				for i, ent := range chunk.ents {
					if k := (sp.dropped+int32(c))*chunkIntervals + int32(i); ent.n > 0 && (k <= floor || k > e.v[p]) {
						t.Errorf("node %d stores an entry for %d/%d outside its floor %d and clock %v", n.id, p, k, floor, e.v)
					}
				}
			}
		}
		e.mu.Unlock()
	}
}

// allStopped: every node has stopped on a timeout, so its next call
// fails at once with it.
var allStopped = stoppedOn("its timeout", func(err error) bool { return errors.Is(err, ErrRPCTimeout) })

// stoppedOn returns the check that every node has stopped on a cause: a
// read after the run fails at once, with an error stopped accepts.
func stoppedOn(cause string, stopped func(error) bool) func(*testing.T, *peerRun) {
	return func(t *testing.T, pr *peerRun) {
		for _, n := range pr.s.Local() {
			begin := time.Now()
			if _, err := n.ReadUint64(0); !stopped(err) || time.Since(begin) > peerTimeout/2 {
				t.Errorf("node %d's read after the run returned %v in %v, want %s at once", n.id, err, time.Since(begin), cause)
			}
		}
	}
}

// noCopyOf2: node 1 holds no copy of page 2 and parked no diff for it.
func noCopyOf2(t *testing.T, pr *peerRun) {
	e := pr.h.e.(*eagerEngine)
	pmu := pr.h.pageLock(2)
	pmu.Lock()
	defer pmu.Unlock()
	if e.pages[2] != nil || len(e.parked[2]) > 0 {
		t.Errorf("node 1 took a refused update of page 2: copy %v, %d parked", e.pages[2] != nil, len(e.parked[2]))
	}
}

// rLosesPage1: r's copy of page 1, the one copy besides the home's, is
// invalidated.
func rLosesPage1(t *testing.T, pr *peerRun) {
	e := pr.r.e.(*eagerEngine)
	waitFor(t, "r's copy of page 1 to be invalidated", func() bool {
		pmu := pr.r.pageLock(1)
		pmu.Lock()
		defer pmu.Unlock()
		return e.pages[1] != nil && !e.pages[1].valid
	})
}

// rKeepsPage1: r's copy of page 1 still reads node 1's word.
func rKeepsPage1(t *testing.T, pr *peerRun) {
	if v, err := pr.r.ReadUint64(1024); err != nil || v != 0x1111 {
		t.Errorf("r reads %#x from page 1 (err %v), want node 1's 0x1111", v, err)
	}
}

// rKeepsNoHint: r holds no hint of any page.
func rKeepsNoHint(t *testing.T, pr *peerRun) {
	e := pr.r.e.(*eagerEngine)
	for pg, h := range e.hints {
		if h != 0 {
			t.Errorf("r keeps hint %b of page %d", h, pg)
		}
	}
}

func noHolderOf4(t *testing.T, pr *peerRun) {
	pr.h.lockMu.Lock()
	defer pr.h.lockMu.Unlock()
	if last, ok := pr.h.mgrLast[4]; ok {
		t.Errorf("lock 4's manager took node %d for its last holder", last)
	}
}

func mastersOwn(t *testing.T, pr *peerRun) {
	var got []string
	_, ivs := logOf(lazyOf(pr.r))
	for _, iv := range ivs {
		if iv.ID.Index == 0 && iv.ID.Proc != 1 {
			got = append(got, fmt.Sprint(iv.ID, iv.Pages))
		}
	}
	if want := []string{"0/0 [4]", "2/0 [2]"}; !slices.Equal(got, want) {
		t.Errorf("the master holds %v, want its own 0/0 and the arriver's 2/0", got)
	}
}

// --- runners ---

func (row hostileRow) run(t *testing.T, mode Mode) {
	pr := runPeer(t, peerConfig(byte(mode)|row.flags), row.pid, row.script)
	if row.want != "" {
		waitFor(t, fmt.Sprintf("a node to record %q", row.want), func() bool {
			return slices.ContainsFunc(pr.s.Local(), func(n *Node) bool {
				n.errMu.Lock()
				defer n.errMu.Unlock()
				return slices.ContainsFunc(n.errs, func(err error) bool { return strings.Contains(err.Error(), row.want) })
			})
		})
	}
	if row.check != nil {
		row.check(t, pr)
	}
	err := pr.close(t)
	if row.want == "" && err != nil || row.want != "" && (err == nil || !strings.Contains(err.Error(), row.want)) {
		t.Errorf("Close = %v, want the recorded cause %q", err, row.want)
	}
	if calls := errors.Join(pr.errs...); row.fails == "" && calls != nil || row.fails != "" && (calls == nil || !strings.Contains(calls.Error(), row.fails)) {
		t.Errorf("calls failed with %v, want %q", calls, row.fails)
	}
	if row.image {
		pr.checkImage(t)
	}
}

// runRows runs the calling test's rows, each under each of its modes.
func runRows(t *testing.T) {
	for _, row := range hostileRows[t.Name()] {
		for _, mode := range row.modes {
			name := row.name
			if len(row.modes) > 1 {
				name = mode.String() + "/" + name
			}
			t.Run(name, func(t *testing.T) { t.Parallel(); row.run(t, mode) })
		}
	}
}

func TestHostilePeer(t *testing.T) { runRows(t) }

// The forged-message tests the table replaced keep their names.
func TestCorruptTCPFramesSurfaceOnClose(t *testing.T)                 { runRows(t) }
func TestHostileSectionsRecordedNotPanic(t *testing.T)                { runRows(t) }
func TestForgedFramesRecordedNotPanic(t *testing.T)                   { runRows(t) }
func TestForgedPageShipsRecordedNotInstalled(t *testing.T)            { runRows(t) }
func TestForgedIntervalRecordsRecordedNotAbsorbed(t *testing.T)       { runRows(t) }
func TestHostileRangeWantsRecordedNotServed(t *testing.T)             { runRows(t) }
func TestCollectedHistoryRecordedNotServed(t *testing.T)              { runRows(t) }
func TestNotHeldWantsAnsweredOrRefused(t *testing.T)                  { runRows(t) }
func TestMismatchedDiffResponsesFailTheMiss(t *testing.T)             { runRows(t) }
func TestForgedArrivalIntervalsRecordedNotAbsorbedRepro(t *testing.T) { runRows(t) }
func TestForgedRendezvousRecordedNotCounted(t *testing.T)             { runRows(t) }
func TestRendezvousFloodAtNonMasterIsDropped(t *testing.T)            { runRows(t) }
func TestForgedHomeDeltasRecordedNotApplied(t *testing.T)             { runRows(t) }

// FuzzPeer runs the program against a puppet playing a fuzzer's script.
// Input: a mode byte (mode index, withGC), the puppet (even: node
// 0, odd: node 2) and the script. Whatever it sends, nothing panics or
// races, every call and Close return within the deadline, goroutines
// return to their count and close's invariants hold. A cluster member may
// write, so a well-formed lie is no wrong image: only an empty script must
// run clean and read what it wrote.
func FuzzPeer(f *testing.F) {
	for _, test := range slices.Sorted(maps.Keys(hostileRows)) {
		for _, row := range hostileRows[test] {
			for _, mode := range row.modes {
				f.Add(byte(mode)|row.flags, byte(row.pid/2), encodeScript(row.script))
			}
		}
	}
	for _, b := range []byte{0, 1, 2, 3, 4, withGC, 1 | withGC} {
		f.Add(b, byte(0), []byte(nil))
		f.Add(b, byte(1), []byte(nil))
	}
	// The seeds run side by side, so their goroutines are counted together;
	// while fuzzing, runs take turns and each is counted.
	fuzzing := flag.Lookup("test.fuzz").Value.String() != ""
	if before := runtime.NumGoroutine(); !fuzzing {
		f.Cleanup(func() { settle(f, before) })
	}
	f.Fuzz(func(t *testing.T, mode, pid byte, script []byte) {
		before, steps := runtime.NumGoroutine(), decodeScript(script)
		if !fuzzing {
			t.Parallel()
		}
		pr := runPeer(t, peerConfig(mode), int(pid%2)*(peerProcs-1), steps)
		if err, calls := pr.close(t), errors.Join(pr.errs...); len(steps) == 0 && (err != nil || calls != nil) {
			t.Errorf("honest run: Close = %v, calls failed: %v", err, calls)
		} else if len(steps) == 0 {
			pr.checkImage(t)
		}
		if fuzzing {
			settle(t, before)
		}
	})
}

// settle waits for the goroutine count to fall back to before.
func settle(tb testing.TB, before int) {
	for deadline := time.Now().Add(peerDeadline); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			tb.Errorf("%d goroutines before the runs, %d after", before, runtime.NumGoroutine())
			return
		}
	}
}

// TestForgedFloorClockGrantsEverything: a requester clock with an entry
// below "knows nothing" is treated like a missing one, not used as an
// index.
func TestForgedFloorClockGrantsEverything(t *testing.T) {
	n := newSys(t, 2, LazyInvalidate).Node(0)
	for i := 0; i < 3; i++ {
		if err := n.Acquire(0); err != nil {
			t.Fatal(err)
		}
		if err := n.WriteUint64(0, uint64(i)); err != nil {
			t.Fatal(err)
		}
		if err := n.Release(0); err != nil {
			t.Fatal(err)
		}
	}
	e := lazyOf(n)
	e.mu.Lock()
	defer e.mu.Unlock()
	if got := len(e.intervalsSinceLocked(&wire.Msg{}, vc.VC{-7, 1 << 30})); got != 3 {
		t.Errorf("forged floor clock was granted %d intervals, want all 3", got)
	}
}
