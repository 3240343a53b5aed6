package dsm

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/hb"
	"repro/internal/mem"
	"repro/internal/wire"
)

func newSys(t *testing.T, procs int, mode Mode) *System {
	t.Helper()
	s, err := New(Config{Procs: procs, SpaceSize: 64 * 1024, PageSize: 1024, Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s
}

// bothModes runs f under the two lazy protocols (for LRC-specific
// machinery: intervals, diffs, write notices, GC).
func bothModes(t *testing.T, f func(t *testing.T, mode Mode)) {
	for _, mode := range []Mode{LazyInvalidate, LazyUpdate} {
		t.Run(mode.String(), func(t *testing.T) { f(t, mode) })
	}
}

// allModes runs f under every live protocol engine: properly-synchronized
// programs must behave identically under all five.
func allModes(t *testing.T, f func(t *testing.T, mode Mode)) {
	for _, mode := range Modes {
		t.Run(mode.String(), func(t *testing.T) { f(t, mode) })
	}
}

func TestSingleNodeRoundTrip(t *testing.T) {
	allModes(t, func(t *testing.T, mode Mode) {
		s := newSys(t, 1, mode)
		n := s.Node(0)
		if err := n.WriteUint64(100, 0xdeadbeef); err != nil {
			t.Fatal(err)
		}
		v, err := n.ReadUint64(100)
		if err != nil {
			t.Fatal(err)
		}
		if v != 0xdeadbeef {
			t.Fatalf("read %x", v)
		}
	})
}

func TestValuePropagatesThroughLock(t *testing.T) {
	allModes(t, func(t *testing.T, mode Mode) {
		s := newSys(t, 4, mode)
		p0, p3 := s.Node(0), s.Node(3)
		if err := p0.Acquire(1); err != nil {
			t.Fatal(err)
		}
		if err := p0.WriteUint64(2048, 42); err != nil {
			t.Fatal(err)
		}
		if err := p0.Release(1); err != nil {
			t.Fatal(err)
		}
		if err := p3.Acquire(1); err != nil {
			t.Fatal(err)
		}
		v, err := p3.ReadUint64(2048)
		if err != nil {
			t.Fatal(err)
		}
		if v != 42 {
			t.Fatalf("p3 read %d, want 42", v)
		}
		if err := p3.Release(1); err != nil {
			t.Fatal(err)
		}
	})
}

func TestTransitivePropagation(t *testing.T) {
	// The paper's §1 "preceding in the transitive sense": p0's write under
	// l1 must be visible to p2, which synchronized only through l2 via p1.
	allModes(t, func(t *testing.T, mode Mode) {
		s := newSys(t, 3, mode)
		p0, p1, p2 := s.Node(0), s.Node(1), s.Node(2)

		must(t, p0.Acquire(1))
		must(t, p0.WriteUint64(0, 7))
		must(t, p0.Release(1))

		must(t, p1.Acquire(1))
		v, err := p1.ReadUint64(0)
		must(t, err)
		must(t, p1.WriteUint64(1024, v+1))
		must(t, p1.Release(1))
		must(t, p1.Acquire(2))
		must(t, p1.Release(2))

		must(t, p2.Acquire(2))
		x, err := p2.ReadUint64(0)
		must(t, err)
		y, err := p2.ReadUint64(1024)
		must(t, err)
		if x != 7 || y != 8 {
			t.Fatalf("p2 read x=%d y=%d, want 7, 8", x, y)
		}
		must(t, p2.Release(2))
	})
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// barriers runs barriers 0 through count-1 in turn on every node of s,
// each node on a goroutine of its own. A GC epoch a barrier validates is
// discarded at the next one.
func barriers(t *testing.T, s *System, count int) {
	t.Helper()
	for b := range mem.BarrierID(count) {
		var wg sync.WaitGroup
		for _, n := range s.Local() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := n.Barrier(b); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
}

func TestBarrierPropagatesWrites(t *testing.T) {
	allModes(t, func(t *testing.T, mode Mode) {
		s := newSys(t, 4, mode)
		logs := hb.NewLogs(4)
		// Everyone writes its slot, synchronizes, then reads all.
		driveNodes(t, []*System{s}, func(node *Node) error {
			i := int(node.ID())
			n := recNode{node, logs[i]}
			if err := n.WriteUint64(mem.Addr(i*2048), uint64(100+i)); err != nil {
				return err
			}
			if err := n.Barrier(0); err != nil {
				return err
			}
			for k := 0; k < 4; k++ {
				if _, err := n.ReadUint64(mem.Addr(k * 2048)); err != nil {
					return err
				}
			}
			return n.Barrier(0)
		})
		checkHistory(t, logs, hb.RaceFree)
	})
}

func TestMultipleWritersFalseSharing(t *testing.T) {
	// Two nodes write disjoint halves of the SAME page concurrently; after
	// a barrier both halves must be visible everywhere (§4.3.1's diff
	// merge).
	allModes(t, func(t *testing.T, mode Mode) {
		s := newSys(t, 2, mode)
		logs := hb.NewLogs(2)
		driveNodes(t, []*System{s}, func(node *Node) error {
			i := int(node.ID())
			n := recNode{node, logs[i]}
			if err := n.WriteUint64(mem.Addr(i*512), uint64(i+1)); err != nil {
				return err
			}
			if err := n.Barrier(0); err != nil {
				return err
			}
			for _, a := range []mem.Addr{0, 512} {
				if _, err := n.ReadUint64(a); err != nil {
					return err
				}
			}
			return nil
		})
		checkHistory(t, logs, hb.RaceFree)
	})
}

func TestMigratoryCounter(t *testing.T) {
	// The paper's Figure 3/4 pattern: every node repeatedly locks,
	// increments a shared counter, unlocks; every increment must see its
	// predecessor.
	allModes(t, func(t *testing.T, mode Mode) {
		s := newSys(t, 8, mode)
		countUnderLock(t, []*System{s}, 3, 4096, 25)
		if s.NetStats().Messages == 0 {
			t.Error("no messages counted on the interconnect")
		}
	})
}

func TestLaterWriterWinsThroughLockChain(t *testing.T) {
	// Sequential writers to the same location through one lock: the last
	// value must win at a third node (diffs applied in hb order, §4.3.3).
	allModes(t, func(t *testing.T, mode Mode) {
		s := newSys(t, 3, mode)
		for round := 0; round < 5; round++ {
			w := s.Node(round % 2)
			must(t, w.Acquire(0))
			must(t, w.WriteUint64(8192, uint64(1000+round)))
			must(t, w.Release(0))
		}
		p2 := s.Node(2)
		must(t, p2.Acquire(0))
		v, err := p2.ReadUint64(8192)
		must(t, err)
		if v != 1004 {
			t.Fatalf("reader saw %d, want 1004 (the last write)", v)
		}
		must(t, p2.Release(0))
	})
}

func TestGarbageCollectionPreservesCorrectness(t *testing.T) {
	bothModes(t, func(t *testing.T, mode Mode) {
		const procs = 4
		s, err := New(Config{
			Procs: procs, SpaceSize: 64 * 1024, PageSize: 1024,
			Mode: mode, GCEveryBarriers: 2,
		})
		must(t, err)
		defer s.Close()
		var wg sync.WaitGroup
		errs := make([]error, procs)
		for i := 0; i < procs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				n := s.Node(i)
				for round := 0; round < 6; round++ {
					if err := n.WriteUint64(mem.Addr(i*1024+round*8), uint64(round*10+i)); err != nil {
						errs[i] = err
						return
					}
					if err := n.Barrier(0); err != nil {
						errs[i] = err
						return
					}
					// Check a neighbor's latest value.
					j := (i + 1) % procs
					v, err := n.ReadUint64(mem.Addr(j*1024 + round*8))
					if err != nil {
						errs[i] = err
						return
					}
					if v != uint64(round*10+j) {
						errs[i] = fmt.Errorf("node %d round %d: neighbor value %d, want %d", i, round, v, round*10+j)
						return
					}
					if err := n.Barrier(0); err != nil {
						errs[i] = err
						return
					}
				}
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("node %d: %v", i, err)
			}
		}
		var gcRuns, discarded int64
		for i := 0; i < procs; i++ {
			st := s.Node(i).Stats()
			gcRuns += st.GCRuns
			discarded += st.DiffsDiscarded
		}
		if gcRuns == 0 {
			t.Error("GC never ran")
		}
		if discarded == 0 {
			t.Error("GC discarded no diffs")
		}
	})
}

func TestColdReadAfterGC(t *testing.T) {
	// A node that never touched a page before GC must still be able to
	// read it afterwards (served by the page home + post-epoch diffs).
	bothModes(t, func(t *testing.T, mode Mode) {
		const procs = 3
		s, err := New(Config{
			Procs: procs, SpaceSize: 32 * 1024, PageSize: 1024,
			Mode: mode, GCEveryBarriers: 1,
		})
		must(t, err)
		defer s.Close()
		var wg sync.WaitGroup
		errs := make([]error, procs)
		for i := 0; i < procs; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				n := s.Node(i)
				if i == 0 {
					if err := n.WriteUint64(9*1024, 777); err != nil { // page 9, home = node 0
						errs[i] = err
						return
					}
					if err := n.WriteUint64(10*1024, 888); err != nil { // page 10, home = node 1
						errs[i] = err
						return
					}
				}
				if err := n.Barrier(0); err != nil { // GC epoch
					errs[i] = err
					return
				}
				if i == 2 { // node 2 cold-reads both pages after GC
					v, err := n.ReadUint64(9 * 1024)
					if err != nil {
						errs[i] = err
						return
					}
					w, err := n.ReadUint64(10 * 1024)
					if err != nil {
						errs[i] = err
						return
					}
					if v != 777 || w != 888 {
						errs[i] = fmt.Errorf("cold read after GC: %d, %d, want 777, 888", v, w)
					}
				}
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("node %d: %v", i, err)
			}
		}
	})
}

func TestLockContentionQueues(t *testing.T) {
	// Many nodes race for one lock simultaneously; every critical section
	// must be atomic.
	allModes(t, func(t *testing.T, mode Mode) {
		countUnderLock(t, []*System{newSys(t, 6, mode)}, 5, 0, 10)
	})
}

// TestAPIErrors: under every mode, a misuse of the API is an error, never
// a panic, and leaves the node working.
func TestAPIErrors(t *testing.T) {
	allModes(t, func(t *testing.T, mode Mode) {
		s := newSys(t, 2, mode)
		n := s.Node(0)
		if err := n.Release(0); err == nil {
			t.Error("release of unheld lock accepted")
		}
		// Acquiring a lock the node holds is an error, and leaves it held.
		must(t, n.Acquire(0))
		if err := n.Acquire(0); err == nil || !strings.Contains(err.Error(), "which it holds") {
			t.Errorf("second acquire of a held lock = %v, want an error", err)
		}
		must(t, n.Release(0))
		if err := n.Release(0); err == nil {
			t.Error("second release accepted")
		}
		// A negative lock id has no manager.
		for _, l := range []mem.LockID{-1, math.MinInt32} {
			if err := n.Acquire(l); err == nil || !strings.Contains(err.Error(), "lock ids are non-negative") {
				t.Errorf("acquire of lock %d = %v, want the non-negative error", l, err)
			}
			if err := n.Release(l); err == nil || !strings.Contains(err.Error(), "not held") {
				t.Errorf("release of lock %d = %v, want the not-held error", l, err)
			}
		}
		if err := n.WriteUint64(1<<40, 1); err == nil {
			t.Error("out-of-space write accepted")
		}
		var b [8]byte
		if err := n.Read(b[:], -4); err == nil {
			t.Error("negative-address read accepted")
		}
		must(t, lockedAdd(n, 1, 8, 7))
	})
}

// TestSecondCallerGetsAnError: a node takes one application goroutine.
// While node 1's goroutine waits in a barrier that node 0 has not reached,
// a second goroutine's call of each kind on node 1 fails at once with an
// error that says why, and leaves the node alone: the barrier completes,
// and the node goes on serving its own goroutine.
func TestSecondCallerGetsAnError(t *testing.T) {
	allModes(t, func(t *testing.T, mode Mode) {
		s := newSys(t, 2, mode)
		n0, n1 := s.Node(0), s.Node(1)
		arrived := make(chan error, 1)
		go func() { arrived <- n1.Barrier(0) }()
		waitFor(t, "node 1's arrival to reach the master", func() bool { return len(n0.barCh) == 1 })
		var b [8]byte
		for op, call := range map[string]func() error{
			"read":    func() error { return n1.Read(b[:], 0) },
			"write":   func() error { return n1.Write(0, b[:]) },
			"acquire": func() error { return n1.Acquire(1) },
			"release": func() error { return n1.Release(1) },
			"barrier": func() error { return n1.Barrier(0) },
		} {
			if err := call(); err == nil || !strings.Contains(err.Error(), op+" while another goroutine is in a call on the node") {
				t.Errorf("second goroutine's %s = %v, want the one-goroutine error", op, err)
			}
		}
		must(t, n0.Barrier(0))
		must(t, <-arrived)
		must(t, lockedAdd(n1, 1, 8, 7))
		barriers(t, s, 1)
		if v, err := n0.ReadUint64(8); err != nil || v != 7 {
			t.Errorf("node 0 reads node 1's word after the barrier as %d (%v), want 7", v, err)
		}
	})
}

// TestOutOfRangeAccesses: every access that does not lie wholly inside
// the space is an error — never a panic — including the address whose
// end wraps past math.MaxInt64.
func TestOutOfRangeAccesses(t *testing.T) {
	const space = 8 * 1024
	s, err := New(Config{Procs: 1, SpaceSize: space, PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	n := s.Node(0)
	for _, tc := range []struct {
		name string
		addr mem.Addr
		size int
	}{
		{"negative address", -4, 8},
		{"one byte past the end", space - 7, 8},
		{"longer than the space", 0, space + 1},
		{"end wraps past MaxInt64", mem.Addr(math.MaxInt64 - 3), 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			buf := make([]byte, tc.size)
			if err := n.Write(tc.addr, buf); err == nil || !strings.Contains(err.Error(), "outside space") {
				t.Errorf("Write = %v, want an outside-space error", err)
			}
			if err := n.Read(buf, tc.addr); err == nil || !strings.Contains(err.Error(), "outside space") {
				t.Errorf("Read = %v, want an outside-space error", err)
			}
		})
	}
	// The last in-range access still works.
	if err := n.WriteUint64(space-8, 1); err != nil {
		t.Errorf("write of the last word: %v", err)
	}
}

func TestParseMode(t *testing.T) {
	for _, m := range Modes {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	for _, bad := range []string{"", "li", "XX", "LI ", "LazyInvalidate"} {
		_, err := ParseMode(bad)
		if err == nil {
			t.Errorf("ParseMode(%q) succeeded", bad)
			continue
		}
		if !strings.Contains(err.Error(), "unknown mode") || !strings.Contains(err.Error(), ModeNames()) {
			t.Errorf("ParseMode(%q) error %q does not name the supported modes", bad, err)
		}
	}
}

func TestModeNames(t *testing.T) {
	names := ModeNames()
	for _, want := range []string{"LI", "LU", "EI", "EU", "SC"} {
		if !strings.Contains(names, want) {
			t.Errorf("ModeNames() = %q, missing %s", names, want)
		}
	}
	if got := Mode(99).String(); got != "Mode(99)" {
		t.Errorf("Mode(99).String() = %q", got)
	}
	if Mode(99).Valid() {
		t.Error("Mode(99) reported valid")
	}
}

// TestConfigSurface pins dsm.Config's exact field list. A new knob has
// to edit this test — and say which two existing callers need different
// values for it; a value only one caller sets is a constant.
func TestConfigSurface(t *testing.T) {
	want := []string{
		"Procs", "SpaceSize", "PageSize", "Mode",
		"GCEveryBarriers", "Transport",
		"RPCTimeout", "Metrics", "Tracer",
	}
	typ := reflect.TypeOf(Config{})
	var got []string
	for i := 0; i < typ.NumField(); i++ {
		got = append(got, typ.Field(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("dsm.Config fields = %v\nwant %v", got, want)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Procs: 0, SpaceSize: 4096, PageSize: 512}); err == nil {
		t.Error("zero procs accepted")
	}
	if _, err := New(Config{Procs: 100, SpaceSize: 4096, PageSize: 512}); err == nil {
		t.Error("100 procs accepted")
	}
	if _, err := New(Config{Procs: 2, SpaceSize: 4096, PageSize: 1000}); err == nil {
		t.Error("bad page size accepted")
	}
	// What one message's Data block may carry bounds a page.
	if _, err := New(Config{Procs: 2, SpaceSize: 4 * wire.MaxDataBytes, PageSize: 2 * wire.MaxDataBytes}); err == nil ||
		!strings.Contains(err.Error(), "no page could be shipped") {
		t.Errorf("unshippable page size: err = %v", err)
	}
	// A negative GC period is a mistake, not a way to say "off".
	if _, err := New(Config{Procs: 2, SpaceSize: 4096, PageSize: 512, GCEveryBarriers: -1}); err == nil ||
		!strings.Contains(err.Error(), "GCEveryBarriers") {
		t.Errorf("negative GC period: err = %v", err)
	}
}

func TestStatsAndClock(t *testing.T) {
	s := newSys(t, 2, LazyInvalidate)
	p0, p1 := s.Node(0), s.Node(1)
	// Page 1's home is node 1 (the reader), so the cold read cannot be
	// satisfied by a home fetch and must pull node 0's diff.
	must(t, p0.Acquire(0))
	must(t, p0.WriteUint64(1024, 5))
	must(t, p0.Release(0))
	must(t, p1.Acquire(0))
	if _, err := p1.ReadUint64(1024); err != nil {
		t.Fatal(err)
	}
	must(t, p1.Release(0))
	st := p1.Stats()
	if st.AccessMisses == 0 || st.DiffsFetched == 0 || st.DiffsApplied == 0 {
		t.Errorf("p1 stats: %+v", st)
	}
	if p0.Stats().IntervalsCreated != 1 {
		t.Errorf("p0 intervals: %+v", p0.Stats())
	}
	// p1's clock must cover p0's interval.
	if c := p1.Clock(); c[0] != 0 {
		t.Errorf("p1 clock = %v", c)
	}
	if p0.ID() != 0 || p1.ID() != 1 {
		t.Error("IDs wrong")
	}
	if s.NumProcs() != 2 || s.Layout().PageSize() != 1024 {
		t.Error("system accessors wrong")
	}
}

func TestWriteSpanningPages(t *testing.T) {
	allModes(t, func(t *testing.T, mode Mode) {
		s := newSys(t, 2, mode)
		p0, p1 := s.Node(0), s.Node(1)
		data := make([]byte, 3000) // spans three 1K pages
		for i := range data {
			data[i] = byte(i * 7)
		}
		must(t, p0.Acquire(0))
		must(t, p0.Write(500, data))
		must(t, p0.Release(0))
		must(t, p1.Acquire(0))
		got := make([]byte, 3000)
		must(t, p1.Read(got, 500))
		for i := range data {
			if got[i] != data[i] {
				t.Fatalf("byte %d = %d, want %d", i, got[i], data[i])
			}
		}
		must(t, p1.Release(0))
	})
}
