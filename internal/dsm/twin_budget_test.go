package dsm

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"

	"repro/internal/mem"
	"repro/internal/vc"
	"repro/internal/wire"
)

// Tests for the deferred-twin budget (twinBudget, trimTwinsLocked): the
// budget bounds what a System's nodes park together between GC epochs, a
// trimmed slot serves exactly the diff demand would have made, and below
// the budget the lazy pipeline is untouched.

const (
	budgetPageSize = 4096
	// budgetPages is enough distinct pages to overrun the budget by a
	// fifth when each is written once and never collected, by one node or
	// by all of a System's nodes between them.
	budgetPages = twinBudget/budgetPageSize + twinBudget/budgetPageSize/5
)

func newBudgetSys(t *testing.T, cfg Config) *System {
	t.Helper()
	cfg.SpaceSize = budgetPages * budgetPageSize
	cfg.PageSize = budgetPageSize
	cfg.Mode = LazyInvalidate
	s, err := New(cfg)
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

// writeEveryPage has n close one interval per page under lock 0, and
// checks the budget after every close when check is set.
func writeEveryPage(t *testing.T, n *Node, check bool) {
	t.Helper()
	for pg := 0; pg < budgetPages; pg++ {
		if err := n.Acquire(0); err != nil {
			t.Fatal(err)
		}
		if err := n.WriteUint64(mem.Addr(pg*budgetPageSize+8), uint64(pg)+1); err != nil {
			t.Fatal(err)
		}
		if err := n.Release(0); err != nil {
			t.Fatal(err)
		}
		if !check {
			continue
		}
		// One interval dirties one page here, and the close trims it off
		// again once the System is over the budget.
		if live := n.sys.twinBytes.Load(); live > twinBudget {
			t.Fatalf("after %d intervals: %d twin bytes live, budget is %d", pg+1, live, twinBudget)
		}
	}
}

// readEveryPage has n fault every page under lock 0 and returns what it
// read.
func readEveryPage(t *testing.T, n *Node) []byte {
	t.Helper()
	if err := n.Acquire(0); err != nil {
		t.Fatal(err)
	}
	image := make([]byte, budgetPages*budgetPageSize)
	if err := n.Read(image, 0); err != nil {
		t.Fatal(err)
	}
	if err := n.Release(0); err != nil {
		t.Fatal(err)
	}
	return image
}

// TestTwinBudgetBoundsParkedTwins: one writer closes more intervals on
// distinct pages than the budget holds twins for, nobody reads and GC
// never runs — the System's live twin bytes stay bounded all the way, and
// the counters say the budget did it, trimming exactly the twins past it.
// The writer's own gauge peaks one capture past the budget.
func TestTwinBudgetBoundsParkedTwins(t *testing.T) {
	s := newBudgetSys(t, Config{Procs: 2})
	n := s.Node(0)
	writeEveryPage(t, n, true)
	st := n.Stats()
	if want := int64(budgetPages - twinBudget/budgetPageSize); st.DiffsTrimmed != want {
		t.Errorf("DiffsTrimmed = %d, want %d (every twin past the budget)", st.DiffsTrimmed, want)
	}
	if st.DiffsCreated != st.DiffsTrimmed {
		t.Errorf("DiffsCreated = %d with no reader, want the %d trimmed ones only", st.DiffsCreated, st.DiffsTrimmed)
	}
	if st.TwinBytesPeak <= twinBudget || st.TwinBytesPeak > twinBudget+budgetPageSize {
		t.Errorf("TwinBytesPeak = %d, want just past the budget of %d", st.TwinBytesPeak, twinBudget)
	}
}

// TestTwinBudgetIsPerSystem: the budget counts a System's twins together,
// since its nodes share the page pool, and each System's apart. Four nodes
// that each close a quarter of budgetPages intervals, one after the other,
// each park far less than the budget, yet together they trim exactly the
// twins past it — the last node its own, as its closes take the System over
// the budget. A second such System in the same process, run while the
// first still parks its twins, trims exactly as many.
func TestTwinBudgetIsPerSystem(t *testing.T) {
	const procs = 4
	want := int64(budgetPages - twinBudget/budgetPageSize)
	run := func(s *System) {
		t.Helper()
		for _, n := range s.Local() {
			// Homes are pg % procs: the node homes the pages it writes, and it
			// manages the lock it writes them under, so nothing is sent.
			l := mem.LockID(n.ID())
			for pg := int(n.ID()); pg < budgetPages; pg += procs {
				for _, err := range []error{n.Acquire(l), n.WriteUint64(mem.Addr(pg*budgetPageSize+8), uint64(pg)+1), n.Release(l)} {
					if err != nil {
						t.Fatal(err)
					}
				}
				if live := s.twinBytes.Load(); live > twinBudget {
					t.Fatalf("node %d, page %d: the System holds %d twin bytes, budget is %d", n.ID(), pg, live, twinBudget)
				}
			}
		}
		var trimmed, own int64
		for _, n := range s.Local() {
			st := n.Stats()
			trimmed += st.DiffsTrimmed
			own = max(own, st.TwinBytesPeak)
		}
		if trimmed != want {
			t.Errorf("the System's nodes trimmed %d diffs together, want %d (every twin past the budget)", trimmed, want)
		}
		if own > twinBudget/2 {
			t.Errorf("a node parked %d twin bytes: the run was meant to stay far below the budget of %d on every node", own, twinBudget)
		}
	}
	first := newBudgetSys(t, Config{Procs: procs})
	run(first)
	run(newBudgetSys(t, Config{Procs: procs}))
	if live := first.twinBytes.Load(); live != twinBudget {
		t.Errorf("the first System holds %d twin bytes after the second ran, want the budget of %d", live, twinBudget)
	}
}

// TestTrimmedSlotsServeTheSameDiffs: after the writer overran the budget
// a reader faults every page and sees exactly the bytes written, whether
// a page's diff was made early by the trim or on the reader's demand: a
// trimmed slot is served like any other.
func TestTrimmedSlotsServeTheSameDiffs(t *testing.T) {
	s := newBudgetSys(t, Config{Procs: 2})
	writeEveryPage(t, s.Node(0), false)
	image := readEveryPage(t, s.Node(1))
	if s.Node(0).Stats().DiffsTrimmed == 0 {
		t.Fatal("the run never trimmed: the test does not reach the budget")
	}
	want := make([]byte, len(image))
	for pg := 0; pg < budgetPages; pg++ {
		binary.LittleEndian.PutUint64(want[pg*budgetPageSize+8:], uint64(pg)+1)
	}
	if !bytes.Equal(image, want) {
		t.Error("reader's image differs from what the writer wrote")
	}
}

// TestTrimRacesWritersOfPendingPages: the slots the budget trims are
// pages' pending ones — their target is still the live page — while the
// writer's handlers serve those same slots to a reader. The writer (node
// 0) writes word 0 of every page under lock 0, one interval a page, and
// then word 1 under lock 1: that pass's closes trim, and its first writes
// capture twins that re-target the pending slots, while node 1, holding
// lock 0, faults every page and asks node 0 for the first pass's diffs.
// Whichever side wins each stripe, the reader finds the first pass's
// words, and once it holds lock 1 too, the second pass's. Run under -race.
func TestTrimRacesWritersOfPendingPages(t *testing.T) {
	s := newBudgetSys(t, Config{Procs: 2})
	w, r := s.Node(0), s.Node(1)
	word := func(g, pg int) (mem.Addr, uint64) {
		return mem.Addr(pg*budgetPageSize + 8*g), uint64(g+1)<<32 | uint64(pg)
	}
	pass := func(g int) error {
		for pg := 0; pg < budgetPages; pg++ {
			addr, v := word(g, pg)
			for _, err := range []error{w.Acquire(mem.LockID(g)), w.WriteUint64(addr, v), w.Release(mem.LockID(g))} {
				if err != nil {
					return err
				}
			}
		}
		return nil
	}
	check := func(g int) error {
		for pg := 0; pg < budgetPages; pg++ {
			addr, want := word(g, pg)
			got, err := r.ReadUint64(addr)
			if err != nil {
				return err
			}
			if got != want {
				return fmt.Errorf("page %d word %d = %#x, want %#x", pg, g, got, want)
			}
		}
		return nil
	}
	must(t, pass(0))
	must(t, r.Acquire(0))
	read := make(chan error, 1)
	go func() { read <- check(0) }()
	must(t, pass(1))
	must(t, <-read)
	if w.Stats().DiffsTrimmed == 0 {
		t.Fatal("the writer never tripped the budget")
	}
	must(t, r.Acquire(1))
	must(t, check(0))
	must(t, check(1))
}

// TestBelowBudgetNothingIsDiffed: the hit-private shape — every node
// rewrites 16 pages it homes, 8 rounds, one GC at the end, discarded at
// one barrier more — parks 128 twins per node, half the budget across the
// System's four: no diff is ever created, none trimmed, and GC leaves no
// twin behind.
func TestBelowBudgetNothingIsDiffed(t *testing.T) {
	const procs, slab, rounds = 4, 16, 8
	s := newBudgetSys(t, Config{Procs: procs, GCEveryBarriers: rounds})
	driveNodes(t, []*System{s}, func(n *Node) error {
		for round := 1; round <= rounds; round++ {
			for i := 0; i < slab; i++ {
				pg := i*procs + int(n.ID()) // pg % procs: homed here
				if err := n.WriteUint64(mem.Addr(pg*budgetPageSize), uint64(round)); err != nil {
					return err
				}
			}
			if err := n.Barrier(0); err != nil {
				return err
			}
		}
		return n.Barrier(0)
	})
	for _, n := range s.Local() {
		st := n.Stats()
		if st.DiffsDeferred != slab*rounds || st.DiffsCreated != 0 || st.DiffsTrimmed != 0 {
			t.Errorf("node %d: %d deferred, %d created, %d trimmed; want %d, 0, 0",
				n.ID(), st.DiffsDeferred, st.DiffsCreated, st.DiffsTrimmed, slab*rounds)
		}
		if st.TwinBytesPeak != slab*rounds*budgetPageSize || st.TwinBytesLive != 0 {
			t.Errorf("node %d: twin bytes peak %d live %d; want %d and 0",
				n.ID(), st.TwinBytesPeak, st.TwinBytesLive, slab*rounds*budgetPageSize)
		}
	}
}

// TestServedSlotsReleaseTheirTwins: below the budget and without GC, a
// slot a reader has been served holds no twin any more, so the writer's
// twins follow the unserved intervals, not the run.
func TestServedSlotsReleaseTheirTwins(t *testing.T) {
	s := newBudgetSys(t, Config{Procs: 2})
	w, r := s.Node(0), s.Node(1)
	const rounds = 1000
	for round := 1; round <= rounds; round++ {
		for _, n := range []*Node{w, r} {
			if err := n.Acquire(0); err != nil {
				t.Fatal(err)
			}
			v, err := n.ReadUint64(0)
			if err != nil {
				t.Fatal(err)
			}
			if n == r && v != uint64(round) {
				t.Fatalf("round %d: reader saw %d", round, v)
			}
			if n == w {
				err = n.WriteUint64(0, uint64(round))
			}
			if err != nil {
				t.Fatal(err)
			}
			if err := n.Release(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	// Each later interval's twin lives from the writer's capture to the
	// reader's serve. The first interval's slot is never served — the
	// reader's cold copy already covers it — and keeps two pages: its base
	// and the second interval's twin as its target.
	if st := w.Stats(); st.TwinBytesLive > 2*budgetPageSize || st.TwinBytesPeak > 3*budgetPageSize {
		t.Errorf("after %d served intervals: %d twin bytes live, peak %d; want at most 2 and 3 pages",
			rounds, st.TwinBytesLive, st.TwinBytesPeak)
	}
}

// TestForgedFloorClockGrantsEverything: a requester clock with an entry
// below "knows nothing" is treated like a missing one, not used as an
// index.
func TestForgedFloorClockGrantsEverything(t *testing.T) {
	s := newBudgetSys(t, Config{Procs: 2})
	n := s.Node(0)
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
