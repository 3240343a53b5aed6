package dsm

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/vc"
	"repro/internal/wire"
)

// onEvery runs body on every node of s at once and fails t with the first
// error.
func onEvery(t *testing.T, s *System, body func(n *Node) error) {
	t.Helper()
	var wg sync.WaitGroup
	errs := make([]error, s.cfg.Procs)
	for id := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[id] = body(s.Node(id))
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// slabPage fills buf with page pg as written in step st; a rewrite changes
// every byte.
func slabPage(buf []byte, pg, st int) {
	for i := range buf {
		buf[i] = byte(pg*31+i) ^ byte(st+1)
	}
}

// TestMissAggregationGate runs the barrier-slab pattern under LI: four
// nodes each rewrite their four pages, meet at a barrier, and read the
// other twelve. A reader lacks one interval of each of the three other
// writers, each its page's one concurrent last modifier, and each names
// all four of its writer's pages, so a step's three faults bring the
// twelve pages current with one KDiffReq to each responder: per reader and
// step 3 requests, 12 diffs fetched, 3 faults and 9 aggregated pages, where
// asking page by page sends 12 requests. Every
// read checks the page, and at the end every node's image is the one the
// last step wrote.
func TestMissAggregationGate(t *testing.T) {
	const procs, slab, pages, pageSize, warmup, steps = 4, 4, 16, 1024, 2, 8
	s, err := New(Config{Procs: procs, SpaceSize: pages * pageSize, PageSize: pageSize, Mode: LazyInvalidate})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	run := func(from, to int) {
		onEvery(t, s, func(n *Node) error {
			id := int(n.ID())
			want, got := make([]byte, pageSize), make([]byte, pageSize)
			for st := from; st < to; st++ {
				for k := range slab {
					pg := id*slab + k
					slabPage(want, pg, st)
					if err := n.Write(mem.Addr(pg*pageSize), want); err != nil {
						return err
					}
				}
				if err := n.Barrier(0); err != nil {
					return err
				}
				for k := slab; k < pages; k++ {
					pg := (id*slab + k) % pages
					if err := n.Read(got, mem.Addr(pg*pageSize)); err != nil {
						return err
					}
					if slabPage(want, pg, st); !bytes.Equal(got, want) {
						return fmt.Errorf("step %d: node %d read a wrong page %d", st, id, pg)
					}
				}
				if err := n.Barrier(1); err != nil {
					return err
				}
			}
			return nil
		})
	}
	run(0, warmup) // the first step's copies are cold
	before := make([]Stats, procs)
	for id := range before {
		before[id] = s.Node(id).Stats()
	}
	run(warmup, warmup+steps)
	for id := range before {
		a, b := s.Node(id).Stats(), before[id]
		got := [4]int64{a.KindMsgs[wire.KDiffReq] - b.KindMsgs[wire.KDiffReq], a.DiffsFetched - b.DiffsFetched,
			a.AccessMisses - b.AccessMisses, a.PagesAggregated - b.PagesAggregated}
		if want := [4]int64{3 * steps, 12 * steps, 3 * steps, 9 * steps}; got != want {
			t.Errorf("node %d over %d steps: %d diff requests, %d diffs fetched, %d faults, %d aggregated pages; want %v",
				id, steps, got[0], got[1], got[2], got[3], want)
		}
	}
	onEvery(t, s, func(n *Node) error {
		img, want := make([]byte, pages*pageSize), make([]byte, pages*pageSize)
		for pg := range pages {
			slabPage(want[pg*pageSize:(pg+1)*pageSize], pg, warmup+steps-1)
		}
		if err := n.Read(img, 0); err != nil {
			return err
		}
		if !bytes.Equal(img, want) {
			return fmt.Errorf("node %d's image differs from the last step's", n.ID())
		}
		return nil
	})
}

// TestAggregationAddsNoRequest: node 1 writes pages A, B, C and D in one
// interval and node 2 writes B concurrently. Node 0 holds copies of A, B
// and D and has never touched C. Its fault on A asks node 1 alone, once,
// and takes D along; B, which needs node 2 as well, stays invalid and adds
// no request; C, which node 0 has no copy of, is not fetched.
func TestAggregationAddsNoRequest(t *testing.T) {
	const pageSize = 1024
	const pgA, pgB, pgC, pgD = mem.PageID(1), mem.PageID(2), mem.PageID(4), mem.PageID(5)
	addr := func(pg mem.PageID, word int) mem.Addr { return mem.Addr(int(pg)*pageSize + 8*word) }
	s := newSys(t, 3, LazyInvalidate)
	r, w1, w2 := s.Node(0), s.Node(1), s.Node(2)
	for _, pg := range []mem.PageID{pgA, pgB, pgD} {
		if _, err := r.ReadUint64(addr(pg, 0)); err != nil {
			t.Fatal(err)
		}
	}
	barrier := func() {
		onEvery(t, s, func(n *Node) error { return n.Barrier(0) })
	}
	barrier()
	for _, pg := range []mem.PageID{pgA, pgB, pgC, pgD} {
		must(t, w1.WriteUint64(addr(pg, 0), 100+uint64(pg)))
	}
	must(t, w2.WriteUint64(addr(pgB, 1), 7))
	barrier()

	before := r.Stats()
	if v, err := r.ReadUint64(addr(pgA, 0)); err != nil || v != 100+uint64(pgA) {
		t.Fatalf("read A = %d, %v", v, err)
	}
	after := r.Stats()
	if reqs := after.KindMsgs[wire.KDiffReq] - before.KindMsgs[wire.KDiffReq]; reqs != 1 {
		t.Errorf("the fault on A sent %d diff requests, want 1 (node 1's)", reqs)
	}
	if got := after.PagesAggregated - before.PagesAggregated; got != 1 {
		t.Errorf("the fault on A aggregated %d pages, want 1 (D)", got)
	}
	if got := after.PagesFetched - before.PagesFetched; got != 0 {
		t.Errorf("the fault on A fetched %d whole pages, want none", got)
	}
	e := r.e.(*lazyEngine)
	if e.isValid(pgB) || !e.isValid(pgD) {
		t.Errorf("after the fault on A: B valid %t, D valid %t; want B invalid and D valid", e.isValid(pgB), e.isValid(pgD))
	}
	pmu := r.pageLock(pgC)
	pmu.Lock()
	cold := e.pages[pgC] == nil
	pmu.Unlock()
	if !cold {
		t.Error("the fault on A materialized C, which node 0 never touched")
	}

	// D is current: reading it is a hit. B faults and asks both writers.
	before = r.Stats()
	if v, err := r.ReadUint64(addr(pgD, 0)); err != nil || v != 100+uint64(pgD) {
		t.Fatalf("read D = %d, %v", v, err)
	}
	var b [16]byte
	must(t, r.Read(b[:], addr(pgB, 0)))
	if v0, v1 := binary.LittleEndian.Uint64(b[:]), binary.LittleEndian.Uint64(b[8:]); v0 != 100+uint64(pgB) || v1 != 7 {
		t.Errorf("read B = %d, %d; want %d, 7", v0, v1, 100+uint64(pgB))
	}
	after = r.Stats()
	if faults, reqs := after.AccessMisses-before.AccessMisses, after.KindMsgs[wire.KDiffReq]-before.KindMsgs[wire.KDiffReq]; faults != 1 || reqs != 2 {
		t.Errorf("reading D then B: %d faults, %d diff requests; want 1 and 2", faults, reqs)
	}
}

// TestMissAsksTheCreatorWhatItsModifierDoesNotHold: under LI a concurrent
// last modifier whose copy took another processor's diff in through a page
// ship says it does not hold it, and the miss asks the creator in a second
// round. Node 0 caches page 1 (homed by node 1) while it is zero; node 1
// writes word 0 under lock 0; node 2 takes the lock, fetches the page from
// its home with that write in, and writes word 1. Node 0 then takes the
// lock and reads the page: node 2's interval covers node 1's, so node 2 is
// asked for both, holds only its own, and node 1 is asked for the other;
// /metrics counts the fallback. (Under LU node 1's grant would have
// carried its diff to node 2.)
func TestMissAsksTheCreatorWhatItsModifierDoesNotHold(t *testing.T) {
	reg := obs.NewRegistry()
	s, err := New(Config{Procs: 3, SpaceSize: 3 * 1024, PageSize: 1024, Mode: LazyInvalidate, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()
	n0, n1, n2 := s.Node(0), s.Node(1), s.Node(2)
	locked := func(n *Node, body func() error) {
		t.Helper()
		if err := errors.Join(n.Acquire(0), body(), n.Release(0)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := n0.ReadUint64(1024); err != nil {
		t.Fatal(err)
	}
	locked(n1, func() error { return n1.WriteUint64(1024, 0xa) })
	locked(n2, func() error { return n2.WriteUint64(1032, 0xb) })
	before := n0.Stats()
	var a, b uint64
	locked(n0, func() (err error) {
		a, err = n0.ReadUint64(1024)
		if err == nil {
			b, err = n0.ReadUint64(1032)
		}
		return err
	})
	if a != 0xa || b != 0xb {
		t.Errorf("node 0 read %#x and %#x, want 0xa and 0xb", a, b)
	}
	after := n0.Stats()
	got := [2]int64{after.KindMsgs[wire.KDiffReq] - before.KindMsgs[wire.KDiffReq], after.DiffFallbacks - before.DiffFallbacks}
	if got != [2]int64{2, 1} {
		t.Errorf("node 0 sent %d diff requests, %d of its wants asked again; want 2 and 1", got[0], got[1])
	}
	var page strings.Builder
	if err := reg.WritePrometheus(&page); err != nil {
		t.Fatal(err)
	}
	if want := `dsm_node_diff_fallbacks_total{node="0"} 1`; !strings.Contains(page.String(), want) {
		t.Errorf("/metrics lacks %s:\n%s", want, page.String())
	}
}

// TestGCEpochValidatesInOneRound: the GC epoch's bulk validation is one
// round over the copies the node holds, and a page the node homes but
// never touched is not built: its modifier keeps it. Node 0 of two, under
// LI with GC at every barrier, caches page 1 and never touches page 0,
// which it homes; node 1 writes both in one interval. Across the next
// barrier node 0 validates page 1 for the epoch with one diff request to
// node 1 and names node 1 page 0's keeper. After the next barrier has
// discarded the epoch, node 0's read of page 0 takes node 1's copy with
// one page request and one response, and reads node 1's word.
func TestGCEpochValidatesInOneRound(t *testing.T) {
	const pageSize = 1024
	s, err := New(Config{Procs: 2, SpaceSize: 4 * pageSize, PageSize: pageSize, Mode: LazyInvalidate, GCEveryBarriers: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	n0, n1 := s.Node(0), s.Node(1)
	if n0.homeOf(0) != 0 || n0.homeOf(1) != 1 {
		t.Fatal("node 0 does not home page 0, or homes page 1")
	}
	barrier := func() {
		onEvery(t, s, func(n *Node) error { return n.Barrier(0) })
	}
	if _, err := n0.ReadUint64(pageSize); err != nil {
		t.Fatal(err)
	}
	barrier()
	must(t, n1.WriteUint64(8, 0xa))
	must(t, n1.WriteUint64(pageSize+8, 0xb))
	before := n0.Stats()
	barrier()
	after := n0.Stats()
	if reqs := after.KindMsgs[wire.KDiffReq] - before.KindMsgs[wire.KDiffReq]; reqs != 1 {
		t.Errorf("node 0's GC epoch sent %d diff requests, want 1", reqs)
	}
	if pages := after.PagesFetched - before.PagesFetched; pages != 0 {
		t.Errorf("node 0's GC epoch fetched %d pages, want none", pages)
	}
	e := lazyOf(n0)
	keeper := func() (cold bool, k mem.ProcID) {
		pmu := n0.pageLock(0)
		pmu.Lock()
		defer pmu.Unlock()
		return e.pages[0] == nil, e.keeperLocked(0)
	}
	if cold, k := keeper(); !cold || k != 1 || !e.isValid(1) || after.KeptPages != 1 {
		t.Errorf("after the GC epoch: node 0 holds no copy of page 0 %t, its keeper %d, page 1 valid %t, %d kept pages; want true, 1, true, 1",
			cold, k, e.isValid(1), after.KeptPages)
	}
	barrier() // discards the epoch
	b0, b1 := n0.Stats(), n1.Stats()
	if got, err := n0.ReadUint64(8); err != nil || got != 0xa {
		t.Errorf("node 0 read %#x from page 0 (err %v), want 0xa", got, err)
	}
	a0, a1 := n0.Stats(), n1.Stats()
	if got := [3]int64{a0.KindMsgs[wire.KPageReq] - b0.KindMsgs[wire.KPageReq], a1.KindMsgs[wire.KPageResp] - b1.KindMsgs[wire.KPageResp],
		a0.KindMsgs[wire.KDiffReq] - b0.KindMsgs[wire.KDiffReq]}; got != [3]int64{1, 1, 0} {
		t.Errorf("node 0's read of page 0 sent %d page requests, node 1 %d page responses, node 0 %d diff requests; want 1, 1, 0", got[0], got[1], got[2])
	}
	if cold, k := keeper(); cold || k != -1 || a0.KeptPages != 0 {
		t.Errorf("after node 0's read: no copy of page 0 %t, its keeper %d, %d kept pages; want false, -1, 0", cold, k, a0.KeptPages)
	}
	if got, err := n0.ReadUint64(pageSize + 8); err != nil || got != 0xb {
		t.Errorf("node 0 read %#x from page 1 (err %v), want 0xb", got, err)
	}
}

// TestGCEpochLeavesValidCopies: a GC epoch validates only invalid copies.
// A valid copy keeps the stamp it had, below the epoch, and a cold miss
// served from it after the discard plans from that stamp, which lies below
// the requester's log floor: the plan reads only intervals above the
// floor. Node 0 of three writes page P under LI or LU with GC at every
// barrier; P is node 0's own (homed there) or one its home never touched,
// so that node 0 is its keeper. Node 1 then writes page 4 only, so node
// 0's copy stays valid with a clock that lacks node 1's interval. The next
// epoch sends nothing from node 0 but its exits and plans nothing; through
// the discard after it the copy keeps its stamp; node 2's cold miss of P
// then reads node 0's page.
func TestGCEpochLeavesValidCopies(t *testing.T) {
	const pageSize, procs = 1024, 3
	for _, mode := range []Mode{LazyInvalidate, LazyUpdate} {
		for _, c := range []struct {
			name string
			pg   mem.PageID
		}{{"home", 0}, {"keeper", 1}} {
			t.Run(fmt.Sprintf("%v/%s", mode, c.name), func(t *testing.T) {
				s, err := New(Config{Procs: procs, SpaceSize: 6 * pageSize, PageSize: pageSize, Mode: mode, GCEveryBarriers: 1})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() {
					if err := s.Close(); err != nil {
						t.Errorf("Close: %v", err)
					}
				})
				n0, n1, n2 := s.Node(0), s.Node(1), s.Node(2)
				barrier := func() {
					onEvery(t, s, func(n *Node) error { return n.Barrier(0) })
				}
				e := lazyOf(n0)
				stamp := func() (bool, vc.VC) {
					pmu := n0.pageLock(c.pg)
					pmu.Lock()
					defer pmu.Unlock()
					return e.pages[c.pg].valid, e.pages[c.pg].applied.Clone()
				}
				addr := mem.Addr(c.pg)*pageSize + 40
				must(t, n0.WriteUint64(addr, 0x5eed))
				barrier() // an epoch: node 1 names node 0 keeper of page 1
				must(t, n1.WriteUint64(4*pageSize, 0xc))
				_, pre := stamp()
				before := n0.Stats()
				barrier() // the epoch that covers node 1's interval
				after := n0.Stats()
				if sent, reqs := after.SentMsgs-before.SentMsgs, after.KindMsgs[wire.KDiffReq]-before.KindMsgs[wire.KDiffReq]; sent != procs-1 || reqs != 0 || len(e.round.pages) != 0 {
					t.Errorf("node 0's epoch sent %d messages, %d diff requests and planned pages %v; want its %d exits alone and no plan",
						sent, reqs, e.round.pages, procs-1)
				}
				barrier() // discards it
				valid, post := stamp()
				floor := lazyOf(n2).log.Floor(1)
				if !valid || !slices.Equal(post, pre) || pre[1] >= floor {
					t.Errorf("through the discard node 0's copy of page %d is valid %t, stamped %v; want valid, stamped %v as before the epoch, below node 1's floor %d",
						c.pg, valid, post, pre, floor)
				}
				got, want := make([]byte, pageSize), make([]byte, pageSize)
				binary.LittleEndian.PutUint64(want[40:], 0x5eed)
				before = n0.Stats()
				must(t, n2.Read(got, mem.Addr(c.pg)*pageSize))
				if !bytes.Equal(got, want) {
					t.Errorf("node 2's cold miss of page %d read %x..., want node 0's page %x...", c.pg, got[:48], want[:48])
				}
				if resps := n0.Stats().KindMsgs[wire.KPageResp] - before.KindMsgs[wire.KPageResp]; resps != 1 {
					t.Errorf("node 0 answered node 2's cold miss with %d page responses, want 1: its copy, stamped %v", resps, pre)
				}
			})
		}
	}
}

// TestGCKeeperServesColdMiss: a page whose home never touched it is
// served, once a GC epoch has collected its history, from the copy of the
// keeper the home named — never as the zero page. Node 0 of three homes
// page 0 and node 1 writes it; after the epoch and its discard, a cold
// miss of the page reads node 1's word: node 2's goes to the home, which
// forwards it to node 1, which answers node 2 (two page requests, one
// response), and the home's own goes to node 1 directly.
func TestGCKeeperServesColdMiss(t *testing.T) {
	const pageSize = 1024
	for _, c := range []struct {
		name      string
		reader    int
		pageReqs  int64 // sent by every node
		forwarded int64 // by the home
	}{
		{"another node's miss", 2, 2, 1},
		{"the home's own miss", 0, 1, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, err := New(Config{Procs: 3, SpaceSize: 6 * pageSize, PageSize: pageSize, Mode: LazyInvalidate, GCEveryBarriers: 1})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() {
				if err := s.Close(); err != nil {
					t.Errorf("Close: %v", err)
				}
			})
			home, writer, reader := s.Node(0), s.Node(1), s.Node(c.reader)
			must(t, writer.WriteUint64(16, 0x5eed))
			for range 2 { // the epoch, then its discard
				onEvery(t, s, func(n *Node) error { return n.Barrier(0) })
			}
			if floor := lazyOf(reader).log.Floor(1); floor < 0 {
				t.Fatalf("node %d's log floor for node 1 is %d: the epoch was not discarded", c.reader, floor)
			}
			var before [3]Stats
			for i := range before {
				before[i] = s.Node(i).Stats()
			}
			if got, err := reader.ReadUint64(16); err != nil || got != 0x5eed {
				t.Errorf("node %d read %#x (err %v), want node 1's 0x5eed", c.reader, got, err)
			}
			var reqs, resps int64
			for i := range before {
				after := s.Node(i).Stats()
				reqs += after.KindMsgs[wire.KPageReq] - before[i].KindMsgs[wire.KPageReq]
				resps += after.KindMsgs[wire.KPageResp] - before[i].KindMsgs[wire.KPageResp]
			}
			if sent := writer.Stats().KindMsgs[wire.KPageResp] - before[1].KindMsgs[wire.KPageResp]; reqs != c.pageReqs || resps != 1 || sent != 1 {
				t.Errorf("the miss sent %d page requests and %d responses, %d of them node 1's; want %d, 1, 1", reqs, resps, sent, c.pageReqs)
			}
			if fwd := home.Stats().PageForwards - before[0].PageForwards; fwd != c.forwarded {
				t.Errorf("the home forwarded %d page requests, want %d", fwd, c.forwarded)
			}
		})
	}
}

// TestFaultBringsPagesItsPlanDidNotWrite: a fault's siblings are every
// page the node holds an invalid copy of, not only the pages its own plan's
// intervals wrote. Node 1 writes page A in one interval and page E in the
// next; node 0 caches both, and after a barrier its fault on A, whose one
// outstanding interval wrote A alone, asks node 1 once and takes E along,
// since E's one want goes to node 1 as well.
func TestFaultBringsPagesItsPlanDidNotWrite(t *testing.T) {
	const pageSize = 1024
	const pgA, pgE = mem.PageID(1), mem.PageID(4)
	addr := func(pg mem.PageID) mem.Addr { return mem.Addr(int(pg) * pageSize) }
	s := newSys(t, 3, LazyInvalidate)
	r, w := s.Node(0), s.Node(1)
	for _, pg := range []mem.PageID{pgA, pgE} {
		if _, err := r.ReadUint64(addr(pg)); err != nil {
			t.Fatal(err)
		}
	}
	barrier := func() {
		onEvery(t, s, func(n *Node) error { return n.Barrier(0) })
	}
	barrier()
	for _, pg := range []mem.PageID{pgA, pgE} {
		must(t, w.Acquire(0))
		must(t, w.WriteUint64(addr(pg), 100+uint64(pg)))
		must(t, w.Release(0))
	}
	barrier()

	before := r.Stats()
	if v, err := r.ReadUint64(addr(pgA)); err != nil || v != 100+uint64(pgA) {
		t.Fatalf("read A = %d, %v", v, err)
	}
	if v, err := r.ReadUint64(addr(pgE)); err != nil || v != 100+uint64(pgE) {
		t.Fatalf("read E = %d, %v", v, err)
	}
	after := r.Stats()
	got := [3]int64{after.AccessMisses - before.AccessMisses, after.KindMsgs[wire.KDiffReq] - before.KindMsgs[wire.KDiffReq],
		after.PagesAggregated - before.PagesAggregated}
	if got != [3]int64{1, 1, 1} {
		t.Errorf("reading A then E: %d faults, %d diff requests, %d aggregated pages; want 1, 1 and 1 (E with A)", got[0], got[1], got[2])
	}
}

// TestUnwrittenPageIsZeroLocally: a node's cold miss of a page no interval
// it knows of wrote makes the zero page without a message, home or not,
// while its log holds every interval it knows of. Past a GC epoch's sweep
// the log no longer does, and a cold miss fetches the home's copy.
func TestUnwrittenPageIsZeroLocally(t *testing.T) {
	const pageSize = 1024
	bothModes(t, func(t *testing.T, mode Mode) {
		s, err := New(Config{Procs: 3, SpaceSize: 6 * pageSize, PageSize: pageSize, Mode: mode, GCEveryBarriers: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if err := s.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		})
		// Page 2 is node 2's and nobody writes it; node 1 writes its page 1.
		n0, n1 := s.Node(0), s.Node(1)
		read := func(n *Node) (cold, fetched, reqs int64) {
			t.Helper()
			before := n.Stats()
			if v, err := n.ReadUint64(2 * pageSize); err != nil || v != 0 {
				t.Fatalf("node %d read %d at page 2 (err %v), want 0", n.ID(), v, err)
			}
			after := n.Stats()
			return after.ColdMisses - before.ColdMisses, after.PagesFetched - before.PagesFetched,
				after.KindMsgs[wire.KPageReq] - before.KindMsgs[wire.KPageReq]
		}
		if cold, fetched, reqs := read(n0); cold != 1 || fetched != 0 || reqs != 0 {
			t.Errorf("before any sweep: %d cold misses, %d pages fetched, %d page requests; want 1, 0 and 0", cold, fetched, reqs)
		}
		must(t, n1.WriteUint64(pageSize, 1))
		// The first barrier's epoch covers the write; the second sweeps it.
		for range 2 {
			onEvery(t, s, func(n *Node) error { return n.Barrier(0) })
		}
		if floor := lazyOf(n1).log.Floor(1); floor < 0 {
			t.Fatalf("node 1's log swept nothing of its own (floor %d)", floor)
		}
		if cold, fetched, reqs := read(n1); cold != 1 || fetched != 1 || reqs != 1 {
			t.Errorf("past a sweep: %d cold misses, %d pages fetched, %d page requests; want 1, 1 and 1", cold, fetched, reqs)
		}
	})
}
