package page

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/framebuf"
	"repro/internal/testenv"
)

// densePage and its twin differ in every word; sparsePage (bench_test.go)
// in a few dozen bytes.
func densePage() (*Twin, []byte) {
	cur := bytes.Repeat([]byte{0xA5}, 4096)
	return NewTwin(make([]byte, 4096)), cur
}

// TestDiffBodiesRecycleGate: a made diff's body is a lease on a pooled
// buffer, so making and releasing diffs of one shape asks the allocator
// for a body once.
func TestDiffBodiesRecycleGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	sparseTwin, sparseCur := sparsePage(3)
	denseTwin, denseCur := densePage()
	for _, c := range []struct {
		name string
		twin *Twin
		cur  []byte
	}{{"dense", denseTwin, denseCur}, {"sparse", sparseTwin, sparseCur}} {
		make1 := func() {
			d, err := MakeDiff(c.twin, c.cur)
			if err != nil || d.Empty() {
				t.Fatalf("%s: MakeDiff: empty %v, err %v", c.name, d.Empty(), err)
			}
			got := make([]byte, len(c.cur))
			copy(got, c.twin.Data())
			if err := d.Apply(got); err != nil || !bytes.Equal(got, c.cur) {
				t.Fatalf("%s: a diff over a recycled body does not rebuild the page (err %v)", c.name, err)
			}
			d.Release()
		}
		make1()
		_, before := PoolStats()
		for i := 0; i < 10000; i++ {
			make1()
		}
		if _, after := PoolStats(); after != before {
			t.Errorf("%s: 10000 make/release rounds missed the pool %d times after the first", c.name, after-before)
		}
	}
}

// TestLeasesRecycleWholeGate: the pool recycles a lease — the twin or diff
// header with its buffer — and a merge's run scratch is pooled too, so a
// steady-state capture, diff and merge, each released when done, allocates
// nothing at all: not even a merge whose union has more runs than a
// scratch array in a stack frame would hold.
func TestLeasesRecycleWholeGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	sparseTwin, sparseCur := sparsePage(3)
	_, denseCur := densePage()
	round := func() {
		tw := NewTwin(sparseCur)
		sparse, err := MakeDiff(sparseTwin, sparseCur)
		if err != nil {
			t.Fatal(err)
		}
		dense, err := MakeDiff(tw, denseCur)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := FlattenDiffs([]*Diff{sparse, dense}, len(denseCur))
		if err != nil || flat.Empty() || sparse.Empty() || dense.Empty() {
			t.Fatalf("flatten of a sparse and a dense diff: err %v", err)
		}
		flat.Release()
		dense.Release()
		sparse.Release()
		tw.Release()
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("a released capture, two diffs and their merge allocate %.1f objects, want 0", allocs)
	}

	// Two diffs of 48 one-word runs each, interleaved: a union of 96.
	const interleave = 48
	zero := NewTwin(make([]byte, 4096))
	evens, odds := make([]byte, 4096), make([]byte, 4096)
	for k := range interleave {
		evens[64*k], odds[64*k+32] = 1, 1
	}
	wide := func() {
		a, err := MakeDiff(zero, evens)
		if err != nil {
			t.Fatal(err)
		}
		b, err := MakeDiff(zero, odds)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := FlattenDiffs([]*Diff{a, b}, 4096)
		if err != nil || flat.NumRuns() != 2*interleave {
			t.Fatalf("flatten of two interleaved diffs: %d runs, err %v; want %d", flat.NumRuns(), err, 2*interleave)
		}
		flat.Release()
		b.Release()
		a.Release()
	}
	wide()
	if allocs := testing.AllocsPerRun(100, wide); allocs != 0 {
		t.Errorf("a merge of %d runs allocates %.1f objects, want 0", 2*interleave, allocs)
	}
}

// TestReleasedLeaseIsPoisoned: under poison-on-release a read through a
// twin or a diff after its last release fails at once, before the next
// capture or diff reuses the header: the twin reads poison, and the diff's
// body no longer parses, which Apply refuses as malformed. A write log's
// buffer, given back by Reset, reads poison too.
func TestReleasedLeaseIsPoisoned(t *testing.T) {
	framebuf.SetPoison(true)
	defer framebuf.SetPoison(false)
	tw, cur := densePage()
	d, err := MakeDiff(tw, cur)
	if err != nil {
		t.Fatal(err)
	}
	d.Release()
	if err := d.Apply(make([]byte, len(cur))); err == nil || !strings.Contains(err.Error(), "malformed diff body") {
		t.Errorf("a released diff applies with %v, want a malformed body", err)
	}
	tw.Release()
	if data := tw.Data(); len(data) != len(cur) || data[0] != framebuf.PoisonByte {
		t.Errorf("a released twin reads %d bytes starting %#x, want poison", len(data), data[0])
	}
	var log WriteLog
	log.Write(cur, 8, []byte{1, 2, 3, 4})
	buf := log.buf[:cap(log.buf)]
	log.Reset()
	for i, w := range buf {
		if w != uint64(framebuf.PoisonByte)*0x0101010101010101 {
			t.Fatalf("word %d of a reset write log's buffer reads %#x, want poison", i, w)
		}
	}
}

// TestDiffLeaseCounts: the body goes back at the last release and not
// before, one release too many panics, and a diff that owns no body —
// borrowed, empty, nil — ignores both calls.
func TestDiffLeaseCounts(t *testing.T) {
	framebuf.SetPoison(true)
	defer framebuf.SetPoison(false)
	tw, cur := densePage()
	d, err := MakeDiff(tw, cur)
	if err != nil {
		t.Fatal(err)
	}
	body := d.EnsureWireBody()
	if d.Retain() != d {
		t.Error("Retain does not return its diff")
	}
	d.Release()
	if body[len(body)-1] != 0xA5 {
		t.Fatal("body recycled while a reference was still held")
	}
	d.Release()
	if body[len(body)-1] != framebuf.PoisonByte {
		t.Fatal("last release did not hand the body to the pool")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("a release too many did not panic")
			}
		}()
		d.Release()
	}()

	frame := []byte{1, 8, 4, 1, 2, 3, 4}
	borrowed := new(Diff)
	borrowed.SetWire(frame)
	empty, err := MakeDiff(tw, tw.Data())
	if err != nil || !empty.Empty() {
		t.Fatalf("diff of a page against itself: empty %v, err %v", empty.Empty(), err)
	}
	for _, d := range []*Diff{borrowed, empty, {}, nil} {
		d.Retain()
		d.Release()
		d.Release() // unbalanced on purpose: nothing is counted
	}
	if !bytes.Equal(frame, []byte{1, 8, 4, 1, 2, 3, 4}) {
		t.Errorf("releasing a borrowing diff touched its frame: % x", frame)
	}
}

// TestCloneOfBorrowedDiffIsPooled: the clone of a borrowed diff owns a
// pooled body, outlives the poisoning of the frame it was borrowed from,
// and returns that body at its release.
func TestCloneOfBorrowedDiffIsPooled(t *testing.T) {
	framebuf.SetPoison(true)
	defer framebuf.SetPoison(false)
	tw, cur := densePage()
	src, err := MakeDiff(tw, cur)
	if err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), src.EnsureWireBody()...)
	borrowed := new(Diff)
	borrowed.SetWire(frame)
	borrowed.Clone().Release() // warm the body's class
	gets, misses := PoolStats()
	clone := borrowed.Clone()
	if g, m := PoolStats(); g != gets+1 || m != misses {
		t.Errorf("clone took %d buffers from the pool with %d misses, want 1 and 0", g-gets, m-misses)
	}
	framebuf.Poison(frame)
	got := make([]byte, len(cur))
	if err := borrowed.Apply(got); err == nil || !strings.Contains(err.Error(), "malformed diff body") {
		t.Errorf("a diff borrowing a poisoned frame applies with %v, want a malformed body", err)
	}
	if err := clone.Apply(got); err != nil || !bytes.Equal(got, cur) {
		t.Errorf("clone does not survive its source frame's poison (err %v)", err)
	}
	body := clone.EnsureWireBody()
	clone.Release()
	if body[len(body)-1] != framebuf.PoisonByte {
		t.Error("released clone kept its body out of the pool")
	}
}
