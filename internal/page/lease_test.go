package page

import (
	"bytes"
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
	if err := borrowed.SetWire(frame, []Run{{Off: 8, Len: 4}}, [][]byte{frame[3:7:7]}); err != nil {
		t.Fatal(err)
	}
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
	if err := borrowed.SetWire(frame, src.Runs(), windows(frame, src.Runs())); err != nil {
		t.Fatal(err)
	}
	borrowed.Clone().Release() // warm the body's class
	gets, misses := PoolStats()
	clone := borrowed.Clone()
	if g, m := PoolStats(); g != gets+1 || m != misses {
		t.Errorf("clone took %d buffers from the pool with %d misses, want 1 and 0", g-gets, m-misses)
	}
	framebuf.Poison(frame)
	got := make([]byte, len(cur))
	if err := clone.Apply(got); err != nil || !bytes.Equal(got, cur) {
		t.Errorf("clone does not survive its source frame's poison (err %v)", err)
	}
	body := clone.EnsureWireBody()
	clone.Release()
	if body[len(body)-1] != framebuf.PoisonByte {
		t.Error("released clone kept its body out of the pool")
	}
}
