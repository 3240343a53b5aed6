package page

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestRangeSetAddSimple(t *testing.T) {
	var s RangeSet
	s.Add(10, 5)
	if got := s.Bytes(); got != 5 {
		t.Fatalf("Bytes = %d, want 5", got)
	}
	if s.NumRuns() != 1 {
		t.Fatalf("NumRuns = %d, want 1", s.NumRuns())
	}
}

func TestRangeSetCoalescesAdjacent(t *testing.T) {
	var s RangeSet
	s.Add(0, 4)
	s.Add(4, 4)
	if s.NumRuns() != 1 || s.Bytes() != 8 {
		t.Fatalf("adjacent runs not coalesced: %v", s.String())
	}
}

func TestRangeSetCoalescesOverlap(t *testing.T) {
	var s RangeSet
	s.Add(0, 10)
	s.Add(5, 10)
	if s.NumRuns() != 1 || s.Bytes() != 15 {
		t.Fatalf("overlapping runs not coalesced: %v", s.String())
	}
}

func TestRangeSetDisjointStaySeparate(t *testing.T) {
	var s RangeSet
	s.Add(0, 4)
	s.Add(8, 4)
	if s.NumRuns() != 2 || s.Bytes() != 8 {
		t.Fatalf("disjoint runs merged: %v", s.String())
	}
}

func TestRangeSetBridging(t *testing.T) {
	var s RangeSet
	s.Add(0, 4)
	s.Add(8, 4)
	s.Add(2, 8) // bridges both
	if s.NumRuns() != 1 || s.Bytes() != 12 {
		t.Fatalf("bridging add failed: %v", s.String())
	}
}

func TestRangeSetEmptyAdd(t *testing.T) {
	var s RangeSet
	s.Add(5, 0)
	s.Add(5, -3)
	if !s.Empty() {
		t.Fatalf("empty adds produced runs: %v", s.String())
	}
}

func TestRangeSetContains(t *testing.T) {
	var s RangeSet
	s.Add(4, 4)
	s.Add(16, 4)
	for _, c := range []struct {
		off  int
		want bool
	}{{3, false}, {4, true}, {7, true}, {8, false}, {16, true}, {19, true}, {20, false}} {
		if got := s.Contains(c.off); got != c.want {
			t.Errorf("Contains(%d) = %v, want %v", c.off, got, c.want)
		}
	}
}

func TestRangeSetOverlaps(t *testing.T) {
	var s RangeSet
	s.Add(10, 10)
	for _, c := range []struct {
		off, n int
		want   bool
	}{{0, 10, false}, {0, 11, true}, {19, 1, true}, {20, 5, false}, {5, 30, true}, {12, 0, false}} {
		if got := s.Overlaps(c.off, c.n); got != c.want {
			t.Errorf("Overlaps(%d,%d) = %v, want %v", c.off, c.n, got, c.want)
		}
	}
}

func TestRangeSetUnionAndClone(t *testing.T) {
	var a, b RangeSet
	a.Add(0, 4)
	b.Add(2, 6)
	c := a.Clone()
	c.Union(&b)
	if c.Bytes() != 8 || c.NumRuns() != 1 {
		t.Fatalf("union wrong: %v", c.String())
	}
	if a.Bytes() != 4 {
		t.Fatalf("union mutated the receiver's source: %v", a.String())
	}
}

func TestRangeSetClear(t *testing.T) {
	var s RangeSet
	s.Add(0, 4)
	s.Clear()
	if !s.Empty() {
		t.Fatal("Clear left runs behind")
	}
	s.Add(8, 2)
	if s.Bytes() != 2 {
		t.Fatal("RangeSet unusable after Clear")
	}
}

// TestPropRangeSetMatchesBitmap checks the set against a reference bitmap
// implementation under random adds.
func TestPropRangeSetMatchesBitmap(t *testing.T) {
	const size = 256
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var s RangeSet
		ref := make([]bool, size)
		for i := 0; i < 40; i++ {
			off := r.Intn(size)
			n := r.Intn(size - off)
			s.Add(off, n)
			for k := off; k < off+n; k++ {
				ref[k] = true
			}
		}
		// Bytes must match the bitmap population.
		pop := 0
		for _, b := range ref {
			if b {
				pop++
			}
		}
		if s.Bytes() != pop {
			return false
		}
		// Contains must match everywhere.
		for k := 0; k < size; k++ {
			if s.Contains(k) != ref[k] {
				return false
			}
		}
		// Runs must be sorted, non-empty, non-adjacent.
		runs := s.Runs()
		for i, run := range runs {
			if run.Len <= 0 {
				return false
			}
			if i > 0 && runs[i-1].End() >= run.Off {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestPropUnionIsBitwiseOr(t *testing.T) {
	const size = 128
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var a, b RangeSet
		ref := make([]bool, size)
		for i := 0; i < 10; i++ {
			off, n := r.Intn(size), 0
			n = r.Intn(size - off)
			a.Add(off, n)
			for k := off; k < off+n; k++ {
				ref[k] = true
			}
			off = r.Intn(size)
			n = r.Intn(size - off)
			b.Add(off, n)
			for k := off; k < off+n; k++ {
				ref[k] = true
			}
		}
		a.Union(&b)
		for k := 0; k < size; k++ {
			if a.Contains(k) != ref[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// addByRebuild is RangeSet.Add as it was before it inserted in place: the
// same search and coalescing, the result spliced from fresh slices.
func addByRebuild(runs []Run, off, n int) []Run {
	if n <= 0 {
		return runs
	}
	nr := Run{Off: int32(off), Len: int32(n)}
	i := 0
	for i < len(runs) && runs[i].End() < nr.Off {
		i++
	}
	j := i
	for ; j < len(runs) && runs[j].Off <= nr.End(); j++ {
		lo, hi := min(nr.Off, runs[j].Off), max(nr.End(), runs[j].End())
		nr = Run{Off: lo, Len: hi - lo}
	}
	return append(runs[:i:i], append([]Run{nr}, runs[j:]...)...)
}

// TestPropAddInPlaceMatchesRebuild: the in-place insert normalizes run for
// run like the rebuild it replaced, over random add sequences — inserts at
// either end, pure inserts, and adds that swallow several runs.
func TestPropAddInPlaceMatchesRebuild(t *testing.T) {
	const size = 4096
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var s RangeSet
		var ref []Run
		for i := 0; i < 200; i++ {
			off := r.Intn(size)
			n := r.Intn(1 + min(size-off, 1<<uint(r.Intn(8)))) // mostly short, 0 included
			s.Add(off, n)
			ref = addByRebuild(ref, off, n)
			if !slices.Equal(s.Runs(), ref) {
				t.Logf("seed %d add %d [%d,%d): %v, rebuild gives %v", seed, i, off, off+n, s.Runs(), ref)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// BenchmarkRangeSetAdd fills a set with 256 disjoint runs in random order
// — FlattenDiffs' union of sparse diffs — so almost every Add is a pure
// insert. In place, a fill allocates only the slice's doublings.
func BenchmarkRangeSetAdd(b *testing.B) {
	offs := rand.New(rand.NewSource(1)).Perm(256)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var s RangeSet
		for _, o := range offs {
			s.Add(o*16, 8)
		}
	}
}
