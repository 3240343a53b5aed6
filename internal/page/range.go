// Package page implements the per-page data machinery of a multiple-writer
// DSM: write logs (the old value of each word a window of writes touched,
// saved at its first write), diffs (run-length encodings of the words a
// processor changed, cut from a write log), and range sets (bookkeeping of
// which bytes of a page an interval modified, used by the simulator's byte
// accounting). Twins (pristine copies of a page made at the first write
// after a protection downgrade, as a VM-based DSM makes them) and MakeDiff,
// which diffs a page against its twin, remain as the oracle a write log's
// cut is held to.
//
// Diffs are the paper's §4.3 mechanism for limiting the amount of data a
// release (eager) or an access miss / acquire (lazy) moves across the
// interconnect, and for letting concurrent writers to disjoint parts of a
// falsely-shared page merge without ping-ponging the whole page.
package page

import (
	"fmt"
	"slices"
	"sort"
)

// Run is a half-open byte range [Off, Off+Len) within one page.
type Run struct {
	Off int32
	Len int32
}

// End returns the exclusive end offset of the run.
func (r Run) End() int32 { return r.Off + r.Len }

// RangeSet is a normalized (sorted, coalesced, non-overlapping) set of byte
// runs within a single page. The zero value is an empty set ready for use.
type RangeSet struct {
	runs []Run
}

// RangeSetIn returns an empty set that keeps its first cap(buf) runs in
// buf's array, so a caller that makes many small sets can allocate their
// runs together. Past that the set grows like any slice.
func RangeSetIn(buf []Run) RangeSet { return RangeSet{runs: buf[:0]} }

// Add inserts the range [off, off+n) into the set, coalescing with any
// overlapping or adjacent runs. Adding an empty or negative range is a
// no-op.
func (s *RangeSet) Add(off, n int) {
	if n <= 0 {
		return
	}
	nr := Run{Off: int32(off), Len: int32(n)}
	// Find insertion point: first run whose end is >= nr.Off (candidates
	// for coalescing are contiguous from there).
	i := sort.Search(len(s.runs), func(i int) bool {
		return s.runs[i].End() >= nr.Off
	})
	j := i
	for j < len(s.runs) && s.runs[j].Off <= nr.End() {
		if s.runs[j].Off < nr.Off {
			nr.Len += nr.Off - s.runs[j].Off
			nr.Off = s.runs[j].Off
		}
		if s.runs[j].End() > nr.End() {
			nr.Len = s.runs[j].End() - nr.Off
		}
		j++
	}
	// In place: runs [i, j) collapse into nr, and the slice grows only when
	// a pure insert (i == j) finds it full.
	s.runs = slices.Replace(s.runs, i, j, nr)
}

// AddRun inserts r into the set.
func (s *RangeSet) AddRun(r Run) { s.Add(int(r.Off), int(r.Len)) }

// Union merges every run of o into s.
func (s *RangeSet) Union(o *RangeSet) {
	for _, r := range o.runs {
		s.AddRun(r)
	}
}

// Bytes returns the total number of bytes covered by the set.
func (s *RangeSet) Bytes() int {
	total := 0
	for _, r := range s.runs {
		total += int(r.Len)
	}
	return total
}

// NumRuns returns the number of distinct runs in the set.
func (s *RangeSet) NumRuns() int { return len(s.runs) }

// Runs returns the normalized runs in ascending order. The returned slice
// is owned by the set and must not be mutated.
func (s *RangeSet) Runs() []Run { return s.runs }

// Empty reports whether the set covers no bytes.
func (s *RangeSet) Empty() bool { return len(s.runs) == 0 }

// Contains reports whether the byte at offset off is covered.
func (s *RangeSet) Contains(off int) bool {
	i := sort.Search(len(s.runs), func(i int) bool {
		return s.runs[i].End() > int32(off)
	})
	return i < len(s.runs) && s.runs[i].Off <= int32(off)
}

// Overlaps reports whether the set shares any byte with [off, off+n).
func (s *RangeSet) Overlaps(off, n int) bool {
	if n <= 0 {
		return false
	}
	i := sort.Search(len(s.runs), func(i int) bool {
		return s.runs[i].End() > int32(off)
	})
	return i < len(s.runs) && int(s.runs[i].Off) < off+n
}

// Clear empties the set, retaining capacity.
func (s *RangeSet) Clear() { s.runs = s.runs[:0] }

// Clone returns an independent copy of the set.
func (s *RangeSet) Clone() *RangeSet {
	c := &RangeSet{runs: make([]Run, len(s.runs))}
	copy(c.runs, s.runs)
	return c
}

// String renders the set as "{[a,b) [c,d) ...}".
func (s *RangeSet) String() string {
	out := "{"
	for i, r := range s.runs {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("[%d,%d)", r.Off, r.End())
	}
	return out + "}"
}
