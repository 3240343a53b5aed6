package page

import (
	"fmt"

	"repro/internal/framebuf"
)

// FlattenDiffs merges several diffs for the same page — ordered earliest
// interval first — into one diff that, applied once, yields the same
// bytes as applying the inputs in order. Overlapping runs resolve
// last-writer-wins, matching hb1 apply order (§4.3.3): the flattened
// run set is the union of the inputs' runs, and each merged byte takes its
// value from the latest diff that wrote it.
//
// The merge replays the diffs onto a pooled scratch page and then reads
// the union ranges back out into the output diff's own lease; stale
// scratch bytes outside the union are never read. Each diff's runs are
// sorted and disjoint, so the union is built by merging them into it one
// list at a time, in a slab of the runScratch pool that holds the union,
// the next diff's runs and their merge; page and slab go back to their
// pools before FlattenDiffs returns.
func FlattenDiffs(diffs []*Diff, pageSize int) (*Diff, error) {
	scratch := getLease(pageSize)
	defer putLease(scratch)
	total := 0
	for k, d := range diffs {
		if err := d.Apply(scratch.buf); err != nil {
			return nil, fmt.Errorf("page: flatten diff %d: %w", k, err)
		}
		total += d.NumRuns()
	}
	// The union and a diff's runs, n+r of them, merge into at most n+r
	// more: twice the inputs' runs hold every step.
	slab := framebuf.GetSlab(&runScratch, 2*total)
	defer framebuf.PutSlab(&runScratch, slab)
	union := slab[:0]
	for _, d := range diffs {
		// The merge goes after the union and the diff's runs and is then
		// moved down: appending never writes below len(union), so both read
		// intact.
		n := len(union)
		union = d.AppendRuns(union)
		m := len(union)
		union = mergeRuns(union, union[:n], union[n:m])
		union = union[:copy(union, union[m:])]
	}
	return DiffOf(union, scratch.buf), nil
}

// runScratch is FlattenDiffs' pool of run slabs, classed by capacity.
var runScratch framebuf.Pool[[]Run]

// mergeRuns appends to dst the union of a and b, each sorted by offset:
// runs that overlap or touch coalesce, as in a RangeSet, and empty runs
// drop out.
func mergeRuns(dst, a, b []Run) []Run {
	from := len(dst)
	for len(a) > 0 || len(b) > 0 {
		var r Run
		if len(b) == 0 || len(a) > 0 && a[0].Off <= b[0].Off {
			r, a = a[0], a[1:]
		} else {
			r, b = b[0], b[1:]
		}
		if r.Len <= 0 {
			continue
		}
		if last := len(dst) - 1; last >= from && r.Off <= dst[last].End() {
			dst[last].Len = max(dst[last].End(), r.End()) - dst[last].Off
			continue
		}
		dst = append(dst, r)
	}
	return dst
}
