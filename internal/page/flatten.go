package page

import "fmt"

// FlattenDiffs merges several diffs for the same page — ordered earliest
// interval first — into one diff that, applied once, yields the same
// bytes as applying the inputs in order. Overlapping runs resolve
// last-writer-wins, matching hb1 apply order (§4.3.3): the flattened
// run set is the RangeSet union of the inputs' runs, and each merged
// byte takes its value from the latest diff that wrote it.
//
// The merge replays the diffs onto a pooled scratch page and then reads
// the union ranges back out into the output diff's own body; stale
// scratch bytes outside the union are never read. The scratch is
// returned to the pool before FlattenDiffs returns.
func FlattenDiffs(diffs []*Diff, pageSize int) (*Diff, error) {
	scratch := getBuf(pageSize)
	defer putBuf(scratch)
	union := &RangeSet{}
	for k, d := range diffs {
		if err := d.Apply(scratch); err != nil {
			return nil, fmt.Errorf("page: flatten diff %d: %w", k, err)
		}
		for _, r := range d.runs {
			union.AddRun(r)
		}
	}
	runs := append([]Run(nil), union.Runs()...)
	return layOut(runs, func(k int) []byte { return scratch[runs[k].Off:runs[k].End()] }), nil
}
