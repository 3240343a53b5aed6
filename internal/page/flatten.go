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
// the union ranges back out into the output diff's own lease; stale
// scratch bytes outside the union are never read. The union is built in
// the scratch lease's run table, which keeps its capacity for the next
// merge, and the scratch is returned to the pool before FlattenDiffs
// returns.
func FlattenDiffs(diffs []*Diff, pageSize int) (*Diff, error) {
	scratch := getLease(pageSize)
	defer putLease(scratch)
	union := RangeSet{runs: scratch.runs}
	for k, d := range diffs {
		if err := d.Apply(scratch.buf); err != nil {
			return nil, fmt.Errorf("page: flatten diff %d: %w", k, err)
		}
		for _, r := range d.runs {
			union.AddRun(r)
		}
	}
	flat := layOutPage(union.runs, scratch.buf)
	scratch.runs = union.runs
	return flat, nil
}
