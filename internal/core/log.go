// Package core implements the paper's primary contribution: lazy release
// consistency (LRC). It contains the interval and write-notice machinery
// built on the happened-before-1 partial order (§4.1–4.2), the concurrent
// last-modifier computation that drives diff movement (§4.3), and the two
// lazy protocol engines — LI (lazy invalidate) and LU (lazy update) — used
// by the trace-driven simulator. The live runtime (internal/dsm) reuses
// the same interval log and modifier computations for real data movement.
package core

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/page"
	"repro/internal/vc"
)

// IntervalID names one interval: the index-th interval of processor Proc.
type IntervalID struct {
	Proc  mem.ProcID
	Index int32
}

// String renders the id as "p/idx".
func (id IntervalID) String() string { return fmt.Sprintf("%d/%d", id.Proc, id.Index) }

// Interval is the record of one closed interval: its vector timestamp and
// the pages it modified (the write notices), with the modified byte ranges
// retained for diff sizing. It is a value: what Log.Get and
// Log.NoticesBetween hand out is a view whose slices are read-only windows
// of the log's storage, valid until the Log.Sweep that covers the interval.
type Interval struct {
	ID IntervalID
	// VC is the creating processor's vector clock at the instant the
	// interval closed, including the interval's own index at VC[Proc].
	VC vc.VC
	// Pages lists the pages modified during the interval, ascending.
	Pages []mem.PageID
	// Mods holds the modified byte ranges, parallel to Pages, or is nil
	// when the producer does not size diffs from ranges (the live runtime).
	Mods []*page.RangeSet
}

// NumNotices returns the number of write notices the interval contributes
// (one per modified page).
func (iv Interval) NumNotices() int { return len(iv.Pages) }

// ModsFor returns the modified ranges for page p, or nil if the interval
// did not modify p.
func (iv Interval) ModsFor(p mem.PageID) *page.RangeSet {
	i := sort.Search(len(iv.Pages), func(i int) bool { return iv.Pages[i] >= p })
	if i < len(iv.Pages) && iv.Pages[i] == p && iv.Mods != nil {
		return iv.Mods[i]
	}
	return nil
}

// Log is the store of closed intervals, indexed by processor and by
// modified page. In a real distributed system each node holds the subset
// of the log its vector clock covers; the simulator keeps one log and
// derives each node's view from its clock, which is equivalent because
// write-notice propagation maintains the invariant that a node covered by
// interval j's timestamp also knows every interval that happened before j.
//
// The log owns its records. Each processor's intervals live by value in a
// list of fixed-size chunks: a chunk holds the clocks of per consecutive
// intervals at a fixed stride of n entries (so a record needs no clock
// header) and one page-id array its records' lists are appended to, record
// k's being pages[ends[k-1]:ends[k]] — a 4-byte offset per record, not a
// slice header. A chunk is sized in bytes, not records: its record count
// falls as the clock stride grows, so a 64-processor log does not reserve
// megabytes per processor before its first barrier.
//
// History is bounded by Sweep, which a garbage-collection epoch calls with
// its clock: each processor's floor rises to the epoch's entry, and the
// log answers only above it — Get panics on a swept interval,
// NoticesBetween starts at the floor, and the page index lists are trimmed
// in place to the indices above it. A chunk whose every index a sweep
// covers goes to a free list the log owns, which Append takes chunks from
// before it makes one, so a log swept every epoch allocates nothing once
// its chunks, free list and index lists have grown to an epoch's history.
// The simulator never sweeps.
type Log struct {
	n     int
	per   int       // records per chunk
	procs []procLog // [proc]
	// byPage[p][q] lists the interval indices of processor q above its
	// floor that modified page p, ascending (append order per processor is
	// index order).
	byPage map[mem.PageID][][]int32
	free   []*chunk // chunks a sweep freed, for Append to reuse
}

// procLog is one processor's intervals: chunk c holds indices
// [(dropped+c)*per, (dropped+c+1)*per).
type procLog struct {
	count   int32 // intervals appended
	floor   int32 // highest swept index, -1 before the first sweep
	dropped int   // chunks freed by sweeps
	chunks  []*chunk
}

type chunk struct {
	clocks []int32      // per records of n entries each
	ends   []int32      // [per]: record k's pages end at pages[ends[k]]
	pages  []mem.PageID // the records' page lists, back to back
	// mods is parallel to the records once an interval of the chunk
	// brought ranges (the simulator's do, the live runtime's never).
	mods [][]*page.RangeSet
}

// chunkBytes sizes a chunk's clock and page-list storage together, at one
// page per record.
const chunkBytes = 4 << 10

// NewLog creates an empty log for n processors.
func NewLog(n int) *Log {
	const record = 8 // a record's page-list end and one page id
	l := &Log{
		n:      n,
		per:    max(8, chunkBytes/(4*n+record)),
		procs:  make([]procLog, n),
		byPage: make(map[mem.PageID][][]int32),
	}
	for i := range l.procs {
		l.procs[i].floor = -1
	}
	return l
}

// NumProcs returns the number of processors the log covers.
func (l *Log) NumProcs() int { return l.n }

// Append stores a newly closed interval, whose index must be the next one
// for its processor and whose clock must have one entry per processor. The
// clock and the page list are copied in: the caller may reuse both at once.
// Mods, which only the simulator supplies, is kept as handed over.
func (l *Log) Append(iv Interval) {
	if int(iv.ID.Proc) < 0 || int(iv.ID.Proc) >= l.n {
		panic(fmt.Sprintf("core: appending interval %v to a log of %d processors", iv.ID, l.n))
	}
	pl := &l.procs[iv.ID.Proc]
	if iv.ID.Index != pl.count {
		panic(fmt.Sprintf("core: appending interval %v but processor %d has %d intervals", iv.ID, iv.ID.Proc, pl.count))
	}
	if len(iv.VC) != l.n {
		panic(fmt.Sprintf("core: appending interval %v with a %d-entry clock to a log of %d processors", iv.ID, len(iv.VC), l.n))
	}
	k := int(pl.count) % l.per
	if k == 0 {
		pl.chunks = append(pl.chunks, l.newChunk())
	}
	c := pl.chunks[len(pl.chunks)-1]
	copy(c.clocks[k*l.n:], iv.VC)
	c.pages = append(c.pages, iv.Pages...)
	c.ends[k] = int32(len(c.pages))
	if iv.Mods != nil {
		if c.mods == nil {
			c.mods = make([][]*page.RangeSet, l.per)
		}
		c.mods[k] = iv.Mods
	}
	pl.count++
	for _, pg := range iv.Pages {
		hist := l.byPage[pg]
		if hist == nil {
			hist = make([][]int32, l.n)
			l.byPage[pg] = hist
		}
		hist[iv.ID.Proc] = AppendDoubling(hist[iv.ID.Proc], iv.ID.Index)
	}
}

// newChunk returns an empty chunk, the last one a sweep freed if there is
// one.
func (l *Log) newChunk() *chunk {
	if k := len(l.free) - 1; k >= 0 {
		c := l.free[k]
		l.free[k] = nil
		l.free = l.free[:k]
		return c
	}
	return &chunk{
		clocks: make([]int32, l.per*l.n),
		ends:   make([]int32, l.per),
		pages:  make([]mem.PageID, 0, l.per),
	}
}

// AppendDoubling is append for a list that only ever grows, or scratch
// reused at its high-water mark: the runtime's append grows a large slice by
// a quarter, which over a list's life allocates about five times its final
// size; doubling allocates twice it.
func AppendDoubling[T any](s []T, x T) []T {
	if len(s) == cap(s) {
		s = append(make([]T, 0, max(4, 2*cap(s))), s...)
	}
	return append(s, x)
}

// Sweep collects every interval floor covers: processor q's floor rises to
// floor[q] (never past its last interval, never back down), each page's
// index lists lose the indices at or below it in place, and a chunk whose
// every index is at or below it goes to the free list. What Get handed out
// for a swept interval is not valid after the sweep: under
// internal/framebuf's poison-on-release mode a freed chunk's clocks and
// page ids are overwritten at once, and reusing it overwrites them anyway.
func (l *Log) Sweep(floor vc.VC) {
	if len(floor) != l.n {
		panic(fmt.Sprintf("core: sweeping a log of %d processors with a %d-entry clock", l.n, len(floor)))
	}
	moved := false
	for q := range l.procs {
		pl := &l.procs[q]
		f := min(floor[q], pl.count-1)
		if f <= pl.floor {
			continue
		}
		pl.floor, moved = f, true
		gone := 0
		for gone < len(pl.chunks) && (pl.dropped+gone+1)*l.per-1 <= int(f) {
			l.free = append(l.free, pl.chunks[gone].reset())
			gone++
		}
		kept := copy(pl.chunks, pl.chunks[gone:])
		clear(pl.chunks[kept:])
		pl.chunks = pl.chunks[:kept]
		pl.dropped += gone
	}
	if !moved {
		return
	}
	for _, hist := range l.byPage {
		for q, idxs := range hist {
			if k, _ := slices.BinarySearch(idxs, l.procs[q].floor+1); k > 0 {
				hist[q] = idxs[:copy(idxs, idxs[k:])]
			}
		}
	}
}

// reset empties a chunk for reuse, poisoning what it held first when
// internal/framebuf's poison-on-release mode is on, and returns it.
func (c *chunk) reset() *chunk {
	if framebuf.Poisoned() {
		dead := uint32(framebuf.PoisonByte) * 0x01010101
		fill(c.clocks, int32(dead))
		fill(c.pages[:cap(c.pages)], mem.PageID(dead))
	}
	c.pages, c.mods = c.pages[:0], nil
	return c
}

func fill[T any](s []T, x T) {
	for i := range s {
		s[i] = x
	}
}

// Floor returns the index of processor q's last swept interval, -1 if none
// has been swept.
func (l *Log) Floor(q mem.ProcID) int32 { return l.procs[q].floor }

// Get returns the interval with the given id, which must be in the log and
// above its processor's floor. The result's VC and Pages are
// capacity-limited windows of the log's storage: they stay valid until the
// sweep that covers the interval, and must not be written.
func (l *Log) Get(id IntervalID) Interval {
	if int(id.Proc) < 0 || int(id.Proc) >= l.n || id.Index < 0 || id.Index >= l.procs[id.Proc].count {
		panic(fmt.Sprintf("core: interval %v is not in the log", id))
	}
	if f := l.procs[id.Proc].floor; id.Index <= f {
		panic(fmt.Sprintf("core: interval %v was swept (processor %d's floor is %d)", id, id.Proc, f))
	}
	return l.at(id.Proc, id.Index)
}

// at is Get for an index known to be stored above the floor.
func (l *Log) at(p mem.ProcID, idx int32) Interval {
	pl := &l.procs[p]
	c, k := pl.chunks[int(idx)/l.per-pl.dropped], int(idx)%l.per
	var lo int32
	if k > 0 {
		lo = c.ends[k-1]
	}
	hi := c.ends[k]
	iv := Interval{
		ID:    IntervalID{Proc: p, Index: idx},
		VC:    c.clocks[k*l.n : (k+1)*l.n : (k+1)*l.n],
		Pages: c.pages[lo:hi:hi],
	}
	if c.mods != nil {
		iv.Mods = c.mods[k]
	}
	return iv
}

// Count returns the number of intervals the log holds: those above the
// floors.
func (l *Log) Count() int {
	total := 0
	for i := range l.procs {
		total += int(l.procs[i].count - 1 - l.procs[i].floor)
	}
	return total
}

// NoticesBetween invokes fn for every interval (r, k) the log holds with
// from[r] < k <= to[r] — the intervals a processor whose clock is `from`
// learns about from one whose clock is `to`, from the floor up. It returns
// the total interval and notice counts (for message sizing). fn gets a
// value, like Get's: a pointer to a temporary would reach the heap once per
// record.
func (l *Log) NoticesBetween(from, to vc.VC, fn func(iv Interval)) (intervals, notices int) {
	for r := 0; r < l.n; r++ {
		pl := &l.procs[r]
		hi := min(to[r], pl.count-1)
		for k := max(from[r], pl.floor) + 1; k <= hi; k++ {
			iv := l.at(mem.ProcID(r), k)
			intervals++
			notices += iv.NumNotices()
			if fn != nil {
				fn(iv)
			}
		}
	}
	return intervals, notices
}

// Outstanding appends to out the ids of every interval above the floor
// that modified page pg, is known to the inquiring processor (index <=
// known[creator]), and is not yet reflected in its copy (index >
// applied[creator]), and returns the extended list, grown by doubling
// (AppendDoubling). self is the inquiring processor: its own intervals are
// never outstanding, because a processor's own writes are always present in
// its own copy.
func (l *Log) Outstanding(out []IntervalID, pg mem.PageID, applied, known vc.VC, self mem.ProcID) []IntervalID {
	hist := l.byPage[pg]
	if hist == nil {
		return out
	}
	for q := 0; q < l.n; q++ {
		if mem.ProcID(q) == self {
			continue
		}
		idxs := hist[q]
		if len(idxs) == 0 {
			continue
		}
		lo := applied[q]
		hi := known[q]
		// First index strictly greater than lo.
		start := sort.Search(len(idxs), func(i int) bool { return idxs[i] > lo })
		for i := start; i < len(idxs) && idxs[i] <= hi; i++ {
			out = AppendDoubling(out, IntervalID{Proc: mem.ProcID(q), Index: idxs[i]})
		}
	}
	return out
}

// HasOutstanding reports whether Outstanding would be non-empty, without
// materializing the list.
func (l *Log) HasOutstanding(pg mem.PageID, applied, known vc.VC, self mem.ProcID) bool {
	hist := l.byPage[pg]
	if hist == nil {
		return false
	}
	for q := 0; q < l.n; q++ {
		if mem.ProcID(q) == self {
			continue
		}
		idxs := hist[q]
		if len(idxs) == 0 {
			continue
		}
		lo, hi := applied[q], known[q]
		start := sort.Search(len(idxs), func(i int) bool { return idxs[i] > lo })
		if start < len(idxs) && idxs[start] <= hi {
			return true
		}
	}
	return false
}

// ModifiersOf returns, for page pg, the processors with an interval above
// their floor that modified it.
func (l *Log) ModifiersOf(pg mem.PageID) []mem.ProcID {
	hist := l.byPage[pg]
	if hist == nil {
		return nil
	}
	var procs []mem.ProcID
	for q := 0; q < l.n; q++ {
		if len(hist[q]) > 0 {
			procs = append(procs, mem.ProcID(q))
		}
	}
	return procs
}

// Maximal filters an outstanding set down to its hb1-maximal members: the
// paper's "concurrent last modifiers" (§4.3.2). Within one processor only
// its latest outstanding interval can be maximal (program order), so the
// candidates are the per-processor maxima; a candidate is then excluded if
// another candidate's timestamp covers it.
func (l *Log) Maximal(out []IntervalID) []IntervalID { return l.appendMaximal(nil, out) }

// appendMaximal appends Maximal(out), ascending by processor, to dst.
func (l *Log) appendMaximal(dst, out []IntervalID) []IntervalID {
	if len(out) == 0 {
		return dst
	}
	var lastBuf [64]int32
	last := lastBuf[:0]
	if l.n > len(lastBuf) {
		last = make([]int32, 0, l.n)
	}
	last = last[:l.n]
	for q := range last {
		last[q] = -1 // interval indices start at 0
	}
	for _, id := range out {
		last[id.Proc] = max(last[id.Proc], id.Index)
	}
	var candBuf [64]IntervalID
	cands := candBuf[:0]
	for q, idx := range last {
		if idx >= 0 {
			cands = append(cands, IntervalID{Proc: mem.ProcID(q), Index: idx})
		}
	}
	for _, c := range cands {
		dominated := false
		for _, d := range cands {
			if d == c {
				continue
			}
			if l.Get(d).VC.Covers(int(c.Proc), c.Index) {
				dominated = true
				break
			}
		}
		if !dominated {
			dst = append(dst, c)
		}
	}
	return dst
}

// IndicesOn returns the indices, ascending, of processor q's intervals
// above its floor that modified page pg and lie in [first, last]. The
// result aliases the log's history until the next Append or Sweep.
func (l *Log) IndicesOn(pg mem.PageID, q mem.ProcID, first, last int32) []int32 {
	hist := l.byPage[pg]
	if hist == nil {
		return nil
	}
	idxs := hist[q]
	lo := sort.Search(len(idxs), func(i int) bool { return idxs[i] >= first })
	hi := sort.Search(len(idxs), func(i int) bool { return idxs[i] > last })
	return idxs[lo:max(lo, hi)]
}

// Assignment maps a responder processor to the outstanding intervals whose
// diffs it will supply.
type Assignment struct {
	Responder mem.ProcID
	Intervals []IntervalID
}

// AssignResponders distributes an outstanding set over its maximal
// modifiers: each maximal interval's creator acts as a responder and
// supplies the diffs of every outstanding interval its timestamp covers
// (it holds them: it either created them or applied them while bringing
// its own copy up to date, and retains them until garbage collection).
// Every outstanding interval is covered by at least one maximal candidate,
// so the assignment is total. Responders are returned in ascending
// processor order and each interval is assigned to exactly one responder.
func (l *Log) AssignResponders(out []IntervalID) []Assignment {
	var s assignScratch
	return l.assign(&s, out)
}

// assignScratch is the storage an assignment is built in, which a caller
// that plans many misses reuses.
type assignScratch struct {
	maximal []IntervalID
	taken   []bool // parallel to the outstanding set
	ids     []IntervalID
	asg     []Assignment
}

// assign is AssignResponders built in s: the result and its interval
// lists are valid until the next assign with s.
func (l *Log) assign(s *assignScratch, out []IntervalID) []Assignment {
	s.maximal = l.appendMaximal(s.maximal[:0], out)
	if len(s.maximal) == 0 {
		return nil
	}
	s.taken = slices.Grow(s.taken[:0], len(out))[:len(out)]
	clear(s.taken)
	// Every interval lands in one assignment, so ids never outgrows this
	// capacity and each assignment's list is a window of it.
	s.ids = slices.Grow(s.ids[:0], len(out))
	s.asg = s.asg[:0]
	for _, m := range s.maximal {
		mvc := l.Get(m).VC
		first := len(s.ids)
		for i, id := range out {
			if !s.taken[i] && (id == m || mvc.Covers(int(id.Proc), id.Index)) {
				s.ids = append(s.ids, id)
				s.taken[i] = true
			}
		}
		if len(s.ids) > first {
			s.asg = append(s.asg, Assignment{Responder: m.Proc, Intervals: s.ids[first:len(s.ids):len(s.ids)]})
		}
	}
	if len(s.ids) != len(out) {
		// Cannot happen: every outstanding interval is dominated by some
		// maximal candidate (see Maximal).
		panic("core: responder assignment left intervals uncovered")
	}
	return s.asg
}

// CoalescedDiffBytes returns the wire size of the diffs a responder sends
// for one page when supplying the given intervals: overlapping ranges from
// multiple intervals of the assignment coalesce (the responder aggregates
// its retained diffs before replying), bounding resend volume by the page
// size.
func (l *Log) CoalescedDiffBytes(pg mem.PageID, ids []IntervalID) int {
	var union page.RangeSet
	return l.coalescedDiffBytes(&union, pg, ids)
}

// coalescedDiffBytes is CoalescedDiffBytes building the union in union,
// which it clears first.
func (l *Log) coalescedDiffBytes(union *page.RangeSet, pg mem.PageID, ids []IntervalID) int {
	union.Clear()
	found := false
	for _, id := range ids {
		if mods := l.Get(id).ModsFor(pg); mods != nil {
			union.Union(mods)
			found = true
		}
	}
	if !found {
		return 0
	}
	return page.EstimateDiffWireSize(union)
}
