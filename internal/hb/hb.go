// Package hb judges a recorded shared-memory history by the guarantee
// lazy release consistency makes to each read (paper §4): every byte a read
// returns is the byte of an hb1-maximal write that precedes the read, of a
// write concurrent with it, or the initial zero when no write precedes it.
//
// A recorder gives each processor its own Log and appends, in program
// order, the processor's acquires, releases and barrier waits and the
// bytes each access read or wrote. Check rebuilds hb1 from the
// synchronization operations with internal/vc — a lock's release orders
// the next acquire of that lock, and barrier episode k joins every
// processor's k-th arrival — and judges every read against the writes to
// its bytes. A read with a concurrent write is a race: races are counted,
// and fail the check only in a history declared race-free.
//
// Only test files import it.
package hb

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"repro/internal/mem"
	"repro/internal/vc"
)

type kind uint8

const (
	read kind = iota
	write
	acquire
	release
	arrive
	depart
)

var kindNames = [...]string{"read", "write", "acquire of lock", "release of lock", "arrival at barrier", "departure from barrier"}

// event is one recorded operation: an access's address and bytes
// (Log.data[off:off+n]), or a synchronization operation's lock or barrier
// id and stamp. Check fills in iv, the hb1 interval the event ends, and
// src, what an acquire or a departure waits for: the lock's previous
// release (p is -1 for none), or the barrier episode as i.
type event struct {
	kind   kind
	id     int32
	addr   mem.Addr
	off, n int32
	stamp  time.Duration
	iv     int32
	src    ref
}

// ref names an event: its processor and its index in that processor's log.
type ref struct{ p, i int32 }

// Log is one processor's history. Only that processor appends to it, and
// appending takes no lock and touches no atomic, so a recorder adds no
// happens-before edge the race detector could credit to the code under
// test.
type Log struct {
	events []event
	data   []byte
}

// NewLogs returns one empty Log per processor.
func NewLogs(procs int) []*Log {
	logs := make([]*Log, procs)
	for i := range logs {
		logs[i] = &Log{}
	}
	return logs
}

// origin anchors the stamps: time.Since reads the monotonic clock.
var origin = time.Now()

func (l *Log) access(k kind, addr mem.Addr, b []byte) {
	l.events = append(l.events, event{kind: k, addr: addr, off: int32(len(l.data)), n: int32(len(b))})
	l.data = append(l.data, b...)
}

func (l *Log) sync(k kind, id int) {
	l.events = append(l.events, event{kind: k, id: int32(id), stamp: time.Since(origin)})
}

// Read records that the processor read b at addr.
func (l *Log) Read(addr mem.Addr, b []byte) { l.access(read, addr, b) }

// Write records that the processor wrote b at addr.
func (l *Log) Write(addr mem.Addr, b []byte) { l.access(write, addr, b) }

// Acquire records a grant of lock; call it after the acquire returns.
func (l *Log) Acquire(lock int) { l.sync(acquire, lock) }

// Release records a release of lock; call it before the release.
func (l *Log) Release(lock int) { l.sync(release, lock) }

// Arrive records an arrival at barrier; call it before the wait.
func (l *Log) Arrive(barrier int) { l.sync(arrive, barrier) }

// Depart records leaving barrier; call it after the wait returns.
func (l *Log) Depart(barrier int) { l.sync(depart, barrier) }

// Races says how Check treats a read that has a concurrent write.
type Races int

const (
	// AllowRaces counts racy reads and judges them like any other: a
	// concurrent write's byte is legal beside the hb1-maximal ones.
	AllowRaces Races = iota
	// RaceFree makes a racy read a violation of its own.
	RaceFree
)

// Stats summarizes a judged history.
type Stats struct {
	Reads int // reads judged
	Races int // reads with a concurrent write to one of their bytes
}

// Rule names what a violation broke.
type Rule string

// The rules: a read returned a byte neither an hb1-maximal preceding
// write nor a concurrent one stored; a lock's grants and releases, in
// stamp order, do not alternate; a processor left a barrier episode
// before another arrived; a read in a history declared race-free has a
// concurrent write.
const (
	StaleRead       Rule = "stale read"
	MutualExclusion Rule = "mutual exclusion"
	BarrierEpisode  Rule = "barrier episode"
	Race            Rule = "race"
)

// Violation is the first rule a history breaks, described for a reader.
type Violation struct {
	Rule   Rule
	Detail string
}

func (v *Violation) Error() string { return "hb: " + string(v.Rule) + ": " + v.Detail }

func violation(r Rule, format string, args ...any) *Violation {
	return &Violation{Rule: r, Detail: fmt.Sprintf(format, args...)}
}

// history is the logs under judgement with hb1 rebuilt: clocks[p][i] is
// processor p's vector clock in its interval i, and episodes[b][k] the
// arrivals of barrier b's episode k.
type history struct {
	logs     []*Log
	clocks   [][]vc.VC
	episodes map[int32][][]ref
}

func (h *history) ev(r ref) *event { return &h.logs[r.p].events[r.i] }

// Check judges every read of the history the logs record and returns how
// many it judged and how many were racy. The error is the first
// *Violation found.
func Check(logs []*Log, races Races) (Stats, error) {
	h := &history{logs: logs, episodes: map[int32][][]ref{}}
	if err := h.order(); err != nil {
		return Stats{}, err
	}
	if err := h.clock(); err != nil {
		return Stats{}, err
	}
	return h.judge(races)
}

// order points every acquire at its lock's previous release and every
// departure at its barrier episode. A lock's grants and releases, sorted
// by stamp, must alternate: a release is stamped before its call and the
// grant it enables after its own, so only a coarse clock can tie them, and
// a tie puts the release first.
func (h *history) order() error {
	locks := map[int32][]ref{}
	for p, l := range h.logs {
		arrived := map[int32]int32{}
		for i := range l.events {
			switch e, r := &l.events[i], (ref{int32(p), int32(i)}); e.kind {
			case acquire, release:
				locks[e.id] = append(locks[e.id], r)
			case arrive:
				k := arrived[e.id]
				arrived[e.id]++
				if int(k) == len(h.episodes[e.id]) {
					h.episodes[e.id] = append(h.episodes[e.id], nil)
				}
				h.episodes[e.id][k] = append(h.episodes[e.id][k], r)
			case depart:
				e.src = ref{-1, arrived[e.id] - 1}
			}
		}
	}
	for lock, refs := range locks {
		slices.SortStableFunc(refs, func(a, b ref) int {
			ea, eb := h.ev(a), h.ev(b)
			return cmp.Or(cmp.Compare(ea.stamp, eb.stamp), cmp.Compare(eb.kind, ea.kind))
		})
		holder, last := ref{p: -1}, ref{p: -1}
		for _, r := range refs {
			switch e := h.ev(r); {
			case e.kind == acquire && holder.p >= 0:
				return violation(MutualExclusion, "proc %d was granted lock %d at %v while proc %d held it since %v",
					r.p, lock, e.stamp, holder.p, h.ev(holder).stamp)
			case e.kind == acquire:
				holder, e.src = r, last
			case holder.p != r.p:
				return violation(MutualExclusion, "proc %d released lock %d at %v without holding it", r.p, lock, e.stamp)
			default:
				holder, last = ref{p: -1}, r
			}
		}
	}
	return nil
}

// clock gives every event its interval and every interval its vector
// clock. Each synchronization operation ends an interval; an acquire joins
// the clock its lock's previous release closed, a departure those every
// arrival of its episode closed. Processors advance in turn, each as far
// as its next unmet wait.
func (h *history) clock() error {
	n := len(h.logs)
	h.clocks = make([][]vc.VC, n)
	for p := range h.clocks {
		c := vc.New(n)
		c.Tick(p)
		h.clocks[p] = []vc.VC{c}
	}
	next := make([]int, n)
	for {
		progressed, left := false, false
		for p, l := range h.logs {
		advance:
			for ; next[p] < len(l.events); next[p]++ {
				e := &l.events[next[p]]
				e.iv = int32(len(h.clocks[p]) - 1)
				var waits []ref
				switch e.kind {
				case acquire:
					if e.src.p >= 0 {
						waits = []ref{e.src}
					}
				case depart:
					if eps := h.episodes[e.id]; e.src.i >= 0 && int(e.src.i) < len(eps) {
						waits = eps[e.src.i]
					}
				}
				if e.kind != read && e.kind != write {
					c := h.clocks[p][e.iv].Clone()
					for _, w := range waits {
						we := h.ev(w)
						if next[w.p] <= int(w.i) {
							break advance
						}
						if e.kind == depart && we.stamp > e.stamp {
							return violation(BarrierEpisode, "proc %d left barrier %d episode %d at %v, before proc %d arrived at %v",
								p, e.id, e.src.i, e.stamp, w.p, we.stamp)
						}
						c.Max(h.clocks[w.p][we.iv])
					}
					c.Tick(p)
					h.clocks[p] = append(h.clocks[p], c)
				}
				progressed = true
			}
			left = left || next[p] < len(l.events)
		}
		if !left {
			return nil
		}
		if !progressed {
			return fmt.Errorf("hb: the synchronization order has a cycle")
		}
	}
}

// wref is one byte a write stored.
type wref struct {
	p, i, iv int32
	val      byte
}

// judge checks every read byte by byte against the writes to that byte,
// indexed densely by address. Each byte's writes are grouped by processor
// in program order, so those of a processor that precede a read are a
// prefix of its group, and only the last of them can be hb1-maximal.
//
// Check runs on one goroutine once the history is complete, so the race
// detector has nothing to find here: judge is built without its
// instrumentation, which would triple the matrix's checking time under
// -race.
//
//go:norace
func (h *history) judge(races Races) (Stats, error) {
	var top mem.Addr
	for _, l := range h.logs {
		for _, e := range l.events {
			if e.kind == write {
				top = max(top, e.addr+mem.Addr(e.n))
			}
		}
	}
	start := make([]int32, top+1) // byte b's writes: writes[start[b]:start[b+1]]
	for _, l := range h.logs {
		for _, e := range l.events {
			for b := e.addr; e.kind == write && b < e.addr+mem.Addr(e.n); b++ {
				start[b+1]++
			}
		}
	}
	for b := 1; b < len(start); b++ {
		start[b] += start[b-1]
	}
	writes, fill := make([]wref, start[top]), slices.Clone(start)
	for p, l := range h.logs {
		for i, e := range l.events {
			for k := int32(0); e.kind == write && k < e.n; k++ {
				b := e.addr + mem.Addr(k)
				writes[fill[b]] = wref{int32(p), int32(i), e.iv, l.data[e.off+k]}
				fill[b]++
			}
		}
	}
	var st Stats
	last := make([]int32, len(h.logs)) // per processor: its last write that precedes the read
	for q, l := range h.logs {
		for ri := range l.events {
			r := &l.events[ri]
			if r.kind != read {
				continue
			}
			st.Reads++
			rd, racy, R := ref{int32(q), int32(ri)}, ref{p: -1}, h.clocks[q][r.iv]
			for k := int32(0); k < r.n; k++ {
				b, v := r.addr+mem.Addr(k), l.data[r.off+k]
				var ws []wref
				if b < top {
					ws = writes[start[b]:start[b+1]]
				}
				for p := range last {
					last[p] = -1
				}
				legal := false
				for j, w := range ws {
					switch {
					case w.p == int32(q):
						if w.i < int32(ri) {
							last[q] = int32(j)
						}
					case R[w.p] >= w.iv:
						last[w.p] = int32(j)
					case h.clocks[w.p][w.iv][q] < r.iv: // neither knows the other
						racy, legal = ref{w.p, w.i}, legal || w.val == v
					}
				}
				// A candidate is hb1-maximal when no other candidate's
				// writer knows its interval.
				should := int32(-1)
			candidates:
				for p, j := range last {
					if legal || j < 0 {
						continue
					}
					for p2, j2 := range last {
						if j2 >= 0 && p2 != p && h.clocks[p2][ws[j2].iv][p] >= ws[j].iv {
							continue candidates
						}
					}
					legal, should = ws[j].val == v, j
				}
				if !legal && (should >= 0 || v != 0) {
					return st, h.stale(rd, k, ws, should, last)
				}
			}
			if racy.p >= 0 {
				st.Races++
				if races == RaceFree {
					return st, violation(Race, "%s\n  concurrent: %s", h.describe(rd), h.describe(racy))
				}
			}
		}
	}
	return st, nil
}

// stale reports byte k of a read that no legal write stored: the read,
// the write it should have seen and the write whose value it returned.
func (h *history) stale(rd ref, k int32, ws []wref, should int32, last []int32) *Violation {
	e := h.ev(rd)
	v := h.logs[rd.p].data[e.off+k]
	seen := "the initial zero (no write precedes the read)"
	if should >= 0 {
		seen = h.describe(ref{ws[should].p, ws[should].i})
	}
	got := "a value no preceding write stored"
	if v == 0 {
		got = "the initial zero"
	}
	for j, w := range ws {
		if w.val == v && int32(j) <= last[w.p] {
			got = h.describe(ref{w.p, w.i}) + ", which the write above overwrote"
		}
	}
	return violation(StaleRead, "%s: byte %d is 0x%02x\n  should have seen: %s\n  returned: %s",
		h.describe(rd), e.addr+mem.Addr(k), v, seen, got)
}

// describe names an access with its bytes, its processor's hb1 clock and
// the synchronization operation that opened its interval.
func (h *history) describe(r ref) string {
	e := h.ev(r)
	bs := h.logs[r.p].data[e.off : e.off+e.n]
	if len(bs) > 32 {
		bs = bs[:32]
	}
	after := "the start"
	for i := r.i - 1; i >= 0; i-- {
		if s := h.logs[r.p].events[i]; s.kind > write {
			after = fmt.Sprintf("%s %d (event %d at %v)", kindNames[s.kind], s.id, i, s.stamp)
			break
		}
	}
	return fmt.Sprintf("proc %d %s [%d,%d) = %x (event %d), clock %v after %s",
		r.p, kindNames[e.kind], e.addr, e.addr+mem.Addr(e.n), bs, r.i, h.clocks[r.p][e.iv], after)
}
