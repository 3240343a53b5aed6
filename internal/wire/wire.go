// Package wire defines the on-the-wire message format of the live DSM
// runtime (internal/dsm). This comment is the format's specification.
//
// The trace-driven simulator sizes messages with the closed-form model in
// internal/proto (a fixed 24-byte header, 4-byte fields, 8-byte interval
// ids). That model is an accounting, not this format: the runtime encodes
// the same fields compactly and may undercut it, and it ships what the
// model assumes a receiver reconstructs (each interval's vector
// timestamp).
//
// Every number is an unsigned LEB128 varint ("uv") unless noted. A 32-bit
// field f travels as uv(uint32(f)), so any int32 round-trips and the
// small non-negative values the protocol uses cost one byte; zz(d) is the
// zig-zag fold of a difference d taken in wrapping 32-bit arithmetic, so a
// small one of either sign costs one byte too. A message is, in order:
//
//	block       encoding                                   bound enforced by Decode
//	kind        1 byte                                     known kind
//	presence    1 byte, bit per block below that follows   unknown bits rejected
//	seq a b     uv64, uv32, uv32
//	VC          uv n, uv32(x[0]+1), then for k = 1..n-1    n <= 64; bit set <=> Msg.VC != nil (n = 0 legal)
//	            uv32 zz(x[k] - x[k-1])
//	Intervals   uv r, r runs (below)                       1 <= r, 6r <= bytes left; the clock entries it
//	                                                       expands to, the enclosing clock's included,
//	                                                       <= maxIntervalWords (2^24), before they size a slab
//	Diffs       uv n, n x (uv32 page, uv proc<<1|h,        1 <= n, 4n <= bytes left; proc fits 32 bits;
//	            uv32 index, body)                          if h: body has no runs, message is a KDiffResp
//	Wants       uv n, n x (uv32 page, uv proc<<1|s,        1 <= n, 3n <= bytes left; proc fits 32 bits;
//	            uv32 index, and if s: uv32 span)           1 <= span, index + span <= 2^31 - 1
//	Data        uv n, data body (below)                    1 <= n <= MaxDataBytes, before n sizes the buffer
//	Sections    uv n, n x (uv mode, presence byte with     2n <= bytes left; mode <= 255; bit set <=>
//	            the VC/Intervals/Diffs bits, blocks)       Msg.Sections != nil; a section's VC has n >= 1
//
//	interval    uv32 proc, uv32 first index, uv c,         1 <= c <= bytes left; clock m <= 64;
//	run         uv m, c records                            first + c - 1 <= 2^31 - 1; does not continue
//	                                                       the run before it
//	interval    uv mask, uv32 zz(delta) per set bit below  mask < 2^(m+1); no delta is 0; repeat bit m
//	record      m, then unless bit m is set a page list    never on a run's first record, and set exactly
//	                                                       when the list equals the record before it's
//	page list   uv p, uv32 first page (zz against the      p <= bytes left
//	            first page of the record before it in the
//	            run when that has one, else absolute),
//	            p-1 x uv32(page - previous page)
//	diff body   uv r, r x (uv32 off, uv32 len, len bytes)  2r <= bytes left; off < 2^31; len <= bytes left
//	data body   uv r, r x (uv32 off, uv32 len, len bytes)  3r <= bytes left; len >= 1; off >= previous
//	                                                       off + len; off + len <= n; len <= bytes left
//
// Data is n bytes travelling zero-suppressed: the data body is the diff
// body grammar applied to the block's difference from n zero bytes, the
// initial image of every page. Its runs are the maximal stretches of
// non-zero aligned 8-byte words (a short final word counts as one), in
// ascending order; the bytes between them are zero and do not travel.
// A whole-page transfer is therefore a diff against the zero page: a
// never-written page is three bytes, a page without a zero word costs four
// bytes over its contents, and there is no raw form.
//
// A want names one interval's diff of a page, or with a span the diffs the
// processor made of the page in intervals index through index + span, both
// of which wrote it. The span bit s rides the processor field — processor
// ids are below 64, so a plain want costs what it did before there were
// ranges, at the price of a 33-bit field where every other is 32 — and a
// span travels only when it is not zero, so each want has one encoding. A
// Diffs record is one interval's diff of a page, except in the answer to
// a range want: a KDiffResp carries one record per want, in the request's
// order, and the one that answers a range is the merge of the range's
// diffs, last writer wins, under the range's first index. No record is
// empty on another's behalf. A KDiffResp may also say, per want, that its
// sender does not hold the diff: a responder asked for another
// processor's diff it has not kept — its copy arrived as a page ship or
// through a merged range — sets the not-held bit h, which rides the
// processor field as the span bit does a want's, and sends the body of no
// runs. A held record costs what it did before the bit, a not-held one has
// that one encoding, and no other kind carries one.
//
// An interval block is a list of write notices, and travels as its maximal
// runs: stretches of records of one processor, with consecutive indices
// and clocks of one length m. That is how a lazy engine lists them —
// core.Log.NoticesBetween groups a processor's intervals in index order —
// so a run names its processor and first index once, and a record carries
// neither. A record's clock travels as corrections to a prediction: entry
// proc is predicted to be the record's index (core.Interval's invariant:
// a closed interval's own entry is its index), every other entry to be
// the same entry of the record before it in the run, and for a run's
// first record to be base[k] of the enclosing message or section clock
// when that clock has m entries, or -1 (no interval) when it has not. Bit
// k of a record's mask says entry k differs from its prediction, and the
// set bits' entries follow in order as the zig-zag coding of x minus the
// prediction, in wrapping 32-bit arithmetic. The run's first index is
// zig-zag coded against base[proc] when the base has m entries and proc <
// m, and absolute otherwise. A record's page list is predicted to be the
// one of the record before it in the run — a processor's intervals between
// two acquires mostly write the same page, as 70-80% of splash-water's
// grant records do — and bit m of the mask, the repeat bit, says it is:
// then no list follows, and the decoded record shares its predecessor's
// list. A 64-entry clock leaves the mask no room for the bit, and every
// list of such a run travels. A list that does travel codes its first page
// against the first page of the record before it, when there is one with
// pages, and every later page against the page before it: page lists are
// sorted in practice, so the differences are small, and an unsorted list
// round-trips as well. An honest record therefore costs a mask byte and
// one byte or so per entry that moved since the record before it — an
// acquire in between — plus two bytes or so for a list of one page that
// moved, and every list round-trips, whatever its values: a record that
// breaks the invariant or does not sit under the base at more bytes,
// records that continue no run as runs of one. A clock block codes each
// entry after the first against the entry before it: on a program whose
// processors do alike, as water's do at 4 processors, the intervals of
// processors that synchronize stay close. The diff body is page.AppendBody's
// layout, and page.ScanBody, which enforces its bounds above, is the one
// parser of it: the decoder hands it each body and keeps what it accepts.
//
// An accepted frame has exactly one encoding: varints must be minimal
// and fit their field, a presence bit over an empty block is rejected
// (except the two blocks whose emptiness differs from their absence, VC
// and Sections), an interval run is neither empty nor a continuation of
// the one before it, a mask bit never covers a zero delta, a page list
// repeats the record before it in the repeat bit or not at all, and
// trailing bytes are an error. (Run lists are the exception: a diff
// body's runs may overlap, and a data body split finer than the encoder
// splits it decodes to the same bytes.) Every count is checked against the
// bytes remaining, at the smallest possible item size, before it sizes an
// allocation; the two lengths the frame cannot vouch for, Data's expanded
// n and the clock entries an interval block expands to, are checked
// against MaxDataBytes and maxIntervalWords instead.
//
// Frames: a payload is exactly one message, and the bytes travel as
// encoded. There is no frame-level kind: byte 24, once a batch frame of
// several messages, is retired like 22 and 23, and Decode refuses it.
//
// # Ownership
//
// Decode copies everything out of the frame except diff bodies, so
// nothing but a diff needs the frame. Msg.Data is an allocation of its
// own that outlives the message (a page ship's Data becomes the
// receiver's page copy as it is). Everything else a message decodes is in
// slabs it holds and dies with it — see Messages below. A decoded DiffRec's
// Diff borrows as well: it is its wire body, a capacity-limited window of
// the frame the message was decoded from, so a 4 KiB diff response is
// decoded without allocating or copying a payload byte, applies straight
// out of the receive buffer, and re-encodes (a home relaying an update) as
// one copy of the same bytes. A diff without runs borrows nothing.
//
// Decode only borrows the frame, which stays its caller's. A receiver
// that recycles frames hands it to the message (Msg.HoldFrame), its one
// owner from then on: a message that carries diffs keeps the frame until
// its last Release, any other returns it to internal/framebuf at once.
// Never releasing is always safe, the garbage collector reclaims the
// frame; releasing early is the one bug, and internal/framebuf's
// poison-on-release mode turns it into garbage the differential tests catch.
//
// page.Diff.Clone is mandatory wherever a decoded diff is stored for
// something that runs after the release: the runtime has one such place,
// the LU engine's retained-diff store, whose entries are piggybacked on
// later lock grants. Nothing else may keep a DiffRec, a *page.Diff or its
// wire body of a received message: a stale *page.Diff does not merely
// dangle over a recycled frame, it is a header the slab pool hands to the
// next message's diff.
//
// Messages: a Msg on the heap is a recycled shell. Decode fills one from
// a free list and NewMsg hands one to a sender whose message must pass
// through an interface call; a sender that can keep its message on the
// stack writes a literal. A message is never queued for sending — the
// sender encodes it as it sends it — so a sender's message is dead when
// the send returns, and only received ones change hands. A shell starts
// with one reference, its creator's: the dispatch loop's, which passes to
// the sender's worker or the collecting barrier master the message is
// queued for. A holder that outlives the one it got the message from
// retains it first (Msg.Retain): an rpc waiter handed a response, a lock
// parking a forwarded request until its release, a goroutine a handler
// spawned to serve a request. Each holder makes ONE call when it is done,
// Msg.Release — the worker when the handler returns, the waiter's rpc when
// it has consumed the response, the master when it has answered the
// arrival — and the last one returns the frame it holds and the shell to
// their free lists. What is recycled is the shell — its scalars, its slice
// headers, its first section and the clock a sender copied in (SetClock) —
// and the slabs the message took from the slab pool, process-wide
// framebuf.Pools (one per element type), size-classed and bounded in bytes.
// Every block decodes into its slabs, whatever its size — an interval
// block's records, clocks and page lists, the enclosing clock the clock
// slab's first window, a diff block's records and diff headers, the wants,
// a clock without an interval block — and a sender's block is built in
// them (TakeIntervals, TakeDiffs). The last Release gives them back for
// the next message, so nothing may read a decoded clock, an IntervalRec,
// its VC or Pages, a DiffRec, its Diff, or a Want after it: whoever needs
// one longer copies it first (core.Log.Append copies what it is handed; a
// page copy copies the applied clock of its KPageResp; the LU store clones
// a diff; a diff request is served before its handler returns). Data is
// never reused: it belongs to whoever absorbed it, or to the garbage
// collector.
// Under poison-on-release a released shell reads as an invalid kind with
// 0xDB scalars, the slabs it gave back as 0xDB entries, and a kept diff
// header as a body of 0xDB bytes, which page.Diff.Apply refuses as
// malformed; one Release too many panics.
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/page"
	"repro/internal/vc"
)

// Kind identifies a runtime message type.
type Kind uint16

const (
	// KLockReq: requester -> lock manager. A/B = lock id, requester.
	KLockReq Kind = iota + 1
	// KLockFwd: manager -> last holder, same payload as KLockReq.
	KLockFwd
	// KLockGrant: holder -> requester, with clock, intervals and (LU)
	// piggybacked diffs. A = lock id.
	KLockGrant
	// KDiffReq: requester -> responder, listing wanted (page, interval or
	// interval range) diffs. A = requester; B unused.
	KDiffReq
	// KDiffResp: responder -> requester with the diffs, one record per
	// want, in the request's order, each the diff or a not-held mark.
	KDiffResp
	// KPageReq: requester -> page home. A/B = page id, requester.
	KPageReq
	// KPageResp: home -> requester with page contents and the applied
	// clock of the copy. A = page id. An EU home's ship names in Wants
	// (Page, Proc) every node in the page's copyset, the requester last if
	// it just joined: in join order, the requester's first hint.
	KPageResp
	// KBarrierArrive: node -> barrier master with clock and intervals.
	// A/B = barrier id, arriving node.
	KBarrierArrive
	// KBarrierExit: master -> node with merged clock and intervals.
	// A = barrier id.
	KBarrierExit
	// KGCReady and KGCDone are retired: the lazy engines' GC ready/go
	// round, replaced by the next barrier, at which the discard now runs.
	// They keep their numbers, and no node handles them: a node records
	// either as a protocol error. Kept for bench/lrcbench; ROADMAP item 1
	// removes them.
	KGCReady
	KGCDone

	// Kinds below serve the home directory the eager (EI/EU) and
	// sequentially-consistent (SC) engines share (internal/dsm's
	// directory.go): KPageReq/KPageResp ship a page, KWriteReq/KWriteResp
	// are SC's ownership transaction, the kinds below the owner and
	// cacher sides, and KUpdate/KUpdateAck the eager merged release.

	// KFetch: home -> current owner (SC; an eager home owns its pages),
	// asking for a page's committed contents on behalf of a requester.
	// A = page id. The owner downgrades its copy to read mode as it
	// serves.
	KFetch
	// KFetchResp: owner -> home with the page contents.
	KFetchResp
	// KInval: home -> cacher, invalidating its copies of the pages Wants
	// names (Page; EI: every page of the round the copy holds, SC: the one
	// page of a write miss). A and B unused.
	KInval
	// KInvalAck: cacher -> home, once for the whole list.
	KInvalAck
	// KUpdate: an eager releaser's flush, merged per destination:
	// releaser -> each node it must reach, one Diffs record (Page, Proc =
	// releaser) per page that node should see — every dirty page it homes,
	// and under EU every one whose copy it holds as far as the releaser
	// knows. Under EU a record of a page the receiver homes carries in
	// Index how many of the page's copyset the releaser knows (the first
	// that many to join), and the home forwards the diff, in an update of
	// its own, to the members that joined after them; an EI home
	// invalidates every other copy instead, and Index is 0. A and B
	// unused.
	KUpdate
	// KUpdateAck: receiver -> sender of a KUpdate once every record has
	// landed (or, at a copy whose ship is in flight, is parked for it)
	// and, at a home, every forward or invalidation is acknowledged. An EU
	// home's names in Wants (Page, Proc) the members its forwards reached:
	// the releaser's next flush sends them the page's diff directly.
	KUpdateAck
	// KFlushReq and KFlushDone are retired: EI's per-page ownership
	// transaction, replaced by the merged KUpdate. They keep their
	// numbers, and no engine handles them: a node records either as a
	// protocol error. Kept for bench/lrcbench; ROADMAP item 1 removes them.
	KFlushReq
	KFlushDone
	// KWriteReq: requester -> page home asking for exclusive write
	// ownership (SC). A/B = page id, requester.
	KWriteReq
	// KWriteResp: home -> requester granting ownership; Data carries the
	// page contents unless the requester already holds a current copy.
	KWriteResp
	// Kinds 22 and 23 are retired: the ready/go pair of a page-home
	// hand-off the runtime no longer has (every page's home is fixed).
	// Kind 24 is retired too: the batch frame, which carried several
	// messages for one destination. Decode refuses all three as unknown
	// kinds.
	_
	_
	_
	kindLimit
)

// NumKinds bounds Kind values (exclusive); per-kind counter arrays are
// indexed by Kind below NumKinds.
const NumKinds = int(kindLimit)

var kindNames = [kindLimit]string{
	KLockReq: "lockreq", KLockFwd: "lockfwd", KLockGrant: "lockgrant",
	KDiffReq: "diffreq", KDiffResp: "diffresp",
	KPageReq: "pagereq", KPageResp: "pageresp",
	KBarrierArrive: "arrive", KBarrierExit: "exit",
	KGCReady: "gcready", KGCDone: "gcdone",
	KFetch: "fetch", KFetchResp: "fetchresp",
	KInval: "inval", KInvalAck: "invalack",
	KUpdate: "update", KUpdateAck: "updateack",
	KFlushReq: "flushreq", KFlushDone: "flushdone",
	KWriteReq: "writereq", KWriteResp: "writeresp",
}

// IsResponse reports whether the kind answers an outstanding request and
// is routed to the requester's waiter by its Seq.
func (k Kind) IsResponse() bool {
	switch k {
	case KLockGrant, KDiffResp, KPageResp, KBarrierExit, KGCDone,
		KFetchResp, KInvalAck, KUpdateAck, KFlushDone, KWriteResp:
		return true
	}
	return false
}

// Known reports whether k is a kind of this format: neither zero, nor
// retired, nor past the last.
func (k Kind) Known() bool { return k < kindLimit && kindNames[k] != "" }

// String returns the kind's mnemonic.
func (k Kind) String() string {
	if k.Known() {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint16(k))
}

// IntervalRec carries one interval's identity, timestamp and write
// notices (the pages it modified).
type IntervalRec struct {
	Proc  mem.ProcID
	Index int32
	VC    vc.VC
	Pages []mem.PageID
}

// DiffRec carries one interval's diff for one page — or, answering a range
// want, the merge of the range's diffs under the range's first index. In a
// KDiffResp a record may instead say its sender does not hold the diff
// (NotHeld): then Diff is ignored on encode and decodes empty.
type DiffRec struct {
	Page    mem.PageID
	Proc    mem.ProcID
	Index   int32
	Diff    *page.Diff
	NotHeld bool
}

// Want names the diff a requester needs: that of interval Index of
// processor Proc on Page, or, with Span > 0, the one merge of every diff
// Proc made of Page in intervals Index through Index+Span, both of which
// wrote the page. A response answers want i with record i, named (Page,
// Proc, Index).
type Want struct {
	Page  mem.PageID
	Proc  mem.ProcID
	Index int32
	Span  int32
}

// Section is the sender's protocol tag and consistency payload on a
// runtime synchronization message: a lock request, grant or forward, or a
// barrier arrival or exit carries its engine's clock, write notices and
// piggybacked diffs in one section, not in the flat VC/Intervals/Diffs
// fields. Mode is the dsm-layer protocol id (small; the decoder bounds it
// at 255, and the dsm layer records and drops a section whose mode is not
// the receiver's own).
type Section struct {
	Mode      uint16
	VC        vc.VC
	Intervals []IntervalRec
	Diffs     []DiffRec
}

// Msg is a runtime protocol message. Only the fields relevant to Kind are
// encoded; see the Kind constants for field meanings of A and B.
type Msg struct {
	Kind Kind
	Seq  uint64 // request/response correlation
	A, B int32  // kind-specific scalars (lock/page/barrier id, requester)

	VC        vc.VC
	Intervals []IntervalRec
	Diffs     []DiffRec
	Wants     []Want
	Data      []byte    // page contents (KPageResp)
	Sections  []Section // per-engine payloads on shared sync messages

	// refs counts the holders of a recycled shell (NewMsg, Decode) — through
	// sync/atomic's functions, not an atomic.Int32, because literals are
	// copied by value; kept is the storage a shell keeps across Release, and
	// nil on a literal, which Release leaves to the garbage collector. It
	// sits behind a pointer so that a literal, or a request a sender builds
	// by value, carries none of it. Neither is encoded.
	refs int32
	kept *kept
}

// kept is what a shell keeps across Release: its first section, SetClock's
// storage and the lists of the slabs the message holds — and, until the
// last Release, the received frame its diffs borrow (HoldFrame).
type kept struct {
	sec   [1]Section
	clock []int32
	slabs heldSlabs
	frame []byte
}

// shell allocates a message and its kept storage together.
type shell struct {
	m Msg
	k kept
}

// heldSlabs lists the slabs a message took from the slab pool, per type.
type heldSlabs struct {
	recs  [][]IntervalRec
	words [][]int32
	pages [][]mem.PageID
	diffs [][]DiffRec
	hdrs  [][]page.Diff
	wants [][]Want
}

// release gives every slab back to its pool, scrubbed or poisoned.
func (h *heldSlabs) release() {
	giveBack(&recSlabs, &h.recs)
	giveBack(&wordSlabs, &h.words)
	giveBack(&pageSlabs, &h.pages)
	giveBack(&diffSlabs, &h.diffs)
	giveBack(&hdrSlabs, &h.hdrs)
	giveBack(&wantSlabs, &h.wants)
}

// take returns n elements of a slab from p, listed in held.
func take[T any](p *framebuf.Pool[[]T], held *[][]T, n int) []T {
	*held = append(*held, framebuf.GetSlab(p, n))
	return (*held)[len(*held)-1]
}

func giveBack[T any](p *framebuf.Pool[[]T], held *[][]T) {
	for _, s := range *held {
		framebuf.PutSlab(p, s)
	}
	*held = slices.Delete(*held, 0, len(*held))
}

// dead is what a released slab's numbers read under poison-on-release:
// 0xDBDBDBDB, framebuf.PoisonByte in every byte.
const dead int32 = -0x24242425

// deadBody is the wire body a released diff header borrows under
// poison-on-release: no body at all, a varint cut short.
var deadBody = []byte{framebuf.PoisonByte, framebuf.PoisonByte}

// The slab pools, one per element type, shared by the process's nodes. A
// poisoned diff record keeps pointing to its header, and a header is
// poisoned to borrow deadBody, so a kept *page.Diff is refused by
// page.Diff.Apply as malformed, whoever holds the frame it borrowed.
var (
	recSlabs  = slabs(fillWith(IntervalRec{Proc: mem.ProcID(dead), Index: dead}))
	wordSlabs = slabs(fillWith(dead))
	pageSlabs = slabs(fillWith(mem.PageID(dead)))
	diffSlabs = slabs(func(s []DiffRec) {
		for i := range s {
			s[i].Page, s[i].Proc, s[i].Index = mem.PageID(dead), mem.ProcID(dead), dead
		}
	})
	hdrSlabs = slabs(func(s []page.Diff) {
		for i := range s {
			s[i].SetWire(deadBody)
		}
	})
	wantSlabs = slabs(fillWith(Want{Page: mem.PageID(dead), Proc: mem.ProcID(dead), Index: dead, Span: dead}))
)

// slabs returns a slab pool that clears a released slab, to pin nothing,
// and under poison-on-release leaves it to poison, if any.
func slabs[T any](poison func([]T)) framebuf.Pool[[]T] {
	return framebuf.Pool[[]T]{Scrub: func(s []T) { clear(s) }, Poison: poison}
}

// fillWith returns the poison that sets every element of a slab to x.
func fillWith[T any](x T) func([]T) {
	return func(s []T) {
		for i := range s {
			s[i] = x
		}
	}
}

// freeMsgs is the shell free list, in internal/framebuf's typed-free-list
// idiom: the ring stores pointers, so recycling allocates nothing;
// overflow is dropped for the garbage collector, underflow allocates.
var freeMsgs = make(chan *Msg, 1024)

// poisonKind is the kind byte of a released shell under poison-on-release:
// outside the valid range, so whoever dispatches on it fails.
const poisonKind = Kind(framebuf.PoisonByte)

// NewMsg returns an empty message shell with one reference. It is for a
// message that must live on the heap — a decoded one, or one a sender
// passes through an interface call; a sender that can keep its message on
// the stack uses a literal. See the package doc's Ownership section.
func NewMsg() *Msg {
	select {
	case m := <-freeMsgs:
		*m = Msg{refs: 1, kept: m.kept}
		return m
	default:
		s := new(shell)
		s.m.refs, s.m.kept = 1, &s.k
		return &s.m
	}
}

// SetClock sets m.VC to a copy of v, in the storage a shell keeps across
// Release for its one clock: a sender's clock then costs nothing, and like a
// decoded clock it is the shell's, gone with the last Release. A literal,
// which keeps nothing, gets a copy of its own.
func (m *Msg) SetClock(v vc.VC) {
	if m.kept == nil {
		m.VC = append(make(vc.VC, 0, len(v)), v...)
		return
	}
	if k := m.kept; k.clock == nil || cap(k.clock) < len(v) {
		k.clock = make([]int32, len(v))
	}
	m.VC = m.kept.clock[:len(v):len(v)]
	copy(m.VC, v)
}

// TakeIntervals returns n interval records from the slab pool for a sender
// to fill: like a decoded block's they are m's until its last Release, so a
// sender that encodes m before releasing it builds its block without
// allocating. A literal gets records of its own.
func (m *Msg) TakeIntervals(n int) []IntervalRec {
	if m.kept == nil {
		return make([]IntervalRec, n)
	}
	return take(&recSlabs, &m.kept.slabs.recs, n)
}

// TakeDiffs is TakeIntervals for diff records.
func (m *Msg) TakeDiffs(n int) []DiffRec {
	if m.kept == nil {
		return make([]DiffRec, n)
	}
	return take(&diffSlabs, &m.kept.slabs.diffs, n)
}

// AppendSection appends s to m.Sections. A shell's first section lives in
// the shell, so Sections is the shell's like the scalar fields are: it is
// gone with the last Release, and nothing may keep it beyond.
func (m *Msg) AppendSection(s Section) {
	if m.Sections == nil && m.kept != nil {
		m.Sections = m.kept.sec[:0]
	}
	m.Sections = append(m.Sections, s)
}

// Retain adds a reference for a holder that outlives the current one: a
// handler that parks its message, or hands it to another goroutine. A
// literal holds nothing, so Retain and Release leave it alone.
func (m *Msg) Retain() {
	if m.kept != nil {
		atomic.AddInt32(&m.refs, 1)
	}
}

// Release drops one reference. The last one returns the frame the message
// holds to internal/framebuf and recycles the shell: every slice header is
// cleared, and every slab the message took goes back to the slab pool —
// Data stays with whoever absorbed it. Dropping a message without
// releasing it is always safe (the garbage collector takes its slabs and
// frame); releasing more often than retained panics. On a literal or nil
// it does nothing.
func (m *Msg) Release() {
	if m == nil || m.kept == nil {
		return
	}
	switch n := atomic.AddInt32(&m.refs, -1); {
	case n == 0:
		k := m.kept
		framebuf.Put(k.frame)
		*m = Msg{kept: k}
		k.sec, k.frame = [1]Section{}, nil
		if framebuf.Poisoned() {
			m.Kind, m.Seq, m.A, m.B = poisonKind, uint64(framebuf.PoisonByte)*0x0101010101010101, dead, dead
			wordSlabs.Poison(k.clock[:cap(k.clock)])
		}
		k.slabs.release()
		select {
		case freeMsgs <- m:
		default:
		}
	case n < 0:
		panic("wire: message released more often than retained")
	}
}

// HoldFrame settles the custody of frame, the buffer Decode filled m from:
// a message whose diffs borrow it — flat or in a section — keeps it until
// its last Release; any other message needs none of it, and frame goes
// back to internal/framebuf at once.
func (m *Msg) HoldFrame(frame []byte) {
	borrows := len(m.Diffs) > 0
	for i := range m.Sections {
		borrows = borrows || len(m.Sections[i].Diffs) > 0
	}
	if borrows {
		m.kept.frame = frame
	} else {
		framebuf.Put(frame)
	}
}

// Presence bits: one per optional block, in wire order. A message uses
// all six; a section's presence byte only the VC, Intervals and Diffs
// bits. Anything else set is a decode error: an accepted frame must have
// exactly one encoding, and unknown bits would otherwise be silently
// dropped on the re-encode.
const (
	hasVC = 1 << iota
	hasIntervals
	hasDiffs
	hasWants
	hasData
	hasSections

	msgPresence     = hasSections<<1 - 1
	sectionPresence = hasVC | hasIntervals | hasDiffs
)

// The kind travels as one byte.
const _ = byte(kindLimit)

// Smallest encodings, the item sizes hostile counts are checked against.
const (
	minMsgBytes      = 5 // kind, presence, seq, a, b
	minIntervalBytes = 1 // a mask whose repeat bit stands for the list
	// minIntervalRunBytes is a run's proc, first index, record count, clock
	// length and a first record, which spells its list: a mask and a page
	// count.
	minIntervalRunBytes = 6
	minDiffBytes        = 4 // page, proc, index, run count
	minDataRunBytes     = 3 // offset, length, one byte: a data run is never empty
	minWantBytes        = 3 // page, proc, index
	minSectionBytes     = 2 // mode, presence
	// maxClock bounds a clock's entry count (Config.Procs is capped at 64).
	maxClock = 64
)

// maxIntervalWords bounds the clock entries an interval block expands to,
// the enclosing clock's included: a record whose clock repeats its
// prediction is two bytes, so the frame's length no longer vouches for its
// clock. The largest blocks the runtime sends are a barrier's, which carry
// an epoch's intervals: 2^24 entries (64 MiB of clocks, the TCP transport's
// frame limit) hold 4,096 intervals of each of 64 processors (the cap),
// where a splash-water arrival at 4 processors and scale 16 carries 2,385
// records in all.
const maxIntervalWords = 1 << 24

// MaxDataBytes bounds the expanded length of a Data block — a page copy or
// a barrier's plan blob. Zero suppression means the frame's own length no
// longer vouches for it, so Decode checks the announced length against
// this before allocating; internal/dsm refuses a page size above it.
const MaxDataBytes = 4 << 20

// EncodeAppend appends the message's encoding to buf and returns the
// extended slice — the append-style encoder of the hot send path: with a
// pooled buffer (framebuf.Get) the steady state is zero-alloc.
func (m *Msg) EncodeAppend(buf []byte) []byte {
	// slices.Grow rounds a new buffer up to its allocation size class, so
	// a recycled buffer also fits the next frame of about this size.
	return m.appendTo(slices.Grow(buf, m.growHint()))
}

// growHint estimates the encoding's length without walking clocks and
// page lists: exact for the bulk (page data, diff bodies), a per-record
// guess for the rest. One growth up front then covers a large frame;
// append absorbs a short guess.
func (m *Msg) growHint() int {
	n := 32 + len(m.Data) + payloadHint(m.Intervals, m.Diffs)
	for i := range m.Sections {
		n += 16 + payloadHint(m.Sections[i].Intervals, m.Sections[i].Diffs)
	}
	return n
}

func payloadHint(ivs []IntervalRec, diffs []DiffRec) int {
	n := 8 * len(ivs) // a record in a run: a mask, the entries that moved, a page or two
	for _, d := range diffs {
		n += 8
		if !d.NotHeld {
			n += len(d.Diff.EnsureWireBody())
		}
	}
	return n
}

// setLen writes n as the varint at buf[at], where its first byte was
// reserved before what follows was known; a wider varint moves what follows
// up to make room.
func setLen(buf []byte, at, n int) []byte {
	if wider := lenLen(n) - 1; wider > 0 {
		buf = append(buf, make([]byte, wider)...)
		copy(buf[at+1+wider:], buf[at+1:len(buf)-wider])
	}
	binary.PutUvarint(buf[at:], uint64(n))
	return buf
}

func (m *Msg) appendTo(buf []byte) []byte {
	present := payloadBits(m.VC != nil, m.Intervals, m.Diffs)
	if len(m.Wants) > 0 {
		present |= hasWants
	}
	if len(m.Data) > 0 {
		present |= hasData
	}
	if m.Sections != nil {
		present |= hasSections
	}
	buf = append(buf, byte(m.Kind), present)
	buf = binary.AppendUvarint(buf, m.Seq)
	buf = put32(buf, m.A)
	buf = put32(buf, m.B)
	buf = appendPayload(buf, present, m.VC, m.Intervals, m.Diffs)
	if present&hasWants != 0 {
		buf = putLen(buf, len(m.Wants))
		for _, w := range m.Wants {
			buf = put32(buf, int32(w.Page))
			// The span bit rides the processor field: a plain want costs
			// what it did without one.
			proc := uint64(uint32(w.Proc)) << 1
			if w.Span != 0 {
				proc |= 1
			}
			buf = binary.AppendUvarint(buf, proc)
			buf = put32(buf, w.Index)
			if w.Span != 0 {
				buf = put32(buf, w.Span)
			}
		}
	}
	if present&hasData != 0 {
		buf = appendData(buf, m.Data)
	}
	if present&hasSections != 0 {
		buf = putLen(buf, len(m.Sections))
		for i := range m.Sections {
			s := &m.Sections[i]
			sp := payloadBits(len(s.VC) > 0, s.Intervals, s.Diffs)
			buf = append(putLen(buf, int(s.Mode)), sp)
			buf = appendPayload(buf, sp, s.VC, s.Intervals, s.Diffs)
		}
	}
	return buf
}

// payloadBits returns the presence bits of the consistency payload a
// message body and a section share.
func payloadBits(clock bool, ivs []IntervalRec, diffs []DiffRec) byte {
	var present byte
	if clock {
		present |= hasVC
	}
	if len(ivs) > 0 {
		present |= hasIntervals
	}
	if len(diffs) > 0 {
		present |= hasDiffs
	}
	return present
}

// appendPayload encodes the blocks payloadBits announced.
func appendPayload(buf []byte, present byte, clock vc.VC, ivs []IntervalRec, diffs []DiffRec) []byte {
	if present&hasVC != 0 {
		buf = putLen(buf, len(clock))
		for k, x := range clock {
			if k == 0 {
				buf = put32(buf, x+1)
			} else {
				buf = put32(buf, zigzag(x-clock[k-1]))
			}
		}
	}
	if present&hasIntervals != 0 {
		buf = appendIntervals(buf, ivs, clock)
	}
	if present&hasDiffs != 0 {
		buf = putLen(buf, len(diffs))
		for _, d := range diffs {
			buf = put32(buf, int32(d.Page))
			// The not-held bit rides the processor field, as a want's span
			// bit does.
			proc := uint64(uint32(d.Proc)) << 1
			if d.NotHeld {
				proc |= 1
			}
			buf = binary.AppendUvarint(buf, proc)
			buf = put32(buf, d.Index)
			if d.NotHeld {
				buf = append(buf, 0) // the body of no runs
			} else {
				buf = append(buf, d.Diff.EnsureWireBody()...)
			}
		}
	}
	return buf
}

// appendIntervals encodes an interval block as its maximal runs; base is
// the enclosing message or section clock the runs are coded against.
func appendIntervals(buf []byte, ivs []IntervalRec, base vc.VC) []byte {
	at := len(buf)
	buf = append(buf, 0) // the run count; one byte holds most
	runs := 0
	for len(ivs) > 0 {
		n := runLen(ivs)
		buf = appendRun(buf, ivs[:n], base)
		ivs = ivs[n:]
		runs++
	}
	return setLen(buf, at, runs)
}

// runLen returns the length of the run ivs starts with: the records of one
// processor with consecutive indices and clocks of one length.
func runLen(ivs []IntervalRec) int {
	n := 1
	for ; n < len(ivs); n++ {
		prev, iv := &ivs[n-1], &ivs[n]
		if iv.Proc != prev.Proc || len(iv.VC) != len(prev.VC) || prev.Index == math.MaxInt32 || iv.Index != prev.Index+1 {
			break
		}
	}
	return n
}

// appendRun encodes one run: its processor, its first index — against the
// base's entry for the processor when the base has the run's clock length
// — its record count and clock length, then each record.
func appendRun(buf []byte, run []IntervalRec, base vc.VC) []byte {
	first := &run[0]
	m := len(first.VC)
	buf = put32(buf, int32(first.Proc))
	own := ownEntry(first.Proc, m)
	if len(base) != m {
		base = nil
	}
	if base != nil && own >= 0 {
		buf = put32(buf, zigzag(first.Index-base[own]))
	} else {
		buf = put32(buf, first.Index)
	}
	buf = putLen(putLen(buf, len(run)), m)
	prev := base
	rep := repeatBit(m)
	var prevPages []mem.PageID
	var moved [maxClock]int32 // a record's zig-zag deltas
	for i := range run {
		iv := &run[i]
		// A clock past maxClock entries is refused by its length; the mask
		// covers the first maxClock.
		var mask uint64
		nm := 0
		for k, x := range iv.VC[:min(m, maxClock)] {
			if d := x - predict(prev, k, own, iv.Index); d != 0 {
				mask |= 1 << k
				moved[nm] = zigzag(d)
				nm++
			}
		}
		repeats := i > 0 && rep != 0 && slices.Equal(iv.Pages, prevPages)
		if repeats {
			mask |= rep
		}
		buf = binary.AppendUvarint(buf, mask)
		for _, z := range moved[:nm] {
			buf = put32(buf, z)
		}
		if !repeats {
			buf = appendPages(buf, iv.Pages, prevPages)
		}
		prev, prevPages = iv.VC, iv.Pages
	}
	return buf
}

// repeatBit returns the mask bit a record of an m-entry clock sets when its
// page list is the one of the record before it in its run: bit m, one past
// the clock's entries. A 64-entry clock leaves the mask no room, and the
// result is 0: every list of such a run travels.
func repeatBit(m int) uint64 { return 1 << uint(m) }

// appendPages encodes a spelled-out page list: its length, its first page —
// zig-zag coded against the first page of prev, the list of the record
// before it in the run, when that has one, and absolute otherwise — and
// each later page as the wrapping difference to the page before it.
func appendPages(buf []byte, pages, prev []mem.PageID) []byte {
	buf = putLen(buf, len(pages))
	for k, p := range pages {
		switch {
		case k > 0:
			buf = put32(buf, int32(p-pages[k-1]))
		case len(prev) > 0:
			buf = put32(buf, zigzag(int32(p-prev[0])))
		default:
			buf = put32(buf, int32(p))
		}
	}
	return buf
}

// ownEntry returns the clock entry of a record of processor proc that its
// index predicts, or -1 when a clock of m entries has none.
func ownEntry(proc mem.ProcID, m int) int {
	if uint32(proc) < uint32(m) {
		return int(proc)
	}
	return -1
}

// predict returns what entry k of a record's clock is expected to be: the
// record's index for its own entry (a closed interval's own entry is its
// index), else entry k of prev — the record before it in the run, or for a
// run's first record the base — or -1, the entry of no interval, when
// there is neither.
func predict(prev vc.VC, k, own int, index int32) int32 {
	switch {
	case k == own:
		return index
	case prev == nil:
		return -1
	}
	return prev[k]
}

// appendData encodes the Data block: the expanded length, then the non-zero
// words of data as the runs of a diff body — data's diff against the
// all-zero initial image, scanned straight out of the sender's copy into
// the frame. A run is split only where a whole zero word saves more than
// the next run's descriptor costs, so a dense page pays one descriptor.
func appendData(buf, data []byte) []byte {
	buf = putLen(buf, len(data))
	at := len(buf)
	buf = append(buf, 0) // the run count; one byte holds most
	runs := 0
	for off, end := page.NextNonZeroRun(data, 0); off < len(data); off, end = page.NextNonZeroRun(data, end) {
		buf = putLen(putLen(buf, off), end-off)
		buf = append(buf, data[off:end]...)
		runs++
	}
	return setLen(buf, at, runs)
}

// zigzag folds a signed delta so small magnitudes of either sign encode
// short; unzigzag inverts it. Both are bijections on 32-bit values.
func zigzag(d int32) int32   { return d<<1 ^ d>>31 }
func unzigzag(u int32) int32 { return int32(uint32(u)>>1) ^ -(u & 1) }

// put32 appends a 32-bit field as uv(uint32(v)).
func put32(b []byte, v int32) []byte {
	if uint32(v) < 0x80 {
		return append(b, byte(v))
	}
	return binary.AppendUvarint(b, uint64(uint32(v)))
}

func putLen(b []byte, n int) []byte { return binary.AppendUvarint(b, uint64(n)) }

// uvLen returns the length of x's unsigned varint encoding.
func uvLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }
func lenLen(n int) int   { return uvLen(uint64(n)) }

// decoder walks an encoded buffer with bounds checking. The first error
// sticks and moves off to the end of the buffer, so every later read
// fails its bounds check and returns zero.
type decoder struct {
	b   []byte
	off int
	err error
	// slabs lists the slabs the decoded message holds.
	slabs *heldSlabs
	// notHeldOK says a diff record may carry the not-held bit: the block
	// is a KDiffResp's own.
	notHeldOK bool
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
		d.off = len(d.b)
	}
}

// uvarint reads one unsigned varint, rejecting encodings longer than
// the value needs (an accepted frame has exactly one encoding) or wider
// than 64 bits. The one-byte case is handled here, the rest in
// uvarintSlow.
func (d *decoder) uvarint() uint64 {
	if d.off < len(d.b) {
		if c := d.b[d.off]; c < 0x80 {
			d.off++
			return uint64(c)
		}
	}
	return d.uvarintSlow()
}

func (d *decoder) uvarintSlow() uint64 {
	if d.err != nil {
		return 0
	}
	var x uint64
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if d.off+i >= len(d.b) {
			d.fail("truncated at offset %d", len(d.b))
			return 0
		}
		c := d.b[d.off+i]
		if c < 0x80 {
			if c == 0 {
				d.fail("non-minimal varint at offset %d", d.off)
				return 0
			}
			if i == binary.MaxVarintLen64-1 && c > 1 {
				break
			}
			d.off += i + 1
			return x | uint64(c)<<(7*i)
		}
		x |= uint64(c&0x7f) << (7 * i)
	}
	d.fail("varint overflows 64 bits at offset %d", d.off)
	return 0
}

// u32 reads a varint that must fit a 32-bit field.
func (d *decoder) u32() uint32 {
	if d.off < len(d.b) {
		if c := d.b[d.off]; c < 0x80 {
			d.off++
			return uint32(c)
		}
	}
	return d.u32Slow()
}

func (d *decoder) u32Slow() uint32 {
	x := d.uvarintSlow()
	if x > math.MaxUint32 {
		d.fail("varint %d overflows its 32-bit field", x)
		return 0
	}
	return uint32(x)
}

func (d *decoder) i32() int32 { return int32(d.u32()) }

// skip advances past n varints without interpreting them (the sizing
// passes below; the decoding pass that follows validates each one).
func (d *decoder) skip(n int) {
	if d.err != nil {
		return
	}
	for ; n > 0; n-- {
		for {
			if d.off >= len(d.b) {
				d.fail("truncated at offset %d", d.off)
				return
			}
			d.off++
			if d.b[d.off-1] < 0x80 {
				break
			}
		}
	}
}

// count reads a small number — a clock's entry count, a section's mode —
// bounded by limit.
func (d *decoder) count(what string, limit int) int {
	n := d.uvarint()
	if n > uint64(limit) {
		// Return 0, not n: callers size allocations by this value, and a
		// hostile count must never reach a make().
		d.fail("implausible %s %d", what, n)
		return 0
	}
	return int(n)
}

// countItems reads a count and rejects any value whose items could not
// possibly fit in the remaining bytes. This is the allocation bound: a
// 30-byte hostile message must not be able to claim 2^24 entries and
// make the decoder allocate gigabytes before the truncation is noticed.
func (d *decoder) countItems(what string, itemBytes int) int {
	n := d.uvarint()
	if n > uint64(len(d.b)-d.off)/uint64(itemBytes) {
		d.fail("implausible %s count %d for %d remaining bytes", what, n, len(d.b)-d.off)
		return 0
	}
	return int(n)
}

// blockCount is countItems for a block whose presence bit was set: the
// encoder never announces an empty block, so zero is a second encoding
// of the block's absence and is rejected.
func (d *decoder) blockCount(what string, itemBytes int) int {
	n := d.countItems(what, itemBytes)
	if n == 0 && d.err == nil {
		d.fail("presence bit over an empty %s block", what)
	}
	return n
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || n > len(d.b)-d.off {
		d.fail("truncated payload at offset %d (want %d bytes)", d.off, n)
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

// Decode parses an encoded message into a recycled shell (NewMsg) the
// caller holds the one reference to. The message's diffs borrow b, its
// blocks are slabs it holds (the package doc's Ownership section), and
// everything else is copied out.
func Decode(b []byte) (*Msg, error) {
	m := NewMsg()
	if err := m.decode(b); err != nil {
		m.Release()
		return nil, err
	}
	return m, nil
}

func (m *Msg) decode(b []byte) error {
	if len(b) < minMsgBytes {
		return fmt.Errorf("wire: message of %d bytes shorter than header", len(b))
	}
	m.Kind = Kind(b[0])
	if !m.Kind.Known() {
		return fmt.Errorf("wire: unknown message kind %d", m.Kind)
	}
	present := b[1]
	if present&^msgPresence != 0 {
		return fmt.Errorf("wire: unknown presence bits %#x", present)
	}
	d := &decoder{b: b, off: 2, slabs: &m.kept.slabs, notHeldOK: m.Kind == KDiffResp}
	m.Seq = d.uvarint()
	m.A = d.i32()
	m.B = d.i32()
	m.VC, m.Intervals, m.Diffs = d.payload(present, true)
	if present&hasWants != 0 {
		if n := d.blockCount("want", minWantBytes); n > 0 {
			m.Wants = take(&wantSlabs, &d.slabs.wants, n)
		}
		for i := range m.Wants {
			m.Wants[i] = d.want()
		}
	}
	if present&hasData != 0 {
		m.Data = d.data()
	}
	if present&hasSections != 0 {
		d.notHeldOK = false
		if n := d.countItems("section", minSectionBytes); n == 1 {
			m.Sections = m.kept.sec[:1]
		} else {
			m.Sections = make([]Section, n)
		}
		for i := range m.Sections {
			s := &m.Sections[i]
			// Engine mode ids are tiny; anything bigger is a forgery or
			// corruption. Semantically-unknown small ids decode fine and
			// are rejected at the dsm layer (recorded-error-then-drop).
			s.Mode = uint16(d.count("section mode", 255))
			sp := d.bytes(1)
			if d.err != nil {
				break
			}
			if sp[0]&^sectionPresence != 0 {
				d.fail("unknown section presence bits %#x", sp[0])
				break
			}
			s.VC, s.Intervals, s.Diffs = d.payload(sp[0], false)
		}
	}
	if d.err != nil {
		return d.err
	}
	if d.off != len(b) {
		return fmt.Errorf("wire: %d trailing bytes", len(b)-d.off)
	}
	return nil
}

// want decodes one want. A span travels only when it is not zero, so a zero
// under the span bit is a second encoding of the plain want; a range must
// end at an index an int32 holds.
func (d *decoder) want() Want {
	w := Want{Page: mem.PageID(d.i32())}
	proc := d.uvarint()
	if proc>>1 > math.MaxUint32 {
		d.fail("want processor %d overflows its 32-bit field", proc>>1)
	}
	w.Proc, w.Index = mem.ProcID(uint32(proc>>1)), d.i32()
	if proc&1 != 0 {
		if w.Span = d.i32(); w.Span <= 0 || int64(w.Index)+int64(w.Span) > math.MaxInt32 {
			d.fail("want %d/%d with span %d", w.Proc, w.Index, w.Span)
		}
	}
	return w
}

// diffProc decodes a diff record's processor field: the processor, shifted
// left past the not-held bit, which only a KDiffResp's own records may set.
func (d *decoder) diffProc() uint64 {
	proc := d.uvarint()
	if proc>>1 > math.MaxUint32 {
		d.fail("diff record processor %d overflows its 32-bit field", proc>>1)
	}
	if proc&1 != 0 && !d.notHeldOK {
		d.fail("not-held diff record outside a diff response")
	}
	return proc
}

// payload decodes the consistency blocks present announces (the inverse of
// appendPayload). emptyClock says whether a present clock may have no
// entries: a message's may (the bit tells an empty VC from a nil one), a
// section's may not.
func (d *decoder) payload(present byte, emptyClock bool) (clock vc.VC, ivs []IntervalRec, diffs []DiffRec) {
	var entries [maxClock]int32
	n := 0
	if present&hasVC != 0 {
		n = d.count("clock count", maxClock)
		if n == 0 && !emptyClock {
			d.fail("presence bit over an empty section clock")
		}
		for k := 0; k < n; k++ {
			if k == 0 {
				entries[0] = d.i32() - 1
			} else {
				entries[k] = entries[k-1] + unzigzag(d.i32())
			}
		}
	}
	switch {
	case present&hasIntervals != 0:
		clock, ivs = d.intervalList(entries[:n], present&hasVC != 0)
	case present&hasVC != 0 && d.err == nil:
		// A slab, never nil: an empty clock is not an absent one.
		clock = take(&wordSlabs, &d.slabs.words, n)[:n:n]
		copy(clock, entries[:n])
	}
	if present&hasDiffs != 0 {
		diffs = d.diffList()
	}
	return clock, ivs, diffs
}

// data decodes a Data block (the inverse of appendData) into the one
// buffer the message owns. The announced length is the only number here
// that sizes an allocation, and no frame is short enough to vouch for it —
// an all-zero page is three bytes — so it answers to MaxDataBytes. Runs
// must be non-empty, ascending, disjoint and inside the announced length;
// what they leave out is zero.
func (d *decoder) data() []byte {
	n := d.uvarint()
	switch {
	case d.err != nil:
		return nil
	case n == 0:
		d.fail("presence bit over an empty data block")
		return nil
	case n > MaxDataBytes:
		d.fail("implausible data length %d (limit %d)", n, MaxDataBytes)
		return nil
	}
	runs := d.countItems("data run", minDataRunBytes)
	if d.err != nil {
		return nil
	}
	out := make([]byte, n)
	end := uint64(0)
	for ; runs > 0; runs-- {
		off, size := uint64(d.u32()), uint64(d.u32())
		switch {
		case d.err != nil:
		case size == 0:
			d.fail("empty data run at offset %d", off)
		case off < end:
			d.fail("data run at offset %d overlaps or precedes the run ending at %d", off, end)
		case off+size > n:
			d.fail("data run [%d,%d) past the announced %d bytes", off, off+size, n)
		}
		payload := d.bytes(int(size))
		if d.err != nil {
			return nil
		}
		copy(out[off:], payload)
		end = off + size
	}
	return out
}

// intervalList decodes an interval block (the inverse of appendIntervals);
// base is the enclosing clock, hasBase whether there is one. A sizing pass
// walks the block first — every count checked against the bytes actually
// present, the clock entries the runs expand to against maxIntervalWords —
// so the records, their clocks and their page lists are three slabs per
// block, whatever the record count; each record's VC and Pages are
// capacity-limited windows of the shared slabs, and a list that repeats the
// one before it is that one's window. The enclosing clock is returned as one
// more window of the clock slab, ahead of the records'. The slabs are the
// message's, from the slab pool (the package doc's Ownership section).
func (d *decoder) intervalList(base vc.VC, hasBase bool) (vc.VC, []IntervalRec) {
	nruns := d.blockCount("interval run", minIntervalRunBytes)
	start := d.off
	nivs, nclock, npage := 0, 0, 0
	for i := 0; i < nruns && d.err == nil; i++ {
		d.skip(2) // proc, first index
		n := d.countItems("interval", minIntervalBytes)
		vn := d.count("interval clock count", maxClock)
		// A record of two bytes expands to a clock of 64 entries, so the
		// bytes present vouch for the records, not for their clocks.
		if nivs, nclock = nivs+n, nclock+n*vn; len(base)+nclock > maxIntervalWords {
			d.fail("implausible interval block of %d clock entries (limit %d)", len(base)+nclock, maxIntervalWords)
		}
		rep := repeatBit(vn)
		for k := 0; k < n && d.err == nil; k++ {
			mask := d.uvarint()
			d.skip(bits.OnesCount64(mask &^ rep))
			if mask&rep == 0 {
				// A repeated list shares its predecessor's window.
				pn := d.countItems("interval page", 1)
				d.skip(pn)
				npage += pn
			}
		}
	}
	if d.err != nil {
		return nil, nil
	}
	d.off = start
	out := take(&recSlabs, &d.slabs.recs, nivs)
	clocks := take(&wordSlabs, &d.slabs.words, len(base)+nclock)
	pages := take(&pageSlabs, &d.slabs.pages, npage)
	var clock vc.VC
	if hasBase {
		clock, clocks = clocks[:len(base):len(base)], clocks[len(base):]
		copy(clock, base)
	}
	recs := out
	var last *IntervalRec // the last record of the run before
	for i := 0; i < nruns; i++ {
		proc, index := mem.ProcID(d.i32()), d.i32()
		n, vn := int(d.u32()), int(d.u32())
		if d.err != nil {
			return nil, nil
		}
		own, prev := ownEntry(proc, vn), base
		if len(base) != vn {
			prev = nil
		}
		if prev != nil && own >= 0 {
			index = base[own] + unzigzag(index)
		}
		switch {
		case n == 0:
			d.fail("empty interval run")
		case int64(index)+int64(n)-1 > math.MaxInt32:
			d.fail("interval run %d/%d of %d records past index %d", proc, index, n, math.MaxInt32)
		case last != nil && proc == last.Proc && vn == len(last.VC) && int64(index) == int64(last.Index)+1:
			d.fail("interval run %d/%d continues the run before it", proc, index)
		}
		rep := repeatBit(vn)
		var prevPages []mem.PageID
		for k := 0; k < n && d.err == nil; k++ {
			iv := &recs[k]
			iv.Proc, iv.Index = proc, index+int32(k)
			iv.VC, clocks = clocks[:vn:vn], clocks[vn:]
			mask := d.uvarint()
			switch {
			case mask&^(rep|(rep-1)) != 0:
				d.fail("interval clock mask %#x past its %d entries and repeat bit", mask, vn)
			case mask&rep != 0 && k == 0:
				d.fail("interval run %d/%d opens with a repeated page list", proc, index)
			}
			for e := range iv.VC {
				x := predict(prev, e, own, iv.Index)
				if mask&(1<<e) != 0 {
					delta := unzigzag(d.i32())
					if delta == 0 {
						d.fail("interval clock mask bit %d over a zero delta", e)
					}
					x += delta
				}
				iv.VC[e] = x
			}
			switch {
			case d.err != nil:
				return nil, nil
			case mask&rep != 0:
				iv.Pages = prevPages
			default:
				iv.Pages, pages = d.pages(pages, prevPages, k > 0 && rep != 0)
			}
			prev, prevPages = iv.VC, iv.Pages
		}
		if d.err != nil {
			return nil, nil
		}
		last, recs = &recs[n-1], recs[n:]
	}
	return clock, out
}

// pages decodes a spelled-out page list (the inverse of appendPages) into
// the head of slab and returns it with the rest of the slab; prev is the
// list of the record before it in the run. A list equal to prev is refused
// when repeatable says the repeat bit could have said so.
func (d *decoder) pages(slab, prev []mem.PageID, repeatable bool) (list, rest []mem.PageID) {
	pn := int(d.u32())
	if d.err != nil {
		return nil, slab
	}
	list, rest = slab[:pn:pn], slab[pn:]
	for k := range list {
		switch {
		case k > 0:
			list[k] = list[k-1] + mem.PageID(d.i32())
		case len(prev) > 0:
			list[0] = prev[0] + mem.PageID(unzigzag(d.i32()))
		default:
			list[0] = mem.PageID(d.i32())
		}
	}
	if repeatable && slices.Equal(list, prev) && d.err == nil {
		d.fail("interval page list spelled out though it repeats the record before it")
	}
	return list, rest
}

// diffList decodes a diff block in one pass, into two slabs per block:
// the records and the diff headers they point to. No payload byte is
// copied: page.ScanBody checks each record's body where it lies, and its
// header borrows it as a capacity-limited window of the frame being
// decoded. The slabs are the message's, from the slab pool, and the frame
// its last holder's (the package doc's Ownership section).
func (d *decoder) diffList() []DiffRec {
	ndiffs := d.blockCount("diff", minDiffBytes)
	if d.err != nil {
		return nil
	}
	out, hdrs := take(&diffSlabs, &d.slabs.diffs, ndiffs), take(&hdrSlabs, &d.slabs.hdrs, ndiffs)
	for i := range out {
		rec := &out[i]
		rec.Page = mem.PageID(d.i32())
		proc := d.diffProc()
		rec.Proc, rec.NotHeld = mem.ProcID(uint32(proc>>1)), proc&1 != 0
		rec.Index = d.i32()
		if d.err != nil {
			return nil
		}
		size, runs, err := page.ScanBody(d.b[d.off:])
		switch {
		case err != nil:
			d.fail("diff body at offset %d: %v", d.off, err)
			return nil
		case rec.NotHeld && runs > 0:
			d.fail("not-held diff record carries a body of %d runs", runs)
			return nil
		}
		end := d.off + size
		hdrs[i].SetWire(d.b[d.off:end:end])
		rec.Diff, d.off = &hdrs[i], end
	}
	return out
}
