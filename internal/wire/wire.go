// Package wire defines the on-the-wire message format of the live DSM
// runtime (internal/dsm): a fixed 24-byte header followed by kind-specific
// payload sections, encoded little-endian with explicit counts, so every
// byte the runtime sends through simnet is accounted and decodable.
//
// The trace-driven simulator sizes messages with the closed-form model in
// internal/proto; the runtime encodes real messages. The two agree on
// header, lock, page, barrier and diff payload sizes; runtime interval
// blocks additionally carry each interval's vector timestamp (4n bytes),
// which the closed-form model's receiver is assumed to reconstruct — the
// difference is measured and documented in EXPERIMENTS.md rather than
// hidden.
package wire

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"repro/internal/mem"
	"repro/internal/page"
	"repro/internal/proto"
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
	// KDiffReq: requester -> responder, listing wanted (page, interval)
	// diffs. A = requester.
	KDiffReq
	// KDiffResp: responder -> requester with the diffs.
	KDiffResp
	// KPageReq: requester -> page home. A/B = page id, requester.
	KPageReq
	// KPageResp: home -> requester with page contents and the applied
	// clock of the copy. A = page id.
	KPageResp
	// KBarrierArrive: node -> barrier master with clock and intervals.
	// A/B = barrier id, arriving node.
	KBarrierArrive
	// KBarrierExit: master -> node with merged clock and intervals.
	// A = barrier id.
	KBarrierExit
	// KGCReady: node -> master after validating its pages for log
	// truncation; KGCDone: master -> nodes to truncate. A = barrier id.
	KGCReady
	KGCDone

	// Kinds below serve the eager (EI/EU) and sequentially-consistent (SC)
	// engines, whose directories live at each page's home.

	// KFetch: home -> current owner, asking for a page's committed
	// contents on behalf of a requester. A = page id. Under SC the owner
	// downgrades its copy to read mode as it serves.
	KFetch
	// KFetchResp: owner -> home with the page contents.
	KFetchResp
	// KInval: home -> cacher, invalidating its copy. A = page id.
	KInval
	// KInvalAck: cacher -> home; under EI it carries the cacher's own
	// buffered modifications back as a diff (Munin's false-sharing
	// write-back), so they are not lost with the invalidated copy.
	KInvalAck
	// KUpdate: home -> cacher with a releaser's diff (EU). A = page id.
	KUpdate
	// KUpdateAck: cacher -> home after applying the update.
	KUpdateAck
	// KFlushReq: releaser -> page home at an eager release or barrier
	// flush point. A/B = page id, flusher; EU carries the diff. A
	// non-empty Data section flags that the flusher's local copy is
	// invalid, so the reply must carry a reconciliation base even if the
	// flusher is still in the copyset.
	KFlushReq
	// KFlushDone: home -> releaser once every other cacher was invalidated
	// (EI) or updated (EU): Diffs carries EI write-backs, Data carries a
	// reconciliation base when the flusher's own copy had been invalidated
	// by a concurrent flush of the same page.
	KFlushDone
	// KWriteReq: requester -> page home asking for exclusive write
	// ownership (SC). A/B = page id, requester.
	KWriteReq
	// KWriteResp: home -> requester granting ownership; Data carries the
	// page contents unless the requester already holds a current copy.
	KWriteResp
	// KReclassReady: node -> barrier master during an adaptive
	// reclassification epoch, signalling the node finished the current
	// migration phase; KReclassGo: master -> nodes releasing the next
	// phase. A/B = barrier id, arriving node (ready only). Two
	// ready/go rounds bracket a protocol re-route so no node resumes
	// application work before every node has flipped its mode table.
	KReclassReady
	KReclassGo

	// KBatch is a frame-level kind, not a protocol message: one batch
	// frame carries A count-prefixed sub-messages coalesced by the
	// sender's outbox for one destination. It appears only at the top of
	// a received payload (DecodeBatch); Decode rejects it in message
	// position, which also forbids nested batches.
	KBatch
	// KCompressed is a frame-level kind wrapping one complete inner frame
	// (a plain message or a batch) as a flate stream: a standard header
	// with A = the inner frame's exact byte length, followed by the
	// compressed bytes. Senders emit it only when the compressed form is
	// strictly smaller (see Compress); receivers expand it back to the
	// inner frame before routing (Expand). Nesting is rejected, as is the
	// kind in message position.
	KCompressed
	kindLimit
)

// NumKinds bounds Kind values (exclusive); per-kind counter arrays are
// indexed by Kind below NumKinds.
const NumKinds = int(kindLimit)

var kindNames = map[Kind]string{
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
	KReclassReady: "reclassready", KReclassGo: "reclassgo",
	KBatch: "batch", KCompressed: "compressed",
}

// IsResponse reports whether the kind answers an outstanding request and
// is routed to the requester's waiter by its Seq.
func (k Kind) IsResponse() bool {
	switch k {
	case KLockGrant, KDiffResp, KPageResp, KBarrierExit, KGCDone,
		KFetchResp, KInvalAck, KUpdateAck, KFlushDone, KWriteResp,
		KReclassGo:
		return true
	}
	return false
}

// String returns the kind's mnemonic.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
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

// DiffRec carries one interval's diff for one page.
type DiffRec struct {
	Page  mem.PageID
	Proc  mem.ProcID
	Index int32
	Diff  *page.Diff
}

// Want names one (page, interval) diff a requester needs.
type Want struct {
	Page  mem.PageID
	Proc  mem.ProcID
	Index int32
}

// Section is one protocol engine's consistency payload on a shared
// synchronization message. With per-page protocol routing several engines
// coexist in one node, and a lock grant or barrier message carries each
// resident engine's state — lazy write notices and clocks next to
// eager/SC traffic — as mode-tagged sections instead of the flat
// VC/Intervals/Diffs fields. Mode is the dsm-layer protocol id (small;
// the decoder bounds it at 255 and the dsm layer rejects ids it does not
// host, recorded-error-then-drop).
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
}

// header layout: kind(2) reserved(2) seq(8) a(4) b(4) counts(4) = 24 bytes
// where counts packs presence bits; section counts are encoded inline.
const headerBytes = proto.MsgHeaderBytes

// maxPooledBuf caps the capacity of buffers the pool retains: a frame
// that grew to carry an unusually large batch of page-sized diffs must
// not pin that memory for the process lifetime.
const maxPooledBuf = 1 << 20

// bufFree is a typed free list of frame buffers: a buffered channel
// whose ring buffer stores the []byte headers directly. The previous
// sync.Pool boxed each non-pointer Put into an interface, re-allocating
// a 24-byte slice header per recycled frame; the channel moves the
// header by value, so the steady state is genuinely zero-alloc. The
// slot count bounds how many idle buffers stay pinned; overflow is
// dropped for the GC, underflow falls back to a fresh allocation.
var bufFree = make(chan []byte, 512)

// GetBuf returns an empty frame buffer from the free list. Encode into
// it with EncodeAppend; hand it to the transport (which takes ownership
// on Send) or return it with PutBuf. Steady-state the payload bytes are
// never reallocated — buffers cycle sender -> transport -> receiver ->
// free list — and recycling itself allocates nothing.
func GetBuf() []byte {
	select {
	case b := <-bufFree:
		return b
	default:
		return make([]byte, 0, 512)
	}
}

// PutBuf returns a frame buffer to the free list. The caller must not
// touch b afterwards. Any byte slice may be recycled here (received
// payloads included, whatever allocated them); oversized buffers are
// dropped, as is everything beyond the free list's capacity.
func PutBuf(b []byte) {
	if cap(b) == 0 || cap(b) > maxPooledBuf {
		return
	}
	select {
	case bufFree <- b[:0]:
	default:
	}
}

// EncodeAppend appends the message's encoding to buf and returns the
// extended slice — the append-style encoder of the hot send path: with a
// pooled buffer (GetBuf) the steady state is zero-alloc, and several
// messages append into one buffer to form a batch frame. (The former
// Msg.Encode, which allocated a fresh uniquely-owned slice per message
// even for tiny acks, is retired in its favor.)
func (m *Msg) EncodeAppend(buf []byte) []byte {
	if need := m.encodedSizeHint(); cap(buf)-len(buf) < need {
		grown := make([]byte, len(buf), len(buf)+need)
		copy(grown, buf)
		buf = grown
	}
	var h [headerBytes]byte
	binary.LittleEndian.PutUint16(h[0:], uint16(m.Kind))
	binary.LittleEndian.PutUint64(h[4:], m.Seq)
	binary.LittleEndian.PutUint32(h[12:], uint32(m.A))
	binary.LittleEndian.PutUint32(h[16:], uint32(m.B))
	flags := uint32(0)
	if m.VC != nil {
		flags |= flagVC
	}
	if m.Sections != nil {
		flags |= flagSections
	}
	binary.LittleEndian.PutUint32(h[20:], flags)
	buf = append(buf, h[:]...)

	if m.VC != nil {
		buf = put32(buf, int32(len(m.VC)))
		for _, x := range m.VC {
			buf = put32(buf, x)
		}
	}
	buf = appendIntervalList(buf, m.Intervals)
	buf = appendDiffList(buf, m.Diffs)
	buf = put32(buf, int32(len(m.Wants)))
	for _, w := range m.Wants {
		buf = put32(buf, int32(w.Page))
		buf = put32(buf, int32(w.Proc))
		buf = put32(buf, w.Index)
	}
	buf = put32(buf, int32(len(m.Data)))
	buf = append(buf, m.Data...)
	if m.Sections != nil {
		buf = put32(buf, int32(len(m.Sections)))
		for _, s := range m.Sections {
			buf = put32(buf, int32(s.Mode))
			buf = put32(buf, int32(len(s.VC)))
			for _, x := range s.VC {
				buf = put32(buf, x)
			}
			buf = appendIntervalList(buf, s.Intervals)
			buf = appendDiffList(buf, s.Diffs)
		}
	}
	return buf
}

// Header flag bits. Anything else set is a decode error: an accepted
// frame must have exactly one encoding, and unknown bits would otherwise
// be silently dropped on the re-encode.
const (
	flagVC       = 1 << 0 // the top-level VC section is present
	flagSections = 1 << 1 // the mode-tagged Sections block is present
)

// appendIntervalList encodes a count-prefixed interval block (shared by
// the flat message body and each mode-tagged section).
func appendIntervalList(buf []byte, ivs []IntervalRec) []byte {
	buf = put32(buf, int32(len(ivs)))
	for _, iv := range ivs {
		buf = put32(buf, int32(iv.Proc))
		buf = put32(buf, iv.Index)
		buf = put32(buf, int32(len(iv.VC)))
		for _, x := range iv.VC {
			buf = put32(buf, x)
		}
		buf = put32(buf, int32(len(iv.Pages)))
		for _, p := range iv.Pages {
			buf = put32(buf, int32(p))
		}
	}
	return buf
}

// appendDiffList encodes a count-prefixed diff block (shared by the flat
// message body and each mode-tagged section).
func appendDiffList(buf []byte, diffs []DiffRec) []byte {
	buf = put32(buf, int32(len(diffs)))
	for _, d := range diffs {
		buf = put32(buf, int32(d.Page))
		buf = put32(buf, int32(d.Proc))
		buf = put32(buf, d.Index)
		// A diff served before carries its wire body pre-encoded (run
		// count + run headers + payloads, byte-identical to the loop
		// below); append it verbatim instead of re-walking the runs. The
		// engine decides which diffs are worth caching via EnsureWireBody;
		// one-shot encodes take the direct path with no caching side
		// effect.
		if body := d.Diff.WireBody(); body != nil {
			buf = append(buf, body...)
			continue
		}
		runs := d.Diff.Runs()
		buf = put32(buf, int32(len(runs)))
		for i, r := range runs {
			buf = put32(buf, r.Off)
			buf = put32(buf, r.Len)
			buf = append(buf, d.Diff.RunData(i)...)
		}
	}
	return buf
}

func (m *Msg) encodedSizeHint() int {
	n := headerBytes + 64
	for _, d := range m.Diffs {
		n += d.Diff.WireSize()
	}
	n += len(m.Data)
	n += len(m.Intervals) * 64
	for _, s := range m.Sections {
		n += 16 + 4*len(s.VC) + len(s.Intervals)*64
		for _, d := range s.Diffs {
			n += d.Diff.WireSize()
		}
	}
	return n
}

// SizeHint is a cheap upper-bound estimate of the message's encoded
// size, for byte-thresholded flush policies. It over-counts small
// messages slightly (fixed slack instead of exact section sums) but
// tracks the dominant payload terms — diffs, page data, intervals.
func (m *Msg) SizeHint() int { return m.encodedSizeHint() }

func put32(b []byte, v int32) []byte {
	var t [4]byte
	binary.LittleEndian.PutUint32(t[:], uint32(v))
	return append(b, t[:]...)
}

// decoder walks an encoded buffer with bounds checking.
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) i32() int32 {
	if d.err != nil {
		return 0
	}
	if d.off+4 > len(d.b) {
		d.err = fmt.Errorf("wire: truncated at offset %d", d.off)
		return 0
	}
	v := int32(binary.LittleEndian.Uint32(d.b[d.off:]))
	d.off += 4
	return v
}

func (d *decoder) count(what string, limit int32) int32 {
	n := d.i32()
	if d.err != nil {
		return 0
	}
	if n < 0 || n > limit {
		// Return 0, not n: callers size allocations by this value, and a
		// hostile count must never reach a make().
		d.err = fmt.Errorf("wire: implausible %s count %d", what, n)
		return 0
	}
	return n
}

// countItems reads a section count and rejects any value whose items
// could not possibly fit in the remaining bytes. Once frames arrive from
// a real socket this is the allocation bound: a 30-byte hostile message
// must not be able to claim 2^24 entries and make the decoder allocate
// gigabytes before the truncation is noticed.
func (d *decoder) countItems(what string, itemBytes int) int32 {
	n := d.i32()
	if d.err != nil {
		return 0
	}
	if n < 0 || int64(n)*int64(itemBytes) > int64(len(d.b)-d.off) {
		d.err = fmt.Errorf("wire: implausible %s count %d for %d remaining bytes", what, n, len(d.b)-d.off)
		return 0
	}
	return n
}

func (d *decoder) bytes(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.err = fmt.Errorf("wire: truncated payload at offset %d (want %d bytes)", d.off, n)
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

// Decode parses an encoded message.
func Decode(b []byte) (*Msg, error) {
	if len(b) < headerBytes {
		return nil, fmt.Errorf("wire: message of %d bytes shorter than header", len(b))
	}
	m := &Msg{
		Kind: Kind(binary.LittleEndian.Uint16(b[0:])),
		Seq:  binary.LittleEndian.Uint64(b[4:]),
		A:    int32(binary.LittleEndian.Uint32(b[12:])),
		B:    int32(binary.LittleEndian.Uint32(b[16:])),
	}
	if m.Kind == 0 || m.Kind >= kindLimit {
		return nil, fmt.Errorf("wire: unknown message kind %d", m.Kind)
	}
	if m.Kind == KBatch {
		// A batch is a frame, not a message: it is only legal at the top
		// of a payload (DecodeBatch), which also forbids nested batches.
		return nil, fmt.Errorf("wire: batch frame in message position")
	}
	if m.Kind == KCompressed {
		// Same frame-not-message rule: compressed frames are expanded by
		// the dispatch loop (Expand) before anything decodes messages, and
		// Expand itself rejects a nested compressed frame.
		return nil, fmt.Errorf("wire: compressed frame in message position")
	}
	flags := binary.LittleEndian.Uint32(b[20:])
	if flags&^uint32(flagVC|flagSections) != 0 {
		// Unknown flag bits would be silently dropped on re-encode; an
		// accepted frame must have exactly one encoding.
		return nil, fmt.Errorf("wire: unknown header flag bits %#x", flags)
	}
	d := &decoder{b: b, off: headerBytes}
	if flags&flagVC != 0 {
		n := d.count("clock", 64)
		m.VC = make(vc.VC, n)
		for i := range m.VC {
			m.VC[i] = d.i32()
		}
	}
	// Section counts are bounded by the bytes actually present (each
	// interval is at least 16 bytes on the wire, each run 8, and so on),
	// so hostile counts fail before any allocation sized by them.
	m.Intervals = d.intervalList()
	m.Diffs = d.diffList()
	if d.err != nil {
		return nil, d.err
	}
	nwants := d.countItems("want", 12)
	for i := int32(0); i < nwants && d.err == nil; i++ {
		m.Wants = append(m.Wants, Want{
			Page:  mem.PageID(d.i32()),
			Proc:  mem.ProcID(d.i32()),
			Index: d.i32(),
		})
	}
	ndata := d.countItems("data", 1)
	if ndata > 0 {
		payload := d.bytes(int(ndata))
		if d.err == nil {
			m.Data = make([]byte, ndata)
			copy(m.Data, payload)
		}
	}
	if flags&flagSections != 0 {
		nsecs := d.countItems("section", 16)
		if d.err == nil {
			m.Sections = make([]Section, 0, nsecs)
		}
		for i := int32(0); i < nsecs && d.err == nil; i++ {
			var s Section
			mode := d.i32()
			if d.err == nil && (mode < 0 || mode > 255) {
				// Engine mode ids are tiny; anything bigger is a forgery or
				// corruption. Semantically-unknown small ids decode fine and
				// are rejected at the dsm layer (recorded-error-then-drop).
				d.err = fmt.Errorf("wire: implausible section mode %d", mode)
				break
			}
			s.Mode = uint16(mode)
			if vn := d.count("section clock", 64); vn > 0 {
				s.VC = make(vc.VC, vn)
				for k := range s.VC {
					s.VC[k] = d.i32()
				}
			}
			s.Intervals = d.intervalList()
			s.Diffs = d.diffList()
			if d.err != nil {
				break
			}
			m.Sections = append(m.Sections, s)
		}
	}
	if d.err != nil {
		return nil, d.err
	}
	if d.off != len(b) {
		return nil, fmt.Errorf("wire: %d trailing bytes", len(b)-d.off)
	}
	return m, nil
}

// intervalList decodes a count-prefixed interval block (the inverse of
// appendIntervalList). A sizing pass walks the block first — every count
// checked against the bytes actually present, as before — so the
// records, their clocks and their page lists are three exact
// allocations per block, whatever the record count; each record's VC
// and Pages are capacity-limited windows of the shared slabs.
func (d *decoder) intervalList() []IntervalRec {
	nivs := int(d.countItems("interval", 16))
	start := d.off
	nclock, npage := 0, 0
	for i := 0; i < nivs && d.err == nil; i++ {
		d.bytes(8) // proc, index: skipped, bounds-checked
		vn := int(d.count("interval clock", 64))
		d.bytes(4 * vn)
		pn := int(d.countItems("interval page", 4))
		d.bytes(4 * pn)
		nclock, npage = nclock+vn, npage+pn
	}
	if nivs == 0 || d.err != nil {
		return nil
	}
	d.off = start
	out := make([]IntervalRec, nivs)
	clocks := make(vc.VC, nclock)
	pages := make([]mem.PageID, npage)
	for i := range out {
		iv := &out[i]
		iv.Proc = mem.ProcID(d.i32())
		iv.Index = d.i32()
		vn := int(d.i32())
		iv.VC, clocks = clocks[:vn:vn], clocks[vn:]
		for k := range iv.VC {
			iv.VC[k] = d.i32()
		}
		pn := int(d.i32())
		iv.Pages, pages = pages[:pn:pn], pages[pn:]
		for k := range iv.Pages {
			iv.Pages[k] = mem.PageID(d.i32())
		}
	}
	return out
}

// diffList decodes a count-prefixed diff block (the inverse of
// appendDiffList).
func (d *decoder) diffList() []DiffRec {
	ndiffs := d.countItems("diff", 16)
	var out []DiffRec
	for i := int32(0); i < ndiffs && d.err == nil; i++ {
		var rec DiffRec
		rec.Page = mem.PageID(d.i32())
		rec.Proc = mem.ProcID(d.i32())
		rec.Index = d.i32()
		nruns := d.countItems("run", 8)
		runs := make([]page.Run, 0, nruns)
		data := make([][]byte, 0, nruns)
		for k := int32(0); k < nruns && d.err == nil; k++ {
			off := d.i32()
			length := d.i32()
			if d.err == nil && off < 0 {
				// A negative offset would index backwards when the diff is
				// applied; nothing legitimate encodes one.
				d.err = fmt.Errorf("wire: negative run offset %d", off)
			}
			payload := d.bytes(int(length))
			if d.err != nil {
				break
			}
			cp := make([]byte, length)
			copy(cp, payload)
			runs = append(runs, page.Run{Off: off, Len: length})
			data = append(data, cp)
		}
		if d.err == nil {
			df, err := page.DiffFromRuns(runs, data)
			if err != nil {
				d.err = fmt.Errorf("wire: %v", err)
				break
			}
			rec.Diff = df
			out = append(out, rec)
		}
	}
	return out
}

// --- batch frames ---
//
// A batch frame coalesces several messages for one destination into one
// physical frame: a standard 24-byte header with Kind KBatch and A = the
// sub-message count, followed by exactly A sub-frames, each a u32 length
// prefix and one encoded message. The sender's outbox builds batches
// append-style into one pooled buffer; the receiver's dispatch loop
// unpacks them with DecodeBatch before routing each sub-message.

// minBatchedBytes is the smallest possible sub-frame: the length prefix
// plus an encoded message with four empty section counts. It bounds the
// batch count a hostile header can claim, countItems-style.
const minBatchedBytes = 4 + headerBytes + 16

// AppendBatchHeader appends a batch frame header for count sub-messages.
func AppendBatchHeader(buf []byte, count int) []byte {
	var h [headerBytes]byte
	binary.LittleEndian.PutUint16(h[0:], uint16(KBatch))
	binary.LittleEndian.PutUint32(h[12:], uint32(count))
	return append(buf, h[:]...)
}

// IsBatch reports whether the payload is a batch frame.
func IsBatch(b []byte) bool {
	return len(b) >= 2 && Kind(binary.LittleEndian.Uint16(b)) == KBatch
}

// DecodeBatch parses a batch frame into its messages. It enforces the
// same hostility bounds as Decode: the claimed count must fit the bytes
// actually present before anything is allocated by it, every sub-frame
// must lie within the payload, nested batches are rejected (Decode
// refuses KBatch in message position), and trailing bytes are an error.
func DecodeBatch(b []byte) ([]*Msg, error) {
	if len(b) < headerBytes {
		return nil, fmt.Errorf("wire: batch frame of %d bytes shorter than header", len(b))
	}
	if !IsBatch(b) {
		return nil, fmt.Errorf("wire: frame of kind %v is not a batch", Kind(binary.LittleEndian.Uint16(b)))
	}
	// The fixed header fields a batch does not use must be zero, so an
	// accepted batch has exactly one encoding (the canonical-form
	// property the fuzzer checks).
	if binary.LittleEndian.Uint16(b[2:]) != 0 || binary.LittleEndian.Uint64(b[4:]) != 0 ||
		binary.LittleEndian.Uint32(b[16:]) != 0 || binary.LittleEndian.Uint32(b[20:]) != 0 {
		return nil, fmt.Errorf("wire: batch header carries non-zero reserved fields")
	}
	count := int32(binary.LittleEndian.Uint32(b[12:]))
	if count < 2 || int64(count)*minBatchedBytes > int64(len(b)-headerBytes) {
		// A batch of one would be a plain frame; a hostile count must
		// never size an allocation.
		return nil, fmt.Errorf("wire: implausible batch count %d for %d remaining bytes", count, len(b)-headerBytes)
	}
	msgs := make([]*Msg, 0, count)
	off := headerBytes
	for i := int32(0); i < count; i++ {
		if off+4 > len(b) {
			return nil, fmt.Errorf("wire: batch truncated at sub-message %d", i)
		}
		size := int32(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		if size < 0 || int64(off)+int64(size) > int64(len(b)) {
			return nil, fmt.Errorf("wire: implausible batched frame length %d at sub-message %d", size, i)
		}
		m, err := Decode(b[off : off+int(size)])
		if err != nil {
			return nil, fmt.Errorf("wire: batched message %d: %w", i, err)
		}
		msgs = append(msgs, m)
		off += int(size)
	}
	if off != len(b) {
		return nil, fmt.Errorf("wire: %d trailing bytes after batch", len(b)-off)
	}
	return msgs, nil
}

// --- compressed frames ---
//
// A compressed frame wraps one complete inner frame — a plain encoded
// message or a whole batch frame — as a flate stream behind a standard
// header: Kind KCompressed, A = the inner frame's exact length, every
// other fixed field zero (the same canonical-form rule as batches). The
// outbox compresses a built frame only when it is at least the
// configured threshold AND the compressed form is strictly smaller, so
// incompressible payloads (already-dense page data) ride uncompressed;
// the receiver's dispatch loop expands the frame back before routing.
// Transport byte counters see the compressed length, so the latency
// model charges post-compression bytes.

// MaxExpandedBytes bounds the inner-frame length a compressed header
// may claim — the decompression-bomb bound, aligned with the TCP
// transport's frame cap.
const MaxExpandedBytes = 64 << 20

var flateWriters = sync.Pool{New: func() any {
	w, err := flate.NewWriter(io.Discard, flate.BestSpeed)
	if err != nil {
		panic(err) // only fails for an invalid level constant
	}
	return w
}}

var flateReaders = sync.Pool{New: func() any {
	return flate.NewReader(bytes.NewReader(nil))
}}

// sliceWriter adapts an append-slice to io.Writer for the flate encoder.
type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

// IsCompressed reports whether the payload is a compressed frame.
func IsCompressed(b []byte) bool {
	return len(b) >= 2 && Kind(binary.LittleEndian.Uint16(b)) == KCompressed
}

// Compress wraps a complete encoded frame into a compressed frame in a
// pooled buffer. It returns (nil, false) — emitting nothing — when the
// compressed form would not be strictly smaller than the original, so a
// sender can always prefer the returned frame when ok. The caller keeps
// ownership of frame either way.
func Compress(frame []byte) (compressed []byte, ok bool) {
	sw := &sliceWriter{b: appendCompressedHeader(GetBuf(), len(frame))}
	zw := flateWriters.Get().(*flate.Writer)
	zw.Reset(sw)
	_, err := zw.Write(frame)
	if err == nil {
		err = zw.Close()
	}
	flateWriters.Put(zw)
	if err != nil || len(sw.b) >= len(frame) {
		// sliceWriter never fails, so err is theoretical; the size gate is
		// the common exit for dense payloads.
		PutBuf(sw.b)
		return nil, false
	}
	return sw.b, true
}

func appendCompressedHeader(buf []byte, innerLen int) []byte {
	var h [headerBytes]byte
	binary.LittleEndian.PutUint16(h[0:], uint16(KCompressed))
	binary.LittleEndian.PutUint32(h[12:], uint32(innerLen))
	return append(buf, h[:]...)
}

// Expand inflates a compressed frame back into its inner frame, in a
// pooled buffer the caller owns (recycle with PutBuf). It enforces the
// hostility bounds of the other decoders: the claimed inner length is
// capped (MaxExpandedBytes), the stream must inflate to exactly that
// length, allocation grows with bytes actually produced rather than the
// claim, reserved header fields must be zero, and a nested compressed
// frame is rejected.
func Expand(b []byte) ([]byte, error) {
	if len(b) < headerBytes {
		return nil, fmt.Errorf("wire: compressed frame of %d bytes shorter than header", len(b))
	}
	if !IsCompressed(b) {
		return nil, fmt.Errorf("wire: frame of kind %v is not compressed", Kind(binary.LittleEndian.Uint16(b)))
	}
	if binary.LittleEndian.Uint16(b[2:]) != 0 || binary.LittleEndian.Uint64(b[4:]) != 0 ||
		binary.LittleEndian.Uint32(b[16:]) != 0 || binary.LittleEndian.Uint32(b[20:]) != 0 {
		return nil, fmt.Errorf("wire: compressed header carries non-zero reserved fields")
	}
	want := int(binary.LittleEndian.Uint32(b[12:]))
	if want < headerBytes || want > MaxExpandedBytes {
		return nil, fmt.Errorf("wire: implausible compressed frame inner length %d", want)
	}
	zr := flateReaders.Get().(io.ReadCloser)
	defer flateReaders.Put(zr)
	if err := zr.(flate.Resetter).Reset(bytes.NewReader(b[headerBytes:]), nil); err != nil {
		return nil, fmt.Errorf("wire: compressed frame: %v", err)
	}
	out := GetBuf()
	for {
		if len(out) == cap(out) {
			out = append(out, 0)[:len(out)]
		}
		n, err := zr.Read(out[len(out):cap(out)])
		out = out[:len(out)+n]
		if len(out) > want {
			PutBuf(out)
			return nil, fmt.Errorf("wire: compressed frame inflates past its claimed %d bytes", want)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			PutBuf(out)
			return nil, fmt.Errorf("wire: compressed frame: %v", err)
		}
	}
	if len(out) != want {
		got := len(out)
		PutBuf(out)
		return nil, fmt.Errorf("wire: compressed frame inflates to %d bytes, header claims %d", got, want)
	}
	if IsCompressed(out) {
		PutBuf(out)
		return nil, fmt.Errorf("wire: nested compressed frame")
	}
	return out, nil
}
