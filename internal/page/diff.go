package page

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
)

// Wire-size model for diffs: the simulator's byte accounting. A modeled
// diff carries a 16-byte header (page id, creating interval, run count)
// plus, per run, an 8-byte (offset, length) descriptor and the run's
// payload bytes. The live runtime's encoding of the same fields is
// varint-coded and smaller (AppendBody); the payload term is equal.
const (
	// DiffHeaderBytes is the fixed per-diff header size on the wire.
	DiffHeaderBytes = 16
	// RunHeaderBytes is the per-run descriptor size on the wire.
	RunHeaderBytes = 8
	// WordSize is the diffing granularity: diffs are computed word by
	// word, as in Munin and TreadMarks, so sub-word writes dilate to a
	// whole word — and two writers of one word, under different locks or
	// none, can carry each other's stale bytes. internal/shm's allocator
	// keeps distinct handles out of one word for that reason.
	WordSize = 4
)

// Twin is a pristine copy of a page's contents, taken at the first write
// after the page became writable, so that the processor's modifications
// can later be recovered as a diff (current XOR twin, run-length encoded):
// what a DSM that detects writes by VM protection must keep. The runtime
// captures writes with a WriteLog instead; Twin and MakeDiff are the oracle
// its cut is tested against, and a benchmark baseline.
//
// Twins are reference-counted leases (pool.go): the twin — header and
// buffer — returns to the size-classed pool at the last Release. A twin
// that is never released is simply reclaimed by the garbage collector —
// Release is a recycling contract, not a correctness one — but after
// releasing its reference a holder must not touch the twin again: the next
// capture reuses it.
type Twin lease

// NewTwin captures a twin of the given page contents with one reference.
func NewTwin(contents []byte) *Twin {
	l := getLease(len(contents))
	copy(l.buf, contents)
	return (*Twin)(l)
}

// Len returns the page size the twin covers.
func (t *Twin) Len() int { return len(t.buf) }

// Data exposes the twin's bytes; callers must not mutate them.
func (t *Twin) Data() []byte { return t.buf }

// Retain adds a reference and returns t.
func (t *Twin) Retain() *Twin {
	t.refs.Add(1)
	return t
}

// Release drops one reference. The last release recycles the twin into
// the pool and returns true; the twin must not be used afterwards.
// Releasing more often than retained panics.
func (t *Twin) Release() bool { return (*lease)(t).release() }

// Diff is a run-length encoding of the difference between a page's
// contents before a window of writes and after it: the set of word-aligned
// byte runs that changed, together with their new values. A diff is
// immutable once built.
//
// A diff is its wire body (the layout AppendBody documents) and nothing
// else: one buffer, which Apply, NumRuns, AppendRuns, WireSize and Clone
// read. DiffOf, MakeDiff, FlattenDiffs, DiffFromRuns, ParseBody and Clone
// lay the body out once, in a lease off the pool (pool.go) that brings the
// header and the buffer: the diff is made with one reference, whoever reads
// it beyond the lock that pins its holder takes another (Retain), and the
// last Release returns the whole lease to the pool — Twin's contract, a
// recycling one. A diff without runs is the one shared empty diff, which
// owns nothing. The wire decoder fills a header its message keeps over the
// received frame's bytes instead (SetWire): such a diff borrows the frame,
// counts nothing, and is reused for another diff once the message is
// released — Clone is the one way to keep it longer.
type Diff lease

// emptyDiff is every made diff without runs: immutable, owning nothing.
var emptyDiff = &Diff{}

// Retain adds a reference to an owned diff and returns d.
func (d *Diff) Retain() *Diff {
	if d != nil && d.owned {
		d.refs.Add(1)
	}
	return d
}

// Release drops one reference; the last one recycles the diff, which must
// not be read afterwards — the next diff reuses its header and body, and
// in test mode the pool poisons the body first. A no-op on a borrowed,
// empty or nil diff; releasing more often than retained panics.
func (d *Diff) Release() {
	if d != nil && d.owned {
		(*lease)(d).release()
	}
}

// maxFrameRuns is how many runs MakeDiff collects in its frame before the
// list spills to the heap.
const maxFrameRuns = 64

// MakeDiff computes the diff between twin and current, which must be the
// same length. Comparison is word-granular: any word containing a changed
// byte is included whole, and adjacent changed words coalesce into runs.
// The scan is word-wide — chunked equality for the long unchanged
// stretches, 64-bit compares refined to the 4-byte word boundary.
func MakeDiff(twin *Twin, current []byte) (*Diff, error) {
	if len(current) != len(twin.buf) {
		return nil, fmt.Errorf("page: diff length mismatch: twin %d bytes, page %d bytes", len(twin.buf), len(current))
	}
	a, b := twin.buf, current
	n := len(current)
	var runBuf [maxFrameRuns]Run
	runs := runBuf[:0]
	i := 0
	for i < n {
		i = nextChangedWord(a, b, i, n)
		if i >= n {
			break
		}
		start := i
		i = nextUnchangedWord(a, b, i+WordSize, n)
		runs = append(runs, Run{Off: int32(start), Len: int32(i - start)})
	}
	return DiffOf(runs, b), nil
}

// DiffOf returns the diff of runs whose payloads are their own bytes of
// data — a WriteLog's Cut of data, say — laid out in a lease off the pool
// with one reference: the empty diff for no runs.
func DiffOf(runs []Run, data []byte) *Diff {
	return layOut(runs, func(k int) []byte { return data[runs[k].Off:runs[k].End()] })
}

// layOut builds the diff of runs, writing run k's bytes from payload(k)
// (which must be runs[k].Len long) into the wire body it lays out in a
// lease off the pool; the diff holds the lease with one reference.
func layOut(runs []Run, payload func(k int) []byte) *Diff {
	if len(runs) == 0 {
		return emptyDiff
	}
	l := getLease(BodySize(runs))
	l.buf = appendBody(l.buf[:0], runs, payload)
	return (*Diff)(l)
}

// BodySize returns the size of the wire body of runs (AppendBody's
// layout).
func BodySize(runs []Run) int {
	size := uvarintLen(uint64(len(runs)))
	for _, r := range runs {
		size += uvarintLen(uint64(uint32(r.Off))) + uvarintLen(uint64(uint32(r.Len))) + int(r.Len)
	}
	return size
}

// AppendBody appends to dst the wire body of runs whose payloads are their
// own bytes of data: BodySize(runs) bytes. This comment is the one
// definition of the layout: the run count, then per run its offset, its
// length and its payload bytes, every number an unsigned varint (a run of
// a 4 KiB page costs 2-4 descriptor bytes, not the model's
// RunHeaderBytes). The message encoder (internal/wire) appends these bytes
// and ScanBody parses them.
func AppendBody(dst []byte, runs []Run, data []byte) []byte {
	return appendBody(dst, runs, func(k int) []byte { return data[runs[k].Off:runs[k].End()] })
}

func appendBody(body []byte, runs []Run, payload func(k int) []byte) []byte {
	body = binary.AppendUvarint(body, uint64(len(runs)))
	for k, r := range runs {
		body = binary.AppendUvarint(body, uint64(uint32(r.Off)))
		body = binary.AppendUvarint(body, uint64(uint32(r.Len)))
		body = append(body, payload(k)...)
	}
	return body
}

// ScanBody parses the wire body that b begins with and returns its size
// in bytes and its run count: the one parser of the layout, which Apply,
// ParseBody and the message decoder all run. It holds a body to the
// bounds a received frame answers to — every varint minimal, an offset or
// a length a 32-bit field, a run count no more than the bytes after it
// allow at two bytes a run, an offset below 2^31 and every payload present
// — and names the first one broken. Runs may overlap, and need not
// be in order.
func ScanBody(b []byte) (size, runs int, err error) {
	size, runs, _, err = scanBody(b)
	return size, runs, err
}

// scanBody is ScanBody, also returning end, the furthest end of a run.
func scanBody(b []byte) (size, runs, end int, err error) {
	count, pos, err := bodyUvarint(b, 0, math.MaxUint64)
	if err != nil {
		return 0, 0, 0, err
	}
	if count > uint64(len(b)-pos)/2 { // a run is two bytes at least
		return 0, 0, 0, bodyErr("implausible run count %d for %d remaining bytes", count, len(b)-pos)
	}
	for range count {
		// bodyUvarint by hand, its short form inline: a call per number
		// costs more than the rest of the loop.
		off, at, ok := shortUvarint(b, pos)
		if !ok {
			if off, at, err = longUvarint(b, pos, math.MaxUint32); err != nil {
				return 0, 0, 0, err
			}
		}
		if off > math.MaxInt32 {
			// A negative offset would index backwards when the diff is
			// applied; nothing legitimate encodes one.
			return 0, 0, 0, bodyErr("negative run offset %d", int32(off))
		}
		n, payload, ok := shortUvarint(b, at)
		if !ok {
			if n, payload, err = longUvarint(b, at, math.MaxUint32); err != nil {
				return 0, 0, 0, err
			}
		}
		if n > uint64(len(b)-payload) {
			return 0, 0, 0, bodyErr("truncated payload at offset %d (want %d bytes)", payload, n)
		}
		pos = payload + int(n)
		end = max(end, int(off+n))
	}
	return pos, int(count), end, nil
}

// scanWhole is scanBody over a body that must end where b does.
func scanWhole(b []byte) (runs, end int, err error) {
	size, runs, end, err := scanBody(b)
	if err == nil && size != len(b) {
		err = bodyErr("%d bytes past its last run", len(b)-size)
	}
	return runs, end, err
}

// bodyUvarint reads the varint at b[pos:], which must be minimal and at
// most limit, and returns it with the position after it.
func bodyUvarint(b []byte, pos int, limit uint64) (uint64, int, error) {
	if x, next, ok := shortUvarint(b, pos); ok {
		return x, next, nil
	}
	return longUvarint(b, pos, limit)
}

// shortUvarint reads the one- or two-byte minimal varint at b[pos:] — a
// 4 KiB page's every run count, offset and length but a run past 16 KiB —
// and reports whether there was one; anything else is longUvarint's to
// read or refuse. Every limit bodyUvarint takes holds two bytes' worth.
func shortUvarint(b []byte, pos int) (x uint64, next int, ok bool) {
	if uint(pos) >= uint(len(b)) {
		return 0, pos, false
	}
	if c := b[pos]; c < 0x80 {
		return uint64(c), pos + 1, true
	}
	if uint(pos+1) >= uint(len(b)) || b[pos+1]-1 >= 0x7f { // 1..0x7f: a minimal second byte
		return 0, pos, false
	}
	return uint64(b[pos]&0x7f) | uint64(b[pos+1])<<7, pos + 2, true
}

func longUvarint(b []byte, pos int, limit uint64) (uint64, int, error) {
	x, k := binary.Uvarint(b[pos:])
	switch {
	case k == 0:
		return 0, 0, bodyErr("truncated at offset %d", len(b))
	case k < 0:
		return 0, 0, bodyErr("varint overflows 64 bits at offset %d", pos)
	case k != uvarintLen(x):
		return 0, 0, bodyErr("non-minimal varint at offset %d", pos)
	case x > limit:
		return 0, 0, bodyErr("varint %d overflows its 32-bit field", x)
	}
	return x, pos + k, nil
}

func bodyErr(format string, args ...any) error {
	return fmt.Errorf("page: malformed diff body: "+format, args...)
}

// nextRun reads the run at body[pos:] of a body scanBody accepted, and
// returns it with the position of its payload and the position after it:
// the walk Apply, AppendRuns and WireSize share.
func nextRun(body []byte, pos int) (r Run, payload, next int) {
	off, pos, ok := shortUvarint(body, pos)
	if !ok {
		off, pos = walkLong(body, pos)
	}
	n, pos, ok := shortUvarint(body, pos)
	if !ok {
		n, pos = walkLong(body, pos)
	}
	return Run{Off: int32(off), Len: int32(n)}, pos, pos + int(n)
}

// firstRun returns the run count of a body scanBody accepted and the
// position of its first run.
func firstRun(body []byte) (count, pos int) {
	n, k := binary.Uvarint(body)
	return int(n), k
}

// walkLong reads the varint at b[pos:] of a body scanBody accepted that
// shortUvarint did not.
func walkLong(b []byte, pos int) (uint64, int) {
	x, k := binary.Uvarint(b[pos:])
	return x, pos + k
}

// ParseBody returns the diff whose wire body is body, copied into a lease
// off the pool with one reference (the empty diff for one without runs):
// the way back from a body kept as bytes. Anything ScanBody refuses — bytes
// that were never a body, or were overwritten since — is an error, and so
// is anything after the last payload.
func ParseBody(body []byte) (*Diff, error) {
	if _, _, err := scanWhole(body); err != nil {
		return nil, err
	}
	var d Diff
	d.SetWire(body)
	return d.Clone(), nil
}

// nextChangedWord returns the smallest word-aligned offset >= i whose
// word differs between a and b, or n when the remainder is equal. Long
// equal stretches are skipped a chunk at a time via bytes.Equal (which
// the runtime implements word-wide), then 64-bit loads locate the first
// differing pair and refine it to the 4-byte word boundary. A short
// final word (n not word-aligned) counts as one word.
func nextChangedWord(a, b []byte, i, n int) int {
	const chunk = 128
	for i+chunk <= n && bytes.Equal(a[i:i+chunk], b[i:i+chunk]) {
		i += chunk
	}
	for i+8 <= n {
		x := binary.LittleEndian.Uint64(a[i:])
		y := binary.LittleEndian.Uint64(b[i:])
		if x != y {
			if uint32(x) == uint32(y) {
				return i + WordSize
			}
			return i
		}
		i += 8
	}
	for i+WordSize <= n {
		if binary.LittleEndian.Uint32(a[i:]) != binary.LittleEndian.Uint32(b[i:]) {
			return i
		}
		i += WordSize
	}
	if i < n && !bytes.Equal(a[i:n], b[i:n]) {
		return i
	}
	return n
}

// nextUnchangedWord returns the smallest word-aligned offset >= i whose
// word matches between a and b, or n when every remaining word (including
// a short tail) differs. Never returns past n, which is what lets
// MakeDiff's run loop drop the historical end-of-page clamp.
func nextUnchangedWord(a, b []byte, i, n int) int {
	for i+8 <= n {
		x := binary.LittleEndian.Uint64(a[i:])
		y := binary.LittleEndian.Uint64(b[i:])
		if uint32(x) == uint32(y) {
			return i
		}
		if x>>32 == y>>32 {
			return i + WordSize
		}
		i += 8
	}
	for i+WordSize <= n {
		if binary.LittleEndian.Uint32(a[i:]) == binary.LittleEndian.Uint32(b[i:]) {
			return i
		}
		i += WordSize
	}
	if i < n && bytes.Equal(a[i:n], b[i:n]) {
		return i
	}
	return n
}

// zeroWord is the granularity of the zero scan: whole-page transfers are
// zero-suppressed in aligned 8-byte words (a gap that short already pays
// for the run descriptor it costs), where diffs against a twin compare
// 4-byte words.
const zeroWord = 8

// zeros is what the zero scan compares long stretches against.
var zeros [1024]byte

// NextNonZeroRun returns the first maximal run [start, end) of non-zero
// words of b at or after offset i — the next run of b's diff against the
// all-zero page, the initial image every copy starts from. Words are
// aligned and 8 bytes long, a short final one counting whole; i must be a
// multiple of 8 or len(b) — 0, or the end of the previous run.
// When everything from i on is zero, start == end == len(b).
func NextNonZeroRun(b []byte, i int) (start, end int) {
	start = nextNonZeroWord(b, i)
	if start == len(b) {
		return start, start
	}
	return start, nextZeroWord(b, start+zeroWord)
}

// nextNonZeroWord returns the smallest word-aligned offset >= i whose word
// has a non-zero byte, or len(b): nextChangedWord against the zero page,
// without the zero page. Zero stretches go by in chunks, large then small
// (bytes.Equal is word-wide or better), and 64-bit loads find the word.
func nextNonZeroWord(b []byte, i int) int {
	n := len(b)
	for _, chunk := range [...]int{len(zeros), 64} {
		for i+chunk <= n && bytes.Equal(b[i:i+chunk], zeros[:chunk]) {
			i += chunk
		}
	}
	for ; i+zeroWord <= n; i += zeroWord {
		if binary.LittleEndian.Uint64(b[i:]) != 0 {
			return i
		}
	}
	if i < n && !bytes.Equal(b[i:n], zeros[:n-i]) {
		return i
	}
	return n
}

// nextZeroWord returns the smallest word-aligned offset >= i whose word is
// all zero, or len(b). A dense page walks this loop end to end — it is what
// a page ship pays over a plain copy — so it leaps to the next zero byte
// (bytes.IndexByte is vectorized; a zero word must hold one) and looks at
// words only for a stretch from there. The stretch doubles each time it
// finds none, which keeps data full of zero bytes but no zero words, small
// integers say, at one unrolled load per word.
func nextZeroWord(b []byte, i int) int {
	n := len(b)
	for stretch := 8 * zeroWord; i+zeroWord <= n; stretch *= 2 {
		j := bytes.IndexByte(b[i:], 0)
		if j < 0 {
			return n
		}
		i += j &^ (zeroWord - 1)
		stop := min(n, i+stretch)
		for ; i+4*zeroWord <= stop; i += 4 * zeroWord {
			w := b[i : i+4*zeroWord]
			if binary.LittleEndian.Uint64(w) == 0 || binary.LittleEndian.Uint64(w[8:]) == 0 ||
				binary.LittleEndian.Uint64(w[16:]) == 0 || binary.LittleEndian.Uint64(w[24:]) == 0 {
				break
			}
		}
		for ; i+zeroWord <= stop; i += zeroWord {
			if binary.LittleEndian.Uint64(b[i:]) == 0 {
				return i
			}
		}
	}
	if i < n && bytes.Equal(b[i:n], zeros[:n-i]) {
		return i
	}
	return n
}

// wordEqual reports whether the word starting at off matches between a and
// b, tolerating a short final word. Word-wide: one 32-bit compare for a
// full word, bytes.Equal for the tail.
func wordEqual(a, b []byte, off, n int) bool {
	if off+WordSize <= n {
		return binary.LittleEndian.Uint32(a[off:]) == binary.LittleEndian.Uint32(b[off:])
	}
	return bytes.Equal(a[off:n], b[off:n])
}

// Empty reports whether the diff carries no modifications.
func (d *Diff) Empty() bool { return d.buf == nil }

// NumRuns returns the number of runs in the diff.
func (d *Diff) NumRuns() int {
	n, _ := firstRun(d.EnsureWireBody())
	return n
}

// AppendRuns appends the diff's runs to dst, in body order. The diff must
// be one a constructor made or the decoder accepted, and not released.
func (d *Diff) AppendRuns(dst []Run) []Run {
	body := d.EnsureWireBody()
	count, pos := firstRun(body)
	for range count {
		var r Run
		r, _, pos = nextRun(body, pos)
		dst = append(dst, r)
	}
	return dst
}

// WireSize returns the size of the diff on the wire under the package's
// size model.
func (d *Diff) WireSize() int {
	body := d.EnsureWireBody()
	count, pos := firstRun(body)
	size := DiffHeaderBytes + count*RunHeaderBytes
	for range count {
		var r Run
		r, _, pos = nextRun(body, pos)
		size += int(r.Len)
	}
	return size
}

// emptyBody is the wire body of a diff without runs: a zero run count.
var emptyBody = []byte{0}

// EnsureWireBody returns the diff's wire body: everything the message
// encoder writes after a diff record's (page, proc, index) header. It is
// the diff's own buffer, not a copy; callers must not mutate it.
func (d *Diff) EnsureWireBody() []byte {
	if d.buf == nil {
		return emptyBody
	}
	return d.buf
}

// uvarintLen returns the length of x's unsigned varint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Clone returns a copy of the diff in a lease of its own, with one
// reference (the empty diff for one without runs). A decoded diff borrows
// the frame it arrived in; whoever keeps one past the message's release
// keeps a Clone instead.
func (d *Diff) Clone() *Diff {
	if d.buf == nil {
		return emptyDiff
	}
	l := getLease(len(d.buf))
	copy(l.buf, d.buf)
	return (*Diff)(l)
}

// Apply merges the diff into the page contents in place. Later diffs
// applied on top overwrite earlier ones, which is how the happened-before
// ordering of modifications is realized (§4.3.3: diffs are applied in the
// order specified by hb1).
//
// The whole body is parsed, and every run checked against the page, before
// any byte moves, so a hostile diff — a body a peer forged, or one read
// after its release — is rejected whole and leaves the page untouched
// rather than torn.
func (d *Diff) Apply(contents []byte) error {
	body := d.EnsureWireBody()
	count, end, err := scanWhole(body)
	if err != nil {
		return err
	}
	if end > len(contents) {
		return fmt.Errorf("page: diff run ending at %d exceeds page size %d", end, len(contents))
	}
	// The scan accepted the body: walk it again, copying each run.
	_, pos := firstRun(body)
	for range count {
		r, at, next := nextRun(body, pos)
		copy(contents[r.Off:], body[at:next])
		pos = next
	}
	return nil
}

// DiffFromRuns constructs a diff from explicit runs and payloads, copying
// both into a lease the diff owns. Each payload must match its run's
// length and declare a non-negative offset, so no constructor path can
// build a diff Apply must refuse for its body.
func DiffFromRuns(runs []Run, data [][]byte) (*Diff, error) {
	if len(runs) != len(data) {
		return nil, fmt.Errorf("page: %d runs but %d payloads", len(runs), len(data))
	}
	for i, r := range runs {
		if int(r.Len) != len(data[i]) {
			return nil, fmt.Errorf("page: run %d declares %d bytes but payload has %d", i, r.Len, len(data[i]))
		}
		if r.Off < 0 {
			return nil, fmt.Errorf("page: run %d has negative offset %d", i, r.Off)
		}
	}
	return layOut(runs, func(k int) []byte { return data[k] }), nil
}

// SetWire makes d, in place, the diff whose wire body is body, without
// copying it: the wire decoder's initializer, which fills a header the
// decoded message keeps over a body ScanBody accepted. The diff borrows
// body: see Clone. A diff without runs borrows nothing. Whatever d held
// before is dropped, not released: SetWire is for a header that owns
// nothing.
func (d *Diff) SetWire(body []byte) {
	if len(body) <= 1 { // the body of no runs
		*d = Diff{}
		return
	}
	*d = Diff{buf: body}
}

// EstimateDiffWireSize returns the wire size a diff would have for a
// modification pattern described by a RangeSet, dilating each run to word
// alignment and coalescing runs that become adjacent, the same way
// MakeDiff would. The trace-driven simulator uses this to account bytes
// without materializing page contents.
func EstimateDiffWireSize(mods *RangeSet) int {
	// The dilated runs start in the order the runs do, so each either
	// joins the one before it (overlapping or adjacent, as RangeSet.Add
	// coalesces) or starts a run of its own.
	runs, bytes := 0, 0
	var lo, hi int // the dilated run being built
	for _, r := range mods.Runs() {
		start := int(r.Off) &^ (WordSize - 1)
		end := (int(r.End()) + WordSize - 1) &^ (WordSize - 1)
		if runs > 0 && start <= hi {
			hi = max(hi, end)
			continue
		}
		bytes += hi - lo
		lo, hi = start, end
		runs++
	}
	bytes += hi - lo
	return DiffHeaderBytes + runs*RunHeaderBytes + bytes
}
