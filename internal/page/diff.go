package page

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Wire-size model for diffs: the simulator's byte accounting. A modeled
// diff carries a 16-byte header (page id, creating interval, run count)
// plus, per run, an 8-byte (offset, length) descriptor and the run's
// payload bytes. The live runtime's encoding of the same fields is
// varint-coded and smaller (AppendWireBody); the payload term is equal.
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
// can later be recovered as a diff (current XOR twin, run-length encoded).
//
// Twins are reference-counted leases (pool.go): the lazy engine shares
// one twin between the page table and a deferred diff (the snapshot a
// not-yet-computed diff will be computed against), and the twin — header
// and buffer — returns to the size-classed pool at the last Release. A
// twin that is never released is simply reclaimed by the garbage
// collector — Release is a recycling contract, not a correctness one — but
// after releasing its reference a holder must not touch the twin again:
// the next capture reuses it.
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

// Diff is a run-length encoding of the difference between a twin and the
// current contents of a page: the set of word-aligned byte runs that
// changed, together with their new values. A diff is immutable once
// built.
//
// A diff has one payload representation: its wire body (the layout
// AppendWireBody documents), held in a single buffer, with each run's
// data a window of that buffer. MakeDiff, FlattenDiffs, DiffFromRuns and
// Clone lay the body out once, in a lease off the pool (pool.go) that
// brings the header, the buffer and the capacity of a run table and its
// windows: the diff is made with one reference, whoever reads it beyond
// the lock that pins its holder takes another (Retain), and the last
// Release returns the whole lease to the pool — Twin's contract, a
// recycling one. A diff without runs is the one shared empty diff, which
// owns nothing. The wire decoder fills a header its message keeps over the
// received frame's bytes instead (SetWire): such a diff borrows the frame,
// and its run table and payload windows the message's storage, counts
// nothing, and is reused for another diff once the message is released —
// Clone is the one way to keep it longer.
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
// in test mode the pool poisons both first. A no-op on a borrowed, empty or
// nil diff; releasing more often than retained panics.
func (d *Diff) Release() {
	if d != nil && d.owned {
		(*lease)(d).release()
	}
}

// maxFrameRuns is how many runs MakeDiff collects in its frame before the
// list spills to the heap; layOut then copies them into the lease's own
// table.
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
	return layOutPage(runs, b), nil
}

// layOutPage is layOut for runs whose payloads are their own bytes of src.
func layOutPage(runs []Run, src []byte) *Diff {
	return layOut(runs, func(k int) []byte { return src[runs[k].Off:runs[k].End()] })
}

// layOut builds the diff of runs, copying the run table into a lease off
// the pool and run k's bytes from payload(k) (which must be runs[k].Len
// long) into its wire body; the diff holds the lease with one reference.
func layOut(runs []Run, payload func(k int) []byte) *Diff {
	if len(runs) == 0 {
		return emptyDiff
	}
	size := uvarintLen(uint64(len(runs)))
	for _, r := range runs {
		size += uvarintLen(uint64(uint32(r.Off))) + uvarintLen(uint64(uint32(r.Len))) + int(r.Len)
	}
	l := getLease(size)
	body := binary.AppendUvarint(l.buf[:0], uint64(len(runs)))
	for k, r := range runs {
		body = binary.AppendUvarint(body, uint64(uint32(r.Off)))
		body = binary.AppendUvarint(body, uint64(uint32(r.Len)))
		body = append(body, payload(k)...)
	}
	l.buf, l.runs = body, append(l.runs, runs...)
	l.data = windows(l.data, body, l.runs)
	return (*Diff)(l)
}

// windows appends to data each run's payload as a capacity-limited window
// of body, which must be the wire body of runs in its canonical
// (minimal-varint) spelling — the only one either constructor admits.
func windows(data [][]byte, body []byte, runs []Run) [][]byte {
	pos := uvarintLen(uint64(len(runs)))
	for _, r := range runs {
		pos += uvarintLen(uint64(uint32(r.Off))) + uvarintLen(uint64(uint32(r.Len)))
		end := pos + int(r.Len)
		data = append(data, body[pos:end:end])
		pos = end
	}
	return data
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
func (d *Diff) Empty() bool { return len(d.runs) == 0 }

// NumRuns returns the number of runs in the diff.
func (d *Diff) NumRuns() int { return len(d.runs) }

// Runs returns the diff's runs; callers must not mutate the slice.
func (d *Diff) Runs() []Run { return d.runs }

// RunData returns the payload of run i; callers must not mutate it.
func (d *Diff) RunData(i int) []byte { return d.data[i] }

// PayloadBytes returns the number of modified bytes the diff carries.
func (d *Diff) PayloadBytes() int {
	total := 0
	for _, r := range d.runs {
		total += int(r.Len)
	}
	return total
}

// WireSize returns the size of the diff on the wire under the package's
// size model.
func (d *Diff) WireSize() int {
	return DiffHeaderBytes + len(d.runs)*RunHeaderBytes + d.PayloadBytes()
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

// AppendWireBody appends the diff's wire body to buf. This comment is
// the one definition of the layout: the run count, then per run its
// offset, its length and its payload bytes, every number an unsigned
// varint (a run of a 4 KiB page costs 2-4 descriptor bytes, not the
// model's RunHeaderBytes). The message encoder (internal/wire) appends
// these bytes and its decoder parses them; layOut writes them.
func (d *Diff) AppendWireBody(buf []byte) []byte {
	return append(buf, d.EnsureWireBody()...)
}

// WireBodySize returns the exact number of bytes AppendWireBody appends.
func (d *Diff) WireBodySize() int { return len(d.EnsureWireBody()) }

// uvarintLen returns the length of x's unsigned varint encoding.
func uvarintLen(x uint64) int { return (bits.Len64(x|1) + 6) / 7 }

// Clone returns a copy of the diff in a lease of its own, with one
// reference (the empty diff for one without runs). A decoded diff borrows
// the frame it arrived in, and its run table the message it was decoded
// into; whoever keeps one past the message's release keeps a Clone
// instead, which copies both.
func (d *Diff) Clone() *Diff {
	if len(d.runs) == 0 {
		return emptyDiff
	}
	l := getLease(len(d.buf))
	l.buf, l.runs = append(l.buf[:0], d.buf...), append(l.runs, d.runs...)
	l.data = windows(l.data, l.buf, l.runs)
	return (*Diff)(l)
}

// Apply merges the diff into the page contents in place. Later diffs
// applied on top overwrite earlier ones, which is how the happened-before
// ordering of modifications is realized (§4.3.3: diffs are applied in the
// order specified by hb1).
//
// Every run is validated before any byte moves, so a hostile diff — one
// whose runs a peer forged with negative or out-of-page coordinates — is
// rejected whole and leaves the page untouched rather than torn.
func (d *Diff) Apply(contents []byte) error {
	for _, r := range d.runs {
		if r.Off < 0 || r.Len < 0 || int(r.Off)+int(r.Len) > len(contents) {
			return fmt.Errorf("page: diff run [%d,%d) exceeds page size %d", r.Off, r.End(), len(contents))
		}
	}
	for i, r := range d.runs {
		copy(contents[r.Off:r.End()], d.data[i])
	}
	return nil
}

// Ranges returns the byte ranges the diff covers as a RangeSet.
func (d *Diff) Ranges() *RangeSet {
	s := &RangeSet{}
	for _, r := range d.runs {
		s.AddRun(r)
	}
	return s
}

// DiffFromRuns constructs a diff from explicit runs and payloads, copying
// both into a lease the diff owns. Each payload must match its
// run's length and declare a non-negative offset, so no constructor path
// can build a diff Apply must refuse.
func DiffFromRuns(runs []Run, data [][]byte) (*Diff, error) {
	if err := checkRuns(runs, data); err != nil {
		return nil, err
	}
	return layOut(runs, func(k int) []byte { return data[k] }), nil
}

// SetWire makes d, in place, the diff of an encoded wire body without
// copying it — the wire decoder's initializer, which fills a header the
// decoded message keeps. body must be the AppendWireBody layout of runs in
// its canonical (minimal-varint) spelling and data[k] the window of body
// holding run k's payload; the decoder has established both, and only the
// run table is re-checked here. The diff borrows body, runs and data: see
// Clone. A diff without runs borrows nothing. On an error d is left as it
// was. Whatever d held before is dropped, not released: SetWire is for a
// header that owns nothing.
func (d *Diff) SetWire(body []byte, runs []Run, data [][]byte) error {
	if err := checkRuns(runs, data); err != nil {
		return err
	}
	if len(runs) == 0 {
		*d = Diff{}
		return nil
	}
	*d = Diff{runs: runs, data: data, buf: body}
	return nil
}

func checkRuns(runs []Run, data [][]byte) error {
	if len(runs) != len(data) {
		return fmt.Errorf("page: %d runs but %d payloads", len(runs), len(data))
	}
	for i, r := range runs {
		if int(r.Len) != len(data[i]) {
			return fmt.Errorf("page: run %d declares %d bytes but payload has %d", i, r.Len, len(data[i]))
		}
		if r.Off < 0 {
			return fmt.Errorf("page: run %d has negative offset %d", i, r.Off)
		}
	}
	return nil
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
