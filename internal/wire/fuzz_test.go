package wire

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/page"
	"repro/internal/testenv"
	"repro/internal/vc"
)

// Decode hardening: frames now arrive from real sockets (the TCP
// transport), so every malformed prefix a peer — or anything that dials
// the listener — can produce must fail cleanly: an error, never a panic,
// and never an allocation sized by a hostile count.

// sampleMsgs covers every payload section for seeding and table tests.
func sampleMsgs() []*Msg {
	diff, err := page.DiffFromRuns(
		[]page.Run{{Off: 0, Len: 4}, {Off: 64, Len: 2}},
		[][]byte{{1, 2, 3, 4}, {9, 9}},
	)
	if err != nil {
		panic(err)
	}
	return []*Msg{
		{Kind: KLockReq, Seq: 7, A: 3, B: 1},
		{Kind: KLockGrant, Seq: 8, A: 3, VC: vc.VC{1, 2, 3, 4},
			Intervals: []IntervalRec{
				{Proc: 2, Index: 5, VC: vc.VC{0, 0, 5, 0}, Pages: []mem.PageID{1, 2, 9}},
				{Proc: 0, Index: 1, VC: vc.VC{2, 0, 0, 0}, Pages: nil},
			}},
		{Kind: KDiffReq, Seq: 9, A: 1, Wants: []Want{{Page: 4, Proc: 1, Index: 2}, {Page: 4, Proc: 1, Index: 7, Span: 55}}},
		{Kind: KDiffResp, Seq: 9, Diffs: []DiffRec{{Page: 4, Proc: 1, Index: 2, Diff: diff}}},
		{Kind: KPageResp, Seq: 10, A: 4, Data: bytes.Repeat([]byte{0xab}, 128)},
		{Kind: KBarrierArrive, Seq: 11, A: 0, B: 2, VC: vc.VC{9, 9, 9, 9}},
		// Mode-tagged sections: a lock grant carrying two payloads side
		// by side (the runtime sends one; the codec takes any number).
		{Kind: KLockGrant, Seq: 12, A: 3, Sections: []Section{
			{Mode: 0, VC: vc.VC{1, 2, 3, 4},
				Intervals: []IntervalRec{{Proc: 1, Index: 2, VC: vc.VC{0, 2, 0, 0}, Pages: []mem.PageID{7}}}},
			{Mode: 1, VC: vc.VC{4, 3, 2, 1},
				Diffs: []DiffRec{{Page: 7, Proc: 1, Index: 2, Diff: diff}}},
		}},
		{Kind: KBarrierArrive, Seq: 13, A: 0, B: 1, Data: []byte{1, 2, 3},
			Sections: []Section{{Mode: 4}}},
	}
}

// uv concatenates the unsigned varint encodings of vals; cat joins byte
// strings. Hostile frames below are spelled out field by field with them.
func uv(vals ...uint64) []byte {
	var b []byte
	for _, v := range vals {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

func cat(parts ...[]byte) []byte {
	var b []byte
	for _, p := range parts {
		b = append(b, p...)
	}
	return b
}

// Retired kind bytes a peer may still send, each refused as unknown: the
// first-touch hand-off's own ready/go pair (its rounds ride KGCReady /
// KGCDone now), the one a batch frame of several messages opened with, and
// the one flate-compressed frames opened with.
const (
	retiredHandOffReady   Kind = 22
	retiredHandOffGo      Kind = 23
	retiredBatchKind      Kind = 24
	retiredCompressedKind Kind = 25
)

// oldBatchRaw spells a frame of the retired batch format — byte 24, a
// count, then each payload behind its length — claiming count messages, so
// that the tests can hold the decoder to refusing it.
func oldBatchRaw(count int, subs ...[]byte) []byte {
	buf := cat([]byte{byte(retiredBatchKind)}, uv(uint64(count)))
	for _, sub := range subs {
		buf = append(binary.AppendUvarint(buf, uint64(len(sub))), sub...)
	}
	return buf
}

// oldBatch is the retired batch frame an outbox built of msgs.
func oldBatch(msgs ...*Msg) []byte {
	subs := make([][]byte, len(msgs))
	for i, m := range msgs {
		subs[i] = m.EncodeAppend(nil)
	}
	return oldBatchRaw(len(msgs), subs...)
}

// hdr is a message header: kind, presence byte, then seq 8, a 3, b 0.
func hdr(k Kind, present byte) []byte { return []byte{byte(k), present, 8, 3, 0} }

// dataFrame is a page response whose Data block announces n expanded
// bytes over the given body; run is one data run, descriptor and bytes.
func dataFrame(n uint64, body ...[]byte) []byte {
	return cat(hdr(KPageResp, hasData), uv(n), cat(body...))
}

// expandingRun is a grant whose one run has n records of 64-entry clocks,
// each record two bytes: a mask that keeps every predicted entry, and no
// pages.
func expandingRun(n int) []byte {
	return cat(hdr(KLockGrant, hasIntervals), uv(1, 0, 0, uint64(n), maxClock), make([]byte, 2*n))
}

func run(off, size uint64) []byte {
	return cat(uv(off, size), bytes.Repeat([]byte{0xab}, int(size)))
}

// malformedData is every way a Data block can lie: about its expanded
// length (the one number that sizes an allocation no frame length vouches
// for), its run count, or where its runs land. TestDecodeMalformed holds
// each to its error; FuzzDecode starts from them.
var malformedData = []struct {
	name string
	in   []byte
	want string // error substring
}{
	{"hostile data count", dataFrame(1<<31-1, make([]byte, 8)), "implausible data length"},
	{"data length of 2^31 in ten bytes", dataFrame(1 << 31), "implausible data length"},
	{"data length one past the limit", dataFrame(MaxDataBytes+1, uv(0)), "implausible data length"},
	{"hostile data run count", dataFrame(64, uv(1<<24), make([]byte, 16)), "implausible data run count"},
	{"data run count one past the bytes", dataFrame(64, uv(3), make([]byte, 3*minDataRunBytes-1)), "implausible data run count"},
	{"data run past the length", dataFrame(64, uv(1), run(60, 8)), "past the announced 64 bytes"},
	{"data run wrapping 32 bits", dataFrame(64, uv(1, 0xffffffff, 0xffffffff)), "past the announced 64 bytes"},
	{"descending data runs", dataFrame(64, uv(2), run(32, 8), run(0, 8)), "overlaps or precedes"},
	{"overlapping data runs", dataFrame(64, uv(2), run(0, 16), run(8, 16)), "overlaps or precedes"},
	{"empty data run", dataFrame(64, uv(1, 8, 0), []byte{0xab}), "empty data run"},
	{"truncated data run", dataFrame(64, uv(1, 0, 16), make([]byte, 8)), "truncated payload"},
	{"non-minimal data run offset", dataFrame(64, uv(1), []byte{0x88, 0x00}, uv(8), make([]byte, 8)), "non-minimal varint"},
	{"non-minimal data length", cat(hdr(KPageResp, hasData), []byte{0xc0, 0x00}, uv(0)), "non-minimal varint"},
	{"trailing bytes after data", dataFrame(64, uv(1), run(8, 8), []byte{0xff}), "trailing"},
	{"presence bit over empty data", dataFrame(0), "empty data block"},
}

// TestDecodeMalformed: the table of hostile, truncated and non-canonical
// inputs the socket path must reject with a descriptive error. An
// accepted frame has exactly one encoding, so everything the encoder
// would have spelled differently is refused too.
func TestDecodeMalformed(t *testing.T) {
	grant := sampleMsgs()[1].EncodeAppend(nil)
	secGrant := sampleMsgs()[6].EncodeAppend(nil)
	setBits := func(b []byte, bits byte) []byte {
		c := append([]byte(nil), b...)
		c[1] |= bits
		return c
	}
	// One section, mode 0, with the given presence byte and body.
	section := func(present byte, body ...[]byte) []byte {
		return cat(hdr(KLockGrant, hasSections), uv(1, 0), []byte{present}, cat(body...))
	}
	// One diff record (page 4, proc 1, index 2) with the given body.
	diff := func(body ...uint64) []byte {
		return cat(hdr(KDiffResp, hasDiffs), uv(1, 4, 1, 2), uv(body...))
	}

	cases := []struct {
		name string
		in   []byte
		want string // error substring
	}{
		{"empty", nil, "shorter than header"},
		{"short header", make([]byte, minMsgBytes-1), "shorter than header"},
		{"kind zero", make([]byte, minMsgBytes), "unknown message kind"},
		{"kind out of range", []byte{0xe7, 0, 0, 0, 0, 0}, "unknown message kind"},
		{"truncated after header", grant[:minMsgBytes], "truncated"},
		{"truncated mid-clock", grant[:minMsgBytes+2], "truncated"},
		{"truncated mid-intervals", grant[:len(grant)-3], "truncated"},
		{"trailing garbage", append(append([]byte(nil), grant...), 0xff), "trailing"},
		// Hostile counts: each claims far more items than the frame holds,
		// at the smallest size an item can have.
		{"hostile clock count", cat(hdr(KLockGrant, hasVC), uv(1<<30)), "implausible clock count"},
		{"negative clock count", cat(hdr(KLockGrant, hasVC), uv(0xffffffff)), "implausible clock count"},
		{"over-long clock", cat(hdr(KLockGrant, hasVC), uv(maxClock+1), make([]byte, maxClock+1)), "implausible clock count"},
		{"hostile interval run count", cat(hdr(KLockGrant, hasIntervals), uv(1<<24), make([]byte, 64)), "implausible interval run count"},
		{"interval run count one past the bytes", cat(hdr(KLockGrant, hasIntervals), uv(3), make([]byte, 3*minIntervalRunBytes-1)), "implausible interval run count"},
		{"hostile interval count", cat(hdr(KLockGrant, hasIntervals), uv(1, 0, 0, 1<<24), make([]byte, 64)), "implausible interval count"},
		{"interval count one past the bytes", cat(hdr(KLockGrant, hasIntervals), uv(1, 0, 0, 3), make([]byte, 3*minIntervalBytes-1)), "implausible interval count"},
		{"hostile interval clock count", cat(hdr(KLockGrant, hasIntervals), uv(1, 0, 0, 1, maxClock+1), make([]byte, 128)), "implausible interval clock count"},
		// A record of two bytes expands to a clock of 64 entries: the clock
		// entries a block expands to answer to their own bound.
		{"interval block past the expansion bound", expandingRun(maxIntervalWords/maxClock + 1), "implausible interval block"},
		// Interval runs: one encoding per list. A run is maximal and not
		// empty, it ends at an index an int32 holds, and a mask bit marks an
		// entry that differs from its prediction, inside the clock.
		{"empty interval run", cat(hdr(KLockGrant, hasIntervals), uv(1, 1, 0, 0, 0), uv(0, 0)), "empty interval run"},
		{"interval runs that could merge", cat(hdr(KLockGrant, hasIntervals), uv(2, 1, 4, 1, 0, 0, 0, 1, 5, 1, 0, 0, 0)), "continues the run before it"},
		{"interval run past the last index", cat(hdr(KLockGrant, hasIntervals), uv(1, 1, 0x7fffffff, 2, 0, 0, 0, 0, 0)), "past index"},
		{"interval mask bit over a zero delta", cat(hdr(KLockGrant, hasIntervals), uv(1, 1, 4, 1, 2, 0b01, 0, 0)), "over a zero delta"},
		{"interval mask bit past the clock", cat(hdr(KLockGrant, hasIntervals), uv(1, 1, 4, 1, 2, 0b100, 0, 0)), "past its 2 entries"},
		{"hostile diff count", cat(hdr(KDiffResp, hasDiffs), uv(1<<24), make([]byte, 64)), "implausible diff count"},
		{"diff count one past the bytes", cat(hdr(KDiffResp, hasDiffs), uv(3), make([]byte, 3*minDiffBytes-1)), "implausible diff count"},
		{"hostile want count", cat(hdr(KDiffReq, hasWants), uv(1<<24), make([]byte, 64)), "implausible want count"},
		{"want count one past the bytes", cat(hdr(KDiffReq, hasWants), uv(3), make([]byte, 3*minWantBytes-1)), "implausible want count"},
		// A want's span (the low bit of the processor field says one follows)
		// is positive and ends at an index an int32 holds.
		{"want span of zero", cat(hdr(KDiffReq, hasWants), uv(1, 4, 1<<1|1, 2, 0)), "with span 0"},
		{"negative want span", cat(hdr(KDiffReq, hasWants), uv(1, 4, 1<<1|1, 2, 0xffffffff)), "with span -1"},
		{"want range overflows its index", cat(hdr(KDiffReq, hasWants), uv(1, 4, 1<<1|1, 0x7fffffff, 1)), "with span 1"},
		{"want processor overflows 32 bits", cat(hdr(KDiffReq, hasWants), uv(1, 4, 1<<33, 2)), "overflows its 32-bit field"},
		{"hostile run count", diff(1 << 26), "implausible run count"},
		{"run count one past the bytes", cat(diff(3), make([]byte, 3*minRunBytes-1)), "implausible run count"},
		{"negative run offset", diff(1, 0x80000000, 0), "negative run offset"},
		{"negative run length", diff(1, 0, 0x80000000), "truncated payload"},
		// Presence bits: unknown ones, and known ones over nothing.
		{"unknown flag bits", setBits(grant, 0x40), "unknown presence bits"},
		{"presence bit over empty intervals", cat(hdr(KLockGrant, hasIntervals), uv(0)), "empty interval run block"},
		{"presence bit over empty diffs", cat(hdr(KDiffResp, hasDiffs), uv(0)), "empty diff block"},
		{"presence bit over empty wants", cat(hdr(KDiffReq, hasWants), uv(0)), "empty want block"},
		{"presence bit over empty section clock", section(hasVC, uv(0)), "empty section clock"},
		{"unknown section presence bits", section(hasWants), "unknown section presence bits"},
		// Varints: one encoding per value, and no value wider than its field.
		{"non-minimal seq", []byte{byte(KLockReq), 0, 0x88, 0x00, 3, 0}, "non-minimal varint"},
		{"non-minimal count", cat(hdr(KLockGrant, hasVC), []byte{0x82, 0x00, 1, 1}), "non-minimal varint"},
		{"a overflows 32 bits", cat([]byte{byte(KLockReq), 0, 8}, uv(1<<32, 0)), "overflows its 32-bit field"},
		{"clock entry overflows 32 bits", cat(hdr(KLockGrant, hasVC), uv(1, 1<<32)), "overflows its 32-bit field"},
		{"seq overflows 64 bits", cat([]byte{byte(KLockReq), 0}, bytes.Repeat([]byte{0xff}, 10), []byte{0, 0}), "overflows 64 bits"},
		{"seq of eleven bytes", cat([]byte{byte(KLockReq), 0}, bytes.Repeat([]byte{0x80}, 10), []byte{1, 0, 0}), "overflows 64 bits"},
		// Mode-tagged sections: hostile section counts, out-of-range mode
		// ids, truncations inside a section.
		{"hostile section count", cat(hdr(KLockGrant, hasSections), uv(1<<28), make([]byte, 16)), "implausible section count"},
		{"negative section count", cat(hdr(KLockGrant, hasSections), uv(0xffffffff), make([]byte, 16)), "implausible section count"},
		{"section count one past the bytes", cat(hdr(KLockGrant, hasSections), uv(3), make([]byte, 3*minSectionBytes-1)), "implausible section count"},
		{"hostile section mode", cat(hdr(KLockGrant, hasSections), uv(1, 4096), []byte{0}), "implausible section mode"},
		{"negative section mode", cat(hdr(KLockGrant, hasSections), uv(1, 0x80000000), []byte{0}), "implausible section mode"},
		{"hostile section clock count", section(hasVC, uv(1<<20)), "implausible clock count"},
		{"truncated mid-section", secGrant[:len(secGrant)-5], "truncated"},
		{"section flag without payload", hdr(KLockGrant, hasSections), "truncated"},
		{"trailing bytes after sections", append(append([]byte(nil), secGrant...), 0xcc), "trailing"},
		// Retired kind bytes are unknown kinds like any other: the
		// hand-off's ready/go pair, the batch frame's and the compressed
		// frame's.
		{"retired hand-off ready", cat(hdr(retiredHandOffReady, 0)), "unknown message kind 22"},
		{"retired hand-off go", cat(hdr(retiredHandOffGo, 0)), "unknown message kind 23"},
		{"batch in message position", cat(hdr(retiredBatchKind, 0)), "unknown message kind 24"},
		{"compressed frame in message position", cat(hdr(retiredCompressedKind, 0)), "unknown message kind 25"},
	}
	for _, tc := range append(cases, malformedData...) {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Decode(tc.in)
			if err == nil {
				t.Fatalf("decoded %v from malformed input", m.Kind)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestDecodeBatchMalformed: byte 24 opened a batch frame of several
// messages, a format since retired. Every batch frame the old decoder
// refused, and the sane one it accepted, is now refused at its first byte
// as an unknown kind, before a count or length in it is read; a plain
// message (the old table's "not a batch") decodes as itself.
func TestDecodeBatchMalformed(t *testing.T) {
	lockReq := sampleMsgs()[0].EncodeAppend(nil)
	diffReq := sampleMsgs()[2].EncodeAppend(nil)
	sane := oldBatch(sampleMsgs()[0], sampleMsgs()[2])
	// The sane batch after its two header bytes, for splicing lies in.
	body := sane[2:]
	batch := byte(retiredBatchKind)
	const refused = "unknown message kind 24"

	cases := []struct {
		name string
		in   []byte
		want string // error substring; "" for a frame that decodes
	}{
		{"short header", sane[:1], "shorter than header"},
		{"not a batch", lockReq, ""},
		{"count zero", cat([]byte{batch}, uv(0), body), refused},
		{"count one", cat([]byte{batch}, uv(1), body), refused},
		{"hostile count", cat([]byte{batch}, uv(1<<30), body), refused},
		{"negative count", cat([]byte{batch}, uv(0xffffffff), body), refused},
		{"count one past the bytes", cat([]byte{batch}, uv(3), make([]byte, 3*(1+minMsgBytes)-1)), refused},
		{"non-minimal count", cat([]byte{batch, 0x82, 0x00}, body), refused},
		{"truncated sub-frame", sane[:len(sane)-3], refused},
		{"sub-frame length overrun", cat(oldBatchRaw(2, lockReq), uv(uint64(len(diffReq))+1), diffReq), refused},
		{"negative sub-frame length", cat([]byte{batch}, uv(2, 0xfffffff0), body), refused},
		{"non-minimal sub-frame length", cat([]byte{batch}, uv(2), []byte{0x80 | byte(len(lockReq)), 0x00}, body[1:]), refused},
		{"garbage sub-message", oldBatchRaw(2, bytes.Repeat([]byte{0xe7}, len(lockReq)), diffReq), refused},
		{"nested batch", oldBatchRaw(2, lockReq, sane), refused},
		{"trailing bytes", append(append([]byte(nil), sane...), 0xff), refused},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := Decode(tc.in)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("a plain message is refused: %v", err)
			case tc.want == "":
				m.Release()
			case err == nil:
				t.Fatalf("decoded %v from a retired batch frame", m.Kind)
			case !strings.Contains(err.Error(), tc.want):
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
	if _, err := Decode(sane); err == nil || !strings.Contains(err.Error(), refused) {
		t.Errorf("Decode(sane batch) = %v, want %q", err, refused)
	}
}

// TestDecodeHostileCountAllocationGate: a tiny frame claiming 2^24 interval
// pages must be rejected by the remaining-bytes bound, not by attempting
// the allocation (this fails fast under the fuzzer's memory limits too) —
// and one claiming 2^31 expanded data bytes by the bound that stands in
// for it.
func TestDecodeHostileCountAllocationGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	b := cat(hdr(KLockGrant, hasIntervals),
		uv(1),             // one run
		uv(0, 0, 1, 0, 0), // proc, index, one record, clock len, mask
		uv(1<<24-1),       // hostile page count
		make([]byte, 15))
	if len(b) > 30 {
		t.Fatalf("hostile frame is %d bytes, want at most 30", len(b))
	}
	_, err := Decode(b)
	if err == nil || !strings.Contains(err.Error(), "implausible interval page count") {
		t.Fatalf("err = %v, want implausible interval page count", err)
	}

	// A Data block is zero-suppressed, so ten bytes can announce any
	// expanded length and the bytes remaining bound nothing: 2^31 must be
	// refused by MaxDataBytes before the buffer is allocated, and the
	// largest admitted length costs that one buffer.
	allocated := func(frame []byte) (least uint64, err error) {
		least = ^uint64(0)
		// A collection that starts inside the window counts its own
		// bookkeeping (the first one starts its mark workers): run one
		// before, so the window holds the decode alone. On a loaded machine
		// the process-wide count still picks up a few KB of the runtime's
		// now and then, so the decode's bill is the least of three windows.
		for range 3 {
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			var m *Msg
			m, err = Decode(frame)
			runtime.ReadMemStats(&after)
			m.Release()
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		return least, err
	}
	hostile := dataFrame(1 << 31)
	if len(hostile) != 10 {
		t.Fatalf("hostile data frame is %d bytes, want 10", len(hostile))
	}
	got, err := allocated(hostile)
	if err == nil || !strings.Contains(err.Error(), "implausible data length") {
		t.Fatalf("err = %v, want implausible data length", err)
	}
	if got > 4096 {
		t.Errorf("refusing the frame allocated %d bytes", got)
	}
	got, err = allocated(dataFrame(MaxDataBytes, uv(0)))
	if err != nil {
		t.Fatalf("a zero block of the largest admitted length: %v", err)
	}
	if got < MaxDataBytes || got >= 2*MaxDataBytes {
		t.Errorf("decoding %d zero bytes allocated %d, want the one buffer", MaxDataBytes, got)
	}
}

// TestEncodeDecodeRoundTrip: every sample survives the codec unchanged
// at the byte level (the canonical-encoding property the fuzzer checks
// for arbitrary accepted inputs).
func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, m := range sampleMsgs() {
		enc := m.EncodeAppend(nil)
		dec, err := Decode(enc)
		if err != nil {
			t.Fatalf("%v: %v", m.Kind, err)
		}
		if !bytes.Equal(dec.EncodeAppend(nil), enc) {
			t.Errorf("%v: re-encoding changed bytes", m.Kind)
		}
	}
}

// FuzzDecode: Decode must never panic, anything it accepts must
// re-encode into bytes Decode accepts again (a stable codec: accepted
// input implies a canonical representation), and the diffs it returns
// must stay inside the windows of the frame they borrow.
func FuzzDecode(f *testing.F) {
	for _, m := range sampleMsgs() {
		f.Add(m.EncodeAppend(nil))
	}
	// Truncations and corruptions of a rich message as extra seeds.
	grant := sampleMsgs()[1].EncodeAppend(nil)
	f.Add(grant[:minMsgBytes])
	f.Add(grant[:len(grant)/2])
	f.Add(append(append([]byte(nil), grant...), 0))
	// Frames of the retired batch format, which the body below holds to
	// being refused: a sane two-message batch, a nested one and one
	// claiming 2^30 messages.
	sane := oldBatch(sampleMsgs()[0], sampleMsgs()[3])
	f.Add(sane)
	f.Add(oldBatchRaw(2, sampleMsgs()[0].EncodeAppend(nil), sane))
	f.Add(cat(oldBatchRaw(1<<30), sane[2:]))
	// A dense page-sized payload plus damaged variants: the multi-byte
	// length prefixes and a run as long as the block.
	big := (&Msg{Kind: KPageResp, Seq: 12, A: 1, Data: bytes.Repeat([]byte{0x5a}, 1024)}).EncodeAppend(nil)
	f.Add(big)
	f.Add(big[:len(big)-3])
	flipped := append([]byte(nil), big...)
	flipped[5] ^= 0x40
	f.Add(flipped)
	// Non-canonical spellings the decoder must refuse: a padded varint,
	// a presence bit over an empty block, a record whose clock does not
	// sit under the enclosing one (the zig-zag path).
	f.Add([]byte{byte(KLockReq), 0, 0x88, 0x00, 3, 0})
	f.Add(cat(hdr(KLockGrant, hasIntervals), uv(0)))
	// Data blocks: a sparse page, a run split finer than the encoder splits
	// it (accepted; re-encodes merged), and every lie about length and runs.
	f.Add(dataFrame(64, uv(2), run(8, 8), run(40, 24)))
	f.Add(dataFrame(64, uv(2), run(8, 8), run(16, 8)))
	for _, tc := range malformedData {
		f.Add(tc.in)
	}
	f.Add((&Msg{Kind: KLockGrant, Seq: 14, VC: vc.VC{1, 1},
		Intervals: []IntervalRec{{Proc: 1, Index: 9, VC: vc.VC{-1, 9}, Pages: []mem.PageID{9, 2}}}}).EncodeAppend(nil))
	// An EU release merged for one destination, four pages in one update.
	diff := sampleMsgs()[3].Diffs[0].Diff
	f.Add((&Msg{Kind: KUpdate, Seq: 15, Diffs: []DiffRec{
		{Page: 4, Proc: 1, Diff: diff}, {Page: 5, Proc: 1, Index: 2, Diff: diff},
		{Page: 6, Proc: 1, Diff: diff}, {Page: 7, Proc: 1, Diff: diff}}}).EncodeAppend(nil))
	// Interval runs: a maximal one, a run split in two (refused), a record
	// whose own entry is not its index, and runs without a base clock, their
	// first records' entries coded against -1.
	clock := vc.VC{900, 412, 655, 130}
	f.Add((&Msg{Kind: KLockGrant, Seq: 16, Sections: []Section{{VC: clock,
		Intervals: notices(2, 650, 6, vc.VC{880, 400, 0, 128})}}}).EncodeAppend(nil))
	f.Add(cat(hdr(KLockGrant, hasIntervals), uv(2, 1, 4, 1, 0, 0, 0, 1, 5, 1, 0, 0, 0)))
	f.Add((&Msg{Kind: KLockGrant, Seq: 17, VC: vc.VC{4, 8},
		Intervals: []IntervalRec{{Proc: 1, Index: 5, VC: vc.VC{3, 7}, Pages: []mem.PageID{2}}}}).EncodeAppend(nil))
	f.Add((&Msg{Kind: KBarrierArrive, Seq: 18, Intervals: append(notices(1, 9, 3, vc.VC{0, 0}),
		notices(0, 4, 2, vc.VC{0, 9})...)}).EncodeAppend(nil))
	// Invalidations: SC's of one page, an EI home's of a copy's four pages
	// in one round, and a retired batch byte claiming two messages in four
	// bytes of garbage.
	f.Add((&Msg{Kind: KInval, Seq: 19, Wants: []Want{{Page: 300}}}).EncodeAppend(nil))
	f.Add((&Msg{Kind: KInval, Seq: 20, Wants: []Want{{Page: 300}, {Page: 301}, {Page: 302}, {Page: 303}}}).EncodeAppend(nil))
	f.Add([]byte{byte(retiredBatchKind), 2, 0xde, 0xad, 0xbe, 0xef})
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Decode(b)
		if err != nil {
			return // rejected: fine, as long as it did not panic
		}
		if !m.Kind.Known() {
			t.Fatalf("accepted a frame of retired or unknown kind %d", b[0])
		}
		// Decoded diffs borrow b, each window capacity-limited to itself:
		// growing one must reallocate, never write into the frame.
		pristine := append([]byte(nil), b...)
		grow := func(recs []DiffRec) {
			for _, rec := range recs {
				_ = append(rec.Diff.EnsureWireBody(), 0xEE)
				for i := 0; i < rec.Diff.NumRuns(); i++ {
					_ = append(rec.Diff.RunData(i), 0xEE)
				}
			}
		}
		grow(m.Diffs)
		for _, s := range m.Sections {
			grow(s.Diffs)
		}
		if !bytes.Equal(b, pristine) {
			t.Fatal("a borrowed slice reaches outside its window of the frame")
		}
		// Released, the shells go back to the free list, so later inputs
		// decode into the slabs these leave behind.
		enc := m.EncodeAppend(nil)
		if m.Data == nil && !bytes.Equal(enc, b) {
			// One encoding per frame: only a data body split finer than the
			// encoder splits it may re-encode differently.
			t.Fatalf("accepted a frame the encoder spells differently:\n got % x\nwant % x", b, enc)
		}
		m.Release()
		m2, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decoding own encoding failed: %v", err)
		}
		if !bytes.Equal(m2.EncodeAppend(nil), enc) {
			t.Fatal("encoding is not a fixed point")
		}
		m2.Release()
	})
}
