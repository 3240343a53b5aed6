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
// KGCDone now) and the one flate-compressed frames opened with.
const (
	retiredHandOffReady   Kind = 22
	retiredHandOffGo      Kind = 23
	retiredCompressedKind Kind = 25
)

// hdr is a message header: kind, presence byte, then seq 8, a 3, b 0.
func hdr(k Kind, present byte) []byte { return []byte{byte(k), present, 8, 3, 0} }

// dataFrame is a page response whose Data block announces n expanded
// bytes over the given body; run is one data run, descriptor and bytes.
func dataFrame(n uint64, body ...[]byte) []byte {
	return cat(hdr(KPageResp, hasData), uv(n), cat(body...))
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
	if KBatch != 24 {
		t.Fatalf("KBatch is byte %d, want 24: retiring a kind must not move the batch frame's first byte", KBatch)
	}
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
		{"hostile interval count", cat(hdr(KLockGrant, hasIntervals), uv(1<<24), make([]byte, 64)), "implausible interval count"},
		{"interval count one past the bytes", cat(hdr(KLockGrant, hasIntervals), uv(3), make([]byte, 3*minIntervalBytes-1)), "implausible interval count"},
		{"hostile interval clock count", cat(hdr(KLockGrant, hasIntervals), uv(1, 0, 0, maxClock+1), make([]byte, 128)), "implausible interval clock count"},
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
		{"presence bit over empty intervals", cat(hdr(KLockGrant, hasIntervals), uv(0)), "empty interval block"},
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
		// Frame kinds are not messages.
		{"batch in message position", cat(hdr(KBatch, 0)), "batch frame in message position"},
		// The retired compressed-frame kind byte (the one after KBatch) is
		// an unknown kind like any other.
		{"compressed frame in message position", cat(hdr(retiredCompressedKind, 0)), "unknown message kind 25"},
		// So are the hand-off's retired ready/go bytes, below KBatch's.
		{"retired hand-off ready", cat(hdr(retiredHandOffReady, 0)), "unknown message kind 22"},
		{"retired hand-off go", cat(hdr(retiredHandOffGo, 0)), "unknown message kind 23"},
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

// TestDecodeBatchMalformed: the hostile-input table for batch frames —
// every way a batch header or sub-frame can lie about its contents must
// be rejected with a descriptive error, before any allocation sized by
// the lie.
func TestDecodeBatchMalformed(t *testing.T) {
	lockReq := sampleMsgs()[0].EncodeAppend(nil)
	diffReq := sampleMsgs()[2].EncodeAppend(nil)
	sane := appendBatch(nil, sampleMsgs()[0], sampleMsgs()[2])
	nested := appendBatchRaw(2, lockReq, sane)
	// The sane batch after its two header bytes, for splicing lies in.
	body := sane[2:]

	cases := []struct {
		name string
		in   []byte
		want string
	}{
		{"short header", sane[:1], "shorter than header"},
		{"not a batch", lockReq, "not a batch"},
		{"count zero", cat([]byte{byte(KBatch)}, uv(0), body), "implausible batch count"},
		{"count one", cat([]byte{byte(KBatch)}, uv(1), body), "implausible batch count"},
		// The hostile header: 2^30 claimed sub-messages in a tiny frame
		// must fail the remaining-bytes bound, never size an allocation.
		{"hostile count", cat([]byte{byte(KBatch)}, uv(1<<30), body), "implausible batch count"},
		{"negative count", cat([]byte{byte(KBatch)}, uv(0xffffffff), body), "implausible batch count"},
		{"count one past the bytes", cat([]byte{byte(KBatch)}, uv(3), make([]byte, 3*minBatchedBytes-1)), "implausible batch count"},
		{"non-minimal count", cat([]byte{byte(KBatch), 0x82, 0x00}, body), "non-minimal varint"},
		{"truncated sub-frame", sane[:len(sane)-3], "implausible batched frame length"},
		{"sub-frame length overrun", cat(appendBatchRaw(2, lockReq), uv(uint64(len(diffReq))+1), diffReq), "implausible batched frame length"},
		{"negative sub-frame length", cat([]byte{byte(KBatch)}, uv(2, 0xfffffff0), body), "implausible batched frame length"},
		{"non-minimal sub-frame length", cat([]byte{byte(KBatch)}, uv(2), []byte{0x80 | byte(len(lockReq)), 0x00}, body[1:]), "implausible batched frame length"},
		{"garbage sub-message", appendBatchRaw(2, bytes.Repeat([]byte{0xe7}, len(lockReq)), diffReq), "batched message 0"},
		{"nested batch", nested, "batch frame in message position"},
		{"trailing bytes", append(append([]byte(nil), sane...), 0xff), "trailing bytes after batch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			msgs, err := DecodeBatch(tc.in)
			if err == nil {
				t.Fatalf("decoded %d messages from malformed batch", len(msgs))
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
	// Decode must also refuse a whole batch frame in message position.
	if _, err := Decode(sane); err == nil || !strings.Contains(err.Error(), "batch frame in message position") {
		t.Errorf("Decode(batch) = %v, want batch-in-message-position error", err)
	}
}

// appendBatchRaw frames pre-encoded payloads as a batch claiming count
// sub-messages without re-encoding them (for building hostile inputs).
func appendBatchRaw(count int, subs ...[]byte) []byte {
	buf := AppendBatchHeader(nil, count)
	for _, sub := range subs {
		buf = append(binary.AppendUvarint(buf, uint64(len(sub))), sub...)
	}
	return buf
}

// TestDecodeHostileCountAllocationGate: a tiny frame claiming 2^24 interval
// pages must be rejected by the remaining-bytes bound, not by attempting
// the allocation (this fails fast under the fuzzer's memory limits too) —
// and one claiming 2^31 expanded data bytes by the bound that stands in
// for it.
func TestDecodeHostileCountAllocationGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	b := cat(hdr(KLockGrant, hasIntervals),
		uv(1),       // one interval
		uv(0, 0, 0), // proc, index, clock len
		uv(1<<24-1), // hostile page count
		make([]byte, 16))
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
	// Batch frames: a sane two-message batch and damaged variants, so the
	// fuzzer explores the batch framing too.
	batch := appendBatch(nil, sampleMsgs()[0], sampleMsgs()[3])
	f.Add(batch)
	f.Add(batch[:len(batch)-2])
	f.Add(append(append([]byte(nil), batch...), 0xfe))
	// A dense page-sized payload, alone and inside a batch, plus damaged
	// variants: the multi-byte length prefixes and a run as long as the
	// block.
	big := &Msg{Kind: KPageResp, Seq: 12, A: 1, Data: bytes.Repeat([]byte{0x5a}, 1024)}
	for _, frame := range [][]byte{big.EncodeAppend(nil), appendBatch(nil, sampleMsgs()[0], big)} {
		f.Add(frame)
		f.Add(frame[:len(frame)-3])
		flipped := append([]byte(nil), frame...)
		flipped[5] ^= 0x40
		f.Add(flipped)
	}
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
	f.Fuzz(func(t *testing.T, b []byte) {
		if IsBatch(b) {
			// Batch frames go through DecodeBatch (the dispatch loop's
			// routing): it must never panic, and anything it accepts must
			// rebuild into a batch it accepts again with a stable encoding
			// (the same canonical-form property as single frames).
			msgs, err := DecodeBatch(b)
			if err != nil {
				return
			}
			rebuild := func(ms []*Msg) []byte { return appendBatch(nil, ms...) }
			re := rebuild(msgs)
			msgs2, err := DecodeBatch(re)
			if err != nil {
				t.Fatalf("re-decoding own batch encoding failed: %v", err)
			}
			if !bytes.Equal(rebuild(msgs2), re) {
				t.Fatal("batch encoding is not a fixed point")
			}
			return
		}
		m, err := Decode(b)
		if err != nil {
			return // rejected: fine, as long as it did not panic
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
