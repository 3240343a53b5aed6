package wire

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/mem"
	"repro/internal/page"
	"repro/internal/vc"
)

func mkDiff(t *testing.T, size int, writes ...int) *page.Diff {
	t.Helper()
	base := make([]byte, size)
	tw := page.NewTwin(base)
	for _, off := range writes {
		base[off] = 0xAB
	}
	d, err := page.MakeDiff(tw, base)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func roundTrip(t *testing.T, m *Msg) *Msg {
	t.Helper()
	got, err := Decode(m.EncodeAppend(nil))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return got
}

func TestHeaderRoundTrip(t *testing.T) {
	m := &Msg{Kind: KLockReq, Seq: 12345, A: 7, B: -3}
	got := roundTrip(t, m)
	if got.Kind != KLockReq || got.Seq != 12345 || got.A != 7 || got.B != -3 {
		t.Fatalf("header mismatch: %+v", got)
	}
}

func TestVCRoundTrip(t *testing.T) {
	m := &Msg{Kind: KLockGrant, A: 1, VC: vc.VC{0, -1, 5, 2}}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(got.VC, m.VC) {
		t.Fatalf("VC = %v, want %v", got.VC, m.VC)
	}
}

func TestNilVCStaysNil(t *testing.T) {
	m := &Msg{Kind: KPageReq, A: 3}
	if got := roundTrip(t, m); got.VC != nil {
		t.Fatalf("VC = %v, want nil", got.VC)
	}
}

func TestIntervalsRoundTrip(t *testing.T) {
	m := &Msg{
		Kind: KBarrierArrive,
		A:    0,
		B:    2,
		VC:   vc.VC{1, 2},
		Intervals: []IntervalRec{
			{Proc: 0, Index: 1, VC: vc.VC{1, -1}, Pages: []mem.PageID{3, 9}},
			{Proc: 1, Index: 0, VC: vc.VC{0, 0}, Pages: nil},
		},
	}
	got := roundTrip(t, m)
	if len(got.Intervals) != 2 {
		t.Fatalf("intervals = %d", len(got.Intervals))
	}
	if got.Intervals[0].Proc != 0 || got.Intervals[0].Index != 1 ||
		!reflect.DeepEqual(got.Intervals[0].VC, vc.VC{1, -1}) ||
		!reflect.DeepEqual(got.Intervals[0].Pages, []mem.PageID{3, 9}) {
		t.Fatalf("interval 0 = %+v", got.Intervals[0])
	}
	if len(got.Intervals[1].Pages) != 0 {
		t.Fatalf("interval 1 pages = %v", got.Intervals[1].Pages)
	}
}

// TestDecodedIntervalsShareSlabsSafely: a block's records are decoded
// into shared slabs — a fixed number of allocations however many
// records — yet stay independent: appending to one record's clock or
// page list must not reach into its neighbour's.
func TestDecodedIntervalsShareSlabsSafely(t *testing.T) {
	build := func(n int) []byte {
		m := &Msg{Kind: KLockGrant}
		for i := 0; i < n; i++ {
			m.Intervals = append(m.Intervals, IntervalRec{
				Proc: 1, Index: int32(i), VC: vc.VC{int32(i), 7}, Pages: []mem.PageID{mem.PageID(i), 9},
			})
		}
		return m.EncodeAppend(nil)
	}
	got, err := Decode(build(2))
	if err != nil {
		t.Fatal(err)
	}
	_ = append(got.Intervals[0].VC, 99)
	_ = append(got.Intervals[0].Pages, 99)
	if want := (IntervalRec{Proc: 1, Index: 1, VC: vc.VC{1, 7}, Pages: []mem.PageID{1, 9}}); !reflect.DeepEqual(got.Intervals[1], want) {
		t.Fatalf("appending to record 0 changed record 1: %+v", got.Intervals[1])
	}
	small, large := build(4), build(400)
	allocs := func(b []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := Decode(b); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(small), allocs(large); a != b {
		t.Errorf("decoding 4 records takes %v allocations, 400 records %v: want the same", a, b)
	}
}

func TestDiffsRoundTrip(t *testing.T) {
	d := mkDiff(t, 64, 4, 5, 20)
	m := &Msg{
		Kind:  KDiffResp,
		Diffs: []DiffRec{{Page: 5, Proc: 2, Index: 3, Diff: d}},
	}
	got := roundTrip(t, m)
	if len(got.Diffs) != 1 {
		t.Fatalf("diffs = %d", len(got.Diffs))
	}
	rd := got.Diffs[0]
	if rd.Page != 5 || rd.Proc != 2 || rd.Index != 3 {
		t.Fatalf("diff rec = %+v", rd)
	}
	// The decoded diff must reproduce the same modification.
	a := make([]byte, 64)
	b := make([]byte, 64)
	if err := d.Apply(a); err != nil {
		t.Fatal(err)
	}
	if err := rd.Diff.Apply(b); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("decoded diff applies differently")
	}
}

// Encoding a diff whose wire body is cached must produce bytes identical
// to the direct encode path — the cache is a pure reuse, not a format.
func TestCachedWireBodyEncodesIdentically(t *testing.T) {
	mk := func() *Msg {
		d := mkDiff(t, 64, 4, 5, 20, 33)
		return &Msg{Kind: KDiffResp, Seq: 9, A: 1,
			Diffs: []DiffRec{{Page: 5, Proc: 2, Index: 3, Diff: d}}}
	}
	fresh := mk()
	cached := mk()
	cached.Diffs[0].Diff.EnsureWireBody()
	a := fresh.EncodeAppend(nil)
	b := cached.EncodeAppend(nil)
	if !bytes.Equal(a, b) {
		t.Fatalf("cached-body encode differs:\n direct %x\n cached %x", a, b)
	}
	// And again from the same cached diff, to cover the repeat-serve path.
	if c := cached.EncodeAppend(nil); !bytes.Equal(b, c) {
		t.Fatal("second cached encode differs from first")
	}
}

func TestWantsAndDataRoundTrip(t *testing.T) {
	m := &Msg{
		Kind:  KDiffReq,
		Wants: []Want{{Page: 1, Proc: 2, Index: 3}, {Page: 4, Proc: 5, Index: 6}},
		Data:  []byte{1, 2, 3, 4, 5},
	}
	got := roundTrip(t, m)
	if !reflect.DeepEqual(got.Wants, m.Wants) {
		t.Fatalf("wants = %v", got.Wants)
	}
	if !reflect.DeepEqual(got.Data, m.Data) {
		t.Fatalf("data = %v", got.Data)
	}
}

func TestSectionsRoundTrip(t *testing.T) {
	d := mkDiff(t, 64, 3, 17)
	m := &Msg{
		Kind: KLockGrant, Seq: 44, A: 2,
		Sections: []Section{
			{Mode: 1, VC: vc.VC{5, 6},
				Intervals: []IntervalRec{{Proc: 1, Index: 4, VC: vc.VC{0, 4}, Pages: []mem.PageID{2, 3}}},
				Diffs:     []DiffRec{{Page: 2, Proc: 1, Index: 4, Diff: d}}},
			{Mode: 4}, // an engine with nothing to say still owns its slot
		},
	}
	got := roundTrip(t, m)
	if len(got.Sections) != 2 {
		t.Fatalf("sections = %d, want 2", len(got.Sections))
	}
	s := got.Sections[0]
	if s.Mode != 1 || !reflect.DeepEqual(s.VC, vc.VC{5, 6}) ||
		len(s.Intervals) != 1 || len(s.Diffs) != 1 {
		t.Fatalf("section 0 = %+v", s)
	}
	if !reflect.DeepEqual(s.Intervals[0].Pages, []mem.PageID{2, 3}) {
		t.Fatalf("section 0 interval pages = %v", s.Intervals[0].Pages)
	}
	if got.Sections[1].Mode != 4 || got.Sections[1].VC != nil ||
		got.Sections[1].Intervals != nil || got.Sections[1].Diffs != nil {
		t.Fatalf("empty section = %+v", got.Sections[1])
	}
	// Byte-level canonicality, including the empty trailing section.
	enc := m.EncodeAppend(nil)
	if !bytes.Equal(got.EncodeAppend(nil), enc) {
		t.Fatal("re-encoding a sectioned message changed bytes")
	}
	// A message without sections must not grow: the flag gates the block.
	plain := &Msg{Kind: KPageReq}
	if gotLen := len(plain.EncodeAppend(nil)); gotLen != 24+16 {
		t.Errorf("sectionless message = %d bytes, want 40", gotLen)
	}
	if rt := roundTrip(t, plain); rt.Sections != nil {
		t.Errorf("sectionless message decoded with Sections = %v", rt.Sections)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 10), // short header
		make([]byte, 24), // kind 0
		append((&Msg{Kind: KLockReq}).EncodeAppend(nil), 0xff), // trailing bytes
	}
	for i, b := range cases {
		if _, err := Decode(b); err == nil {
			t.Errorf("case %d: garbage accepted", i)
		}
	}
	// Truncations of a real message must all fail cleanly.
	full := (&Msg{
		Kind: KLockGrant, VC: vc.VC{1, 2},
		Intervals: []IntervalRec{{Proc: 0, Index: 0, VC: vc.VC{0, 0}, Pages: []mem.PageID{1}}},
	}).EncodeAppend(nil)
	for cut := 24; cut < len(full); cut++ {
		if _, err := Decode(full[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestKindString(t *testing.T) {
	if KLockGrant.String() != "lockgrant" {
		t.Error("kind name wrong")
	}
	if Kind(999).String() != "Kind(999)" {
		t.Error("unknown kind name wrong")
	}
}

func TestPropEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		m := &Msg{
			// KBatch and KCompressed are frame-level kinds Decode rejects.
			Kind: Kind(1 + r.Intn(int(KBatch)-1)),
			Seq:  r.Uint64(),
			A:    int32(r.Intn(1000) - 500),
			B:    int32(r.Intn(1000) - 500),
		}
		if r.Intn(2) == 0 {
			m.VC = make(vc.VC, n)
			for i := range m.VC {
				m.VC[i] = int32(r.Intn(10)) - 1
			}
		}
		for i := 0; i < r.Intn(3); i++ {
			iv := IntervalRec{Proc: mem.ProcID(r.Intn(n)), Index: int32(r.Intn(10))}
			iv.VC = make(vc.VC, n)
			for k := range iv.VC {
				iv.VC[k] = int32(r.Intn(10)) - 1
			}
			for k := 0; k < r.Intn(4); k++ {
				iv.Pages = append(iv.Pages, mem.PageID(r.Intn(32)))
			}
			m.Intervals = append(m.Intervals, iv)
		}
		for i := 0; i < r.Intn(3); i++ {
			m.Wants = append(m.Wants, Want{
				Page: mem.PageID(r.Intn(32)), Proc: mem.ProcID(r.Intn(n)), Index: int32(r.Intn(10)),
			})
		}
		if r.Intn(2) == 0 {
			m.Data = make([]byte, r.Intn(256))
			r.Read(m.Data)
		}
		got, err := Decode(m.EncodeAppend(nil))
		if err != nil {
			return false
		}
		if got.Kind != m.Kind || got.Seq != m.Seq || got.A != m.A || got.B != m.B {
			return false
		}
		if !reflect.DeepEqual(got.VC, m.VC) {
			return false
		}
		if len(got.Intervals) != len(m.Intervals) || len(got.Wants) != len(m.Wants) {
			return false
		}
		for i := range m.Intervals {
			if !reflect.DeepEqual(got.Intervals[i], m.Intervals[i]) &&
				!(len(m.Intervals[i].Pages) == 0 && len(got.Intervals[i].Pages) == 0 &&
					got.Intervals[i].Proc == m.Intervals[i].Proc &&
					got.Intervals[i].Index == m.Intervals[i].Index &&
					reflect.DeepEqual(got.Intervals[i].VC, m.Intervals[i].VC)) {
				return false
			}
		}
		if !reflect.DeepEqual(got.Wants, m.Wants) {
			return false
		}
		if len(m.Data) == 0 {
			return got.Data == nil || len(got.Data) == 0
		}
		return reflect.DeepEqual(got.Data, m.Data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestHeaderSizeMatchesModel(t *testing.T) {
	// An empty message carries exactly the modeled header plus the four
	// empty section counts (16 bytes): the runtime's fixed framing.
	m := &Msg{Kind: KPageReq}
	if got := len(m.EncodeAppend(nil)); got != 24+16 {
		t.Errorf("empty message = %d bytes, want 40", got)
	}
}

// appendBatch builds a batch frame the way the runtime's outbox does:
// header, then each message length-prefixed, all appended into one
// buffer.
func appendBatch(buf []byte, msgs ...*Msg) []byte {
	buf = AppendBatchHeader(buf, len(msgs))
	for _, m := range msgs {
		start := len(buf)
		buf = append(buf, 0, 0, 0, 0)
		buf = m.EncodeAppend(buf)
		binary.LittleEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	}
	return buf
}

func TestBatchRoundTrip(t *testing.T) {
	msgs := []*Msg{
		{Kind: KLockReq, Seq: 1, A: 3, B: 2},
		{Kind: KDiffReq, Seq: 2, A: 1, Wants: []Want{{Page: 4, Proc: 1, Index: 2}}},
		{Kind: KPageResp, Seq: 3, A: 9, VC: vc.VC{1, 2}, Data: []byte{5, 6, 7}},
	}
	b := appendBatch(GetBuf(), msgs...)
	if !IsBatch(b) {
		t.Fatal("batch frame not recognized")
	}
	got, err := DecodeBatch(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(msgs) {
		t.Fatalf("decoded %d messages, want %d", len(got), len(msgs))
	}
	for i, m := range msgs {
		if !bytes.Equal(got[i].EncodeAppend(nil), m.EncodeAppend(nil)) {
			t.Errorf("batched message %d changed across the codec", i)
		}
	}
	PutBuf(b)
}

func TestEncodeAppendComposes(t *testing.T) {
	// Appending into a shared buffer yields exactly the standalone
	// encodings back to back — the property the outbox batch builder and
	// the pooled single-frame path both rely on.
	a := &Msg{Kind: KLockReq, Seq: 1, A: 2, B: 3}
	b := &Msg{Kind: KInval, Seq: 4, A: 5}
	ae, be := a.EncodeAppend(nil), b.EncodeAppend(nil)
	joint := b.EncodeAppend(a.EncodeAppend(GetBuf()))
	if !bytes.Equal(joint, append(append([]byte(nil), ae...), be...)) {
		t.Fatal("EncodeAppend into a shared buffer diverges from standalone encodings")
	}
	PutBuf(joint)
}

func TestBufPoolRecycles(t *testing.T) {
	b := GetBuf()
	if len(b) != 0 {
		t.Fatalf("GetBuf returned %d-byte buffer, want empty", len(b))
	}
	b = append(b, 1, 2, 3)
	PutBuf(b)
	// Oversized and zero-capacity buffers must be dropped, not pooled.
	PutBuf(nil)
	PutBuf(make([]byte, maxPooledBuf+1))
	if got := GetBuf(); len(got) != 0 {
		t.Fatalf("pooled buffer came back %d bytes long", len(got))
	}
}
