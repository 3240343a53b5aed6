package wire

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/framebuf"
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

// TestNilVCStaysNil: the VC and Sections presence bits tell an absent
// block from an empty one, so nil and empty both survive the codec.
func TestNilVCStaysNil(t *testing.T) {
	m := &Msg{Kind: KPageReq, A: 3}
	if got := roundTrip(t, m); got.VC != nil || got.Sections != nil {
		t.Fatalf("VC = %v, Sections = %v, want nil", got.VC, got.Sections)
	}
	m = &Msg{Kind: KPageReq, A: 3, VC: vc.VC{}, Sections: []Section{}}
	if got := roundTrip(t, m); got.VC == nil || len(got.VC) != 0 || got.Sections == nil || len(got.Sections) != 0 {
		t.Fatalf("VC = %#v, Sections = %#v, want empty and non-nil", got.VC, got.Sections)
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

// drainShells empties the shell free list, so the next Decode and Release
// cycle the one shell a test looks at.
func drainShells() {
	for {
		select {
		case <-freeMsgs:
		default:
			return
		}
	}
}

// TestDecodedIntervalsShareSlabsSafely: a block's records are decoded
// into shared slabs yet stay independent — appending to one record's clock
// or page list must not reach into its neighbour's, a list that repeats the
// one before it included, which is its predecessor's window — and the slabs
// are the pool's: a released block's slabs are the ones the next block of
// its size decodes into, whatever the size, and a block of repeated lists
// takes one list's room of the page slab.
func TestDecodedIntervalsShareSlabsSafely(t *testing.T) {
	got, err := Decode(intervalBlock(2, false))
	if err != nil {
		t.Fatal(err)
	}
	_ = append(got.Intervals[0].VC, 99)
	_ = append(got.Intervals[0].Pages, 99)
	if want := (IntervalRec{Proc: 1, Index: 1, VC: vc.VC{1, 7}, Pages: []mem.PageID{1, 9}}); !reflect.DeepEqual(got.Intervals[1], want) {
		t.Fatalf("appending to record 0 changed record 1: %+v", got.Intervals[1])
	}
	got.Release()

	got, err = Decode(intervalBlock(3, true))
	if err != nil {
		t.Fatal(err)
	}
	ivs := got.Intervals
	if &ivs[1].Pages[0] != &ivs[0].Pages[0] || &ivs[2].Pages[0] != &ivs[0].Pages[0] {
		t.Errorf("repeated page lists are copies, want their predecessor's window")
	}
	_ = append(ivs[1].Pages, 99)
	if want := (IntervalRec{Proc: 1, Index: 2, VC: vc.VC{2, 7}, Pages: []mem.PageID{5, 9}}); !reflect.DeepEqual(ivs[2], want) {
		t.Fatalf("appending to a repeated list changed the record after it: %+v", ivs[2])
	}
	got.Release()

	drainShells()
	decode := func(n int, repeat bool) *Msg {
		m, err := Decode(intervalBlock(n, repeat))
		if err != nil || len(m.Intervals) != n || m.Intervals[n-1].Index != int32(n-1) {
			t.Fatalf("decoded %d records, err %v", len(m.Intervals), err)
		}
		return m
	}
	m := decode(300, true)
	if pages := m.kept.slabs.pages; len(pages) != 1 || len(pages[0]) != 2 {
		t.Errorf("a block of 300 repeated two-page lists took page slabs %d long, want one of 2", len(pages[0]))
	}
	m.Release()
	for _, n := range []int{2, 73, 74, 2000} {
		m := decode(n, false)
		recs, clocks, pages := &m.Intervals[0], &m.Intervals[0].VC[0], &m.Intervals[0].Pages[0]
		m.Release()
		if len(m.kept.slabs.recs) != 0 || len(m.kept.slabs.words) != 0 || len(m.kept.slabs.pages) != 0 {
			t.Errorf("a released block of %d records left its shell holding slabs", n)
		}
		m = decode(n, false)
		if &m.Intervals[0] != recs || &m.Intervals[0].VC[0] != clocks || &m.Intervals[0].Pages[0] != pages {
			t.Errorf("a block of %d records did not decode into the slabs the one before it gave back", n)
		}
		m.Release()
	}
}

// intervalBlock is a grant carrying one run of n two-page interval
// records; with repeat they all wrote pages 5 and 9, so every list after
// the first repeats the one before it.
func intervalBlock(n int, repeat bool) []byte {
	m := &Msg{Kind: KLockGrant}
	for i := 0; i < n; i++ {
		pages := []mem.PageID{mem.PageID(i), 9}
		if repeat {
			pages[0] = 5
		}
		m.Intervals = append(m.Intervals, IntervalRec{Proc: 1, Index: int32(i), VC: vc.VC{int32(i), 7}, Pages: pages})
	}
	return m.EncodeAppend(nil)
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

// TestNotHeldRoundTrip: a not-held record keeps its mark and its name
// through the codec, next to a held one, and decodes with an empty diff.
func TestNotHeldRoundTrip(t *testing.T) {
	d := mkDiff(t, 64, 4, 5, 20)
	got := roundTrip(t, &Msg{Kind: KDiffResp, Diffs: []DiffRec{
		{Page: 5, Proc: 2, Index: 3, Diff: d},
		{Page: 5, Proc: 1, Index: 9, NotHeld: true},
	}})
	if len(got.Diffs) != 2 {
		t.Fatalf("diffs = %d", len(got.Diffs))
	}
	if r := got.Diffs[0]; r.NotHeld || r.Diff.NumRuns() == 0 {
		t.Errorf("held record decoded as %+v", r)
	}
	if r := got.Diffs[1]; !r.NotHeld || r.Page != 5 || r.Proc != 1 || r.Index != 9 || r.Diff.NumRuns() != 0 {
		t.Errorf("not-held record decoded as %+v", r)
	}
}

// TestDecodedDiffsShareSlabsSafely: a diff block's headers are decoded
// into a per-block slab, and each diff's body is a window of the frame,
// capacity-limited to its record: appending to one must not write into the
// frame behind it, where the next record lies.
func TestDecodedDiffsShareSlabsSafely(t *testing.T) {
	frame := sparseDiffResp(t, 3)
	pristine := append([]byte(nil), frame...)
	got, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	first, second := got.Diffs[0].Diff.EnsureWireBody(), got.Diffs[1].Diff.EnsureWireBody()
	if cap(first) != len(first) || &first[0] != &frame[len(frame)-len(second)-3-len(first)] || &second[0] != &frame[len(frame)-len(second)] {
		t.Fatalf("the bodies are not capacity-limited windows of the frame, each its record's")
	}
	_ = append(first, 0xEE)
	if !bytes.Equal(frame, pristine) {
		t.Fatalf("appending to a borrowed window wrote into the frame:\n was %x\n now %x", pristine, frame)
	}
	for i, rec := range got.Diffs {
		target := make([]byte, 4096)
		if err := rec.Diff.Apply(target); err != nil || target[0] != 0xAB || target[8] != 0xAB || target[16] != 0xAB {
			t.Fatalf("diff %d of the block applies wrongly: %v, bytes 0, 8, 16 = %#x", i, err, []byte{target[0], target[8], target[16]})
		}
	}
}

// sparseDiffResp is a diff response of two records sharing one 4 KiB diff
// made of the given number of one-word runs, one every other word.
func sparseDiffResp(t *testing.T, runs int) []byte {
	var writes []int
	for i := 0; i < runs; i++ {
		writes = append(writes, 8*i) // every other word: one run each
	}
	d := mkDiff(t, 4096, writes...)
	if d.NumRuns() != runs {
		t.Fatalf("built %d runs, want %d", d.NumRuns(), runs)
	}
	return (&Msg{Kind: KDiffResp, Diffs: []DiffRec{
		{Page: 1, Proc: 2, Index: 3, Diff: d}, {Page: 2, Proc: 2, Index: 3, Diff: d},
	}}).EncodeAppend(nil)
}

// TestDecodeBorrowsFrame pins the codec's ownership rule for diffs: a
// decoded diff's body is the frame's own bytes, and a Clone — the one way
// to keep a diff past its frame — survives the frame's poisoned release
// while the borrowing diff reads the poison, which is no body at all.
func TestDecodeBorrowsFrame(t *testing.T) {
	resp, cur := denseDiffResp(t)
	size := len(cur)
	frame := resp.EncodeAppend(framebuf.Get())
	m, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Diffs) == 0 {
		t.Fatal("decoded diff response carries no diffs")
	}
	got := m.Diffs[0].Diff
	if runs := got.AppendRuns(nil); len(runs) != 1 || runs[0] != (page.Run{Off: 0, Len: int32(size)}) {
		t.Fatalf("decoded runs %v, want one of %d bytes", runs, size)
	}
	// The body is the frame's tail; the diff must be those very bytes.
	if body := got.EnsureWireBody(); &body[len(body)-1] != &frame[len(frame)-1] {
		t.Error("decoded body does not alias the frame")
	}

	clone := got.Clone()
	framebuf.SetPoison(true)
	defer framebuf.SetPoison(false)
	framebuf.Put(frame) // the release: poisoned, then back on the free list
	page1, page2 := make([]byte, size), make([]byte, size)
	if err := clone.Apply(page1); err != nil || !bytes.Equal(page1, cur) {
		t.Errorf("clone does not survive its frame's release (err %v)", err)
	}
	if err := got.Apply(page2); err == nil || !strings.Contains(err.Error(), "malformed diff body") || !bytes.Equal(page2, make([]byte, size)) {
		t.Errorf("borrowing diff still applies after a poisoned release (err %v)", err)
	}
	if enc := (&Msg{Kind: KDiffResp, Seq: 43, Diffs: []DiffRec{{Page: 3, Proc: 1, Index: 7, Diff: clone}}}).EncodeAppend(nil); !bytes.Equal(enc, resp.EncodeAppend(nil)) {
		t.Error("clone re-encodes differently from the original diff")
	}
}

// denseDiffResp is a diff response carrying one 4 KiB run, and the page
// the run rebuilds.
func denseDiffResp(t *testing.T) (*Msg, []byte) {
	const size = 4096
	base, cur := make([]byte, size), make([]byte, size)
	for i := range cur {
		cur[i] = byte(i) | 1 // every word changes: one 4 KiB run
	}
	d, err := page.MakeDiff(page.NewTwin(base), cur)
	if err != nil {
		t.Fatal(err)
	}
	return &Msg{Kind: KDiffResp, Seq: 43, Diffs: []DiffRec{{Page: 3, Proc: 1, Index: 7, Diff: d}}}, cur
}

// A diff is its wire body: the encoder appends exactly those bytes, a
// decoded diff — whose body is the received frame's — and its Clone
// re-encode to the identical frame, and encoding twice changes nothing.
func TestCachedWireBodyEncodesIdentically(t *testing.T) {
	d := mkDiff(t, 64, 4, 5, 20, 33)
	m := &Msg{Kind: KDiffResp, Seq: 9, A: 1,
		Diffs: []DiffRec{{Page: 5, Proc: 2, Index: 3, Diff: d}}}
	a := m.EncodeAppend(nil)
	if body := d.EnsureWireBody(); !bytes.HasSuffix(a, body) {
		t.Fatalf("frame does not end in the diff's %d-byte wire body:\n frame %x\n body  %x", len(body), a, body)
	}
	if b := m.EncodeAppend(nil); !bytes.Equal(a, b) {
		t.Fatal("second encode differs from first")
	}
	dec, err := Decode(a)
	if err != nil {
		t.Fatal(err)
	}
	if b := dec.EncodeAppend(nil); !bytes.Equal(a, b) {
		t.Fatalf("borrowing diff re-encodes differently:\n sent %x\n back %x", a, b)
	}
	dec.Diffs[0].Diff = dec.Diffs[0].Diff.Clone()
	if b := dec.EncodeAppend(nil); !bytes.Equal(a, b) {
		t.Fatalf("cloned diff re-encodes differently:\n sent %x\n back %x", a, b)
	}
	// A diff without runs has no body of its own and still encodes.
	empty := &Msg{Kind: KDiffResp, Diffs: []DiffRec{{Page: 1, Diff: &page.Diff{}}}}
	if dec, err := Decode(empty.EncodeAppend(nil)); err != nil || !dec.Diffs[0].Diff.Empty() {
		t.Fatalf("empty diff round trip: %v", err)
	}
}

func TestWantsAndDataRoundTrip(t *testing.T) {
	m := &Msg{
		Kind:  KDiffReq,
		Wants: []Want{{Page: 1, Proc: 2, Index: 3}, {Page: 4, Proc: 5, Index: 6, Span: 7}},
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
	// A message without sections must not grow: the bit gates the block.
	plain := &Msg{Kind: KPageReq}
	if gotLen := len(plain.EncodeAppend(nil)); gotLen != minMsgBytes {
		t.Errorf("sectionless message = %d bytes, want %d", gotLen, minMsgBytes)
	}
	if rt := roundTrip(t, plain); rt.Sections != nil {
		t.Errorf("sectionless message decoded with Sections = %v", rt.Sections)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, minMsgBytes-1), // short header
		make([]byte, minMsgBytes),   // kind 0
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
	for cut := 0; cut < len(full); cut++ {
		if _, err := Decode(full[:cut]); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
}

func TestKindString(t *testing.T) {
	if KLockGrant.String() != "lockgrant" {
		t.Error("kind name wrong")
	}
	if Kind(999).String() != "Kind(999)" || Kind(22).String() != "Kind(22)" {
		t.Error("unknown kind name wrong")
	}
}

// procRuns appends up to three runs of write notices as a lazy engine
// lists them, over clocks of n entries that start at draws: per run one
// processor, consecutive indices, a clock that only grows with its own
// entry at the record's index — and now and then a record that breaks that
// invariant, or an index that wraps, which the encoder must code apart.
func procRuns(r *rand.Rand, ivs []IntervalRec, n int, draw func(*rand.Rand) int32) []IntervalRec {
	for runs := r.Intn(4); runs > 0; runs-- {
		proc := mem.ProcID(r.Intn(n))
		v := make(vc.VC, n)
		for k := range v {
			v[k] = draw(r)
		}
		for i := 1 + r.Intn(6); i > 0; i-- {
			v = slices.Clone(v)
			v[proc]++
			for k := range v {
				if k != int(proc) && r.Intn(4) == 0 {
					v[k] += int32(r.Intn(3))
				}
			}
			iv := IntervalRec{Proc: proc, Index: v[proc], VC: v}
			if r.Intn(8) == 0 {
				iv.VC = slices.Clone(v)
				iv.VC[r.Intn(n)] = draw(r)
			}
			for k := r.Intn(3); k > 0; k-- {
				iv.Pages = append(iv.Pages, mem.PageID(r.Intn(32)))
			}
			ivs = append(ivs, iv)
		}
	}
	return ivs
}

func TestPropEncodeDecodeRoundTrip(t *testing.T) {
	// Every message kind; retired kinds are unknown.
	var kinds []Kind
	for k := Kind(1); k < Kind(NumKinds); k++ {
		if k.Known() {
			kinds = append(kinds, k)
		}
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(6)
		m := &Msg{
			Kind: kinds[r.Intn(len(kinds))],
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
		small := func(r *rand.Rand) int32 { return int32(r.Intn(10)) - 1 }
		for i := 0; i < r.Intn(3); i++ {
			iv := IntervalRec{Proc: mem.ProcID(r.Intn(n)), Index: int32(r.Intn(10))}
			iv.VC = make(vc.VC, n)
			for k := range iv.VC {
				iv.VC[k] = small(r)
			}
			for k := 0; k < r.Intn(4); k++ {
				iv.Pages = append(iv.Pages, mem.PageID(r.Intn(32)))
			}
			m.Intervals = append(m.Intervals, iv)
		}
		m.Intervals = procRuns(r, m.Intervals, n, small)
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

// TestRoundTripExtremes: the codec never depends on the values being
// the small, dominated, sorted ones the protocol produces. Any int32 in
// any field round-trips — ids and indices through the wrapping casts,
// clock entries through x+1, record clocks that do not sit under the
// enclosing clock or break a run's prediction through the zig-zag delta,
// indices that wrap mid-run through a run of their own, unsorted page
// lists through the wrapping page delta — with and without an enclosing
// clock of equal length, and each in exactly the bytes it was sent as.
func TestRoundTripExtremes(t *testing.T) {
	extremes := []int32{math.MinInt32, math.MinInt32 + 1, -2, -1, 0, 1, 63, 64, 127, 128, 1 << 20, math.MaxInt32 - 1, math.MaxInt32}
	pick := func(r *rand.Rand) int32 {
		if r.Intn(3) == 0 {
			return int32(r.Uint32())
		}
		return extremes[r.Intn(len(extremes))]
	}
	clock := func(r *rand.Rand, n int) vc.VC {
		v := make(vc.VC, n)
		for i := range v {
			v[i] = pick(r)
		}
		return v
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		recs := func() []IntervalRec {
			var out []IntervalRec
			for i := r.Intn(4); i > 0; i-- {
				iv := IntervalRec{Proc: mem.ProcID(pick(r)), Index: pick(r)}
				// Mostly the enclosing clock's length (delta-coded when one
				// is present), sometimes not (absolute).
				iv.VC = clock(r, n-r.Intn(2))
				for k := r.Intn(4); k > 0; k-- {
					iv.Pages = append(iv.Pages, mem.PageID(pick(r)))
				}
				out = append(out, iv)
			}
			return procRuns(r, out, n, pick)
		}
		m := &Msg{Kind: KLockGrant, Seq: r.Uint64(), A: pick(r), B: pick(r), Intervals: recs()}
		if r.Intn(2) == 0 {
			m.VC = clock(r, n)
		}
		for i := r.Intn(3); i > 0; i-- {
			w := Want{Page: mem.PageID(pick(r)), Proc: mem.ProcID(pick(r)), Index: pick(r)}
			if room := math.MaxInt32 - int64(w.Index); room > 0 && r.Intn(2) == 0 {
				// Any range that ends at an index an int32 holds.
				w.Span = int32(1 + r.Int63n(min(room, math.MaxInt32)))
			}
			m.Wants = append(m.Wants, w)
		}
		for i := r.Intn(3); i > 0; i-- {
			sec := Section{Mode: uint16(r.Intn(256)), Intervals: recs()}
			if r.Intn(2) == 0 {
				sec.VC = clock(r, n)
			}
			m.Sections = append(m.Sections, sec)
		}
		enc := m.EncodeAppend(nil)
		got, err := Decode(enc)
		if err != nil {
			t.Log(err)
			return false
		}
		// nil and empty page lists are one encoding; compare through a
		// re-encode, then field by field for what the bytes cannot tell.
		if !bytes.Equal(got.EncodeAppend(nil), enc) {
			return false
		}
		same := func(a, b []IntervalRec) bool {
			if len(a) != len(b) {
				return false
			}
			for i := range a {
				if a[i].Proc != b[i].Proc || a[i].Index != b[i].Index ||
					!reflect.DeepEqual(a[i].VC, b[i].VC) || len(a[i].Pages) != len(b[i].Pages) {
					return false
				}
				for k := range a[i].Pages {
					if a[i].Pages[k] != b[i].Pages[k] {
						return false
					}
				}
			}
			return true
		}
		if got.Seq != m.Seq || got.A != m.A || got.B != m.B || !reflect.DeepEqual(got.VC, m.VC) ||
			!reflect.DeepEqual(got.Wants, m.Wants) || !same(got.Intervals, m.Intervals) ||
			len(got.Sections) != len(m.Sections) {
			return false
		}
		for i := range m.Sections {
			if got.Sections[i].Mode != m.Sections[i].Mode || !reflect.DeepEqual(got.Sections[i].VC, m.Sections[i].VC) ||
				!same(got.Sections[i].Intervals, m.Sections[i].Intervals) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestGoldenSizesGate pins the encoded size of each message kind as the
// runtime builds it at 4 procs, with two-byte sequence numbers, interval
// indices and clock entries in the hundreds and a page id past 127. A
// field added to the consistency plane moves these numbers; the bounds
// are the ones the traffic gates rest on (the paper's write notice is
// the model's 20 bytes per one-page interval; a fixed-width record cost
// 36). A synchronization message's payload is flat: the mode-tagged
// section it once travelled in cost 3 bytes more (its count, mode and
// presence byte) on each lock request, grant and barrier message.
func TestGoldenSizesGate(t *testing.T) {
	clock := vc.VC{900, 412, 655, 130}
	rec := IntervalRec{Proc: 2, Index: 650, VC: vc.VC{880, 400, 650, 128}, Pages: []mem.PageID{300}}
	diff := mkDiff(t, 4096, 1024) // one 4-byte run
	cases := []struct {
		name string
		msg  *Msg
		want int
		max  int
	}{
		{"bare ack", &Msg{Kind: KUpdateAck, Seq: 1000, A: 7}, 6, 8},
		{"lock request", &Msg{Kind: KLockReq, Seq: 1000, A: 5, B: 3, VC: clock}, 15, 17},
		// The processors of a symmetric program advance together, and a
		// clock entry codes against the entry before it: the neighbours cost
		// a byte each (15 when each entry travelled alone).
		{"lock request, entries close together", &Msg{Kind: KLockReq, Seq: 1000, A: 5, B: 3,
			VC: vc.VC{650, 648, 652, 649}}, 12, 12},
		{"lock grant, one notice", &Msg{Kind: KLockGrant, Seq: 1000, A: 5,
			VC: clock, Intervals: []IntervalRec{rec}}, 27, 29},
		// A grant without notices ships no clock: its receiver reads records
		// only, and the clock is their prediction base.
		{"lock grant, no notices", &Msg{Kind: KLockGrant, Seq: 1000, A: 5}, 6, 6},
		{"diff request, one want", &Msg{Kind: KDiffReq, Seq: 1000, A: 3,
			Wants: []Want{{Page: 300, Proc: 2, Index: 650}}}, 12, 12},
		{"diff response, one 4-byte run", &Msg{Kind: KDiffResp, Seq: 1000,
			Diffs: []DiffRec{{Page: 300, Proc: 2, Index: 650, Diff: diff}}}, 20, 20},
		// A responder's "not held" for another processor's diff: the record's
		// name and the body of no runs, its mark riding the processor field.
		{"diff response, one not-held record", &Msg{Kind: KDiffResp, Seq: 1000,
			Diffs: []DiffRec{{Page: 300, Proc: 2, Index: 650, NotHeld: true}}}, 13, 13},
		// A run of 56 intervals of one processor on one page (what a
		// splash-water miss asks for): one range want, answered by one
		// merged record (the row above), next to a want per interval.
		{"diff request, a 56-interval range", &Msg{Kind: KDiffReq, Seq: 1000, A: 3,
			Wants: []Want{{Page: 300, Proc: 2, Index: 650, Span: 55}}}, 13, 13},
		{"diff request, the 56 singly", &Msg{Kind: KDiffReq, Seq: 1000, A: 3,
			Wants: perInterval(Want{Page: 300, Proc: 2, Index: 650}, 56)}, 287, 287},
		{"page request", &Msg{Kind: KPageReq, Seq: 1000, A: 300, B: 3}, 7, 8},
		// A page ship is the page's diff against the zero page: a dense
		// page pays one run descriptor (4 bytes over the raw 4,114), a
		// water-shaped one — sixteen 24-byte molecules at a 256-byte stride
		// — ships its 384 used bytes, a never-written one nothing.
		{"page response, dense", &Msg{Kind: KPageResp, Seq: 1000, A: 300, VC: clock,
			Data: bytes.Repeat([]byte{0xab}, 4096)}, 4118, 4118},
		{"page response, water-shaped", &Msg{Kind: KPageResp, Seq: 1000, A: 300, VC: clock,
			Data: stridedPage(4096, 256, 24)}, 450, 480},
		{"page response, zero page", &Msg{Kind: KPageResp, Seq: 1000, A: 300, VC: clock,
			Data: make([]byte, 4096)}, 19, 24},
		{"barrier arrival, one own interval", &Msg{Kind: KBarrierArrive, Seq: 1000, A: 9, B: 3,
			VC: clock, Intervals: []IntervalRec{rec}}, 27, 29},
		// Write notices as a lazy engine lists them, one run per processor:
		// a record names neither its processor nor its index, and pays one
		// byte of mask plus the clock entries that moved since the record
		// before it, and its page list coded against the one before it. The
		// per-record coding before runs measured 82 and 659, runs with each
		// list's first page coded against 0 48 and 280.
		{"lock grant, a run of six notices", &Msg{Kind: KLockGrant, Seq: 1000, A: 5,
			VC: clock, Intervals: notices(2, 650, 6, vc.VC{880, 400, 0, 128})}, 43, 43},
		// The water shape: a processor's intervals between two acquires all
		// wrote one page, and a record that repeats the list before it says
		// so in its mask (48 bytes when each list travelled).
		{"lock grant, a run of six notices on one page", &Msg{Kind: KLockGrant, Seq: 1000, A: 5,
			VC: clock, Intervals: onePage(notices(2, 650, 6, vc.VC{880, 400, 0, 128}), 300)}, 33, 33},
		{"barrier arrival, 64 own intervals", &Msg{Kind: KBarrierArrive, Seq: 1000, A: 9, B: 3,
			VC: clock, Intervals: notices(3, 130, 64, vc.VC{880, 400, 650, 0})}, 217, 217},
		{"gc ready", &Msg{Kind: KGCReady, Seq: 1000, A: 9, B: 3}, 6, 8},
		// An EU release merged for one destination: a record per page, the
		// one the destination homes counting the copies its writer knows. Its
		// home's acknowledgement names the two copies that hint missed.
		{"merged update, four pages", &Msg{Kind: KUpdate, Seq: 1000, Diffs: []DiffRec{
			{Page: 300, Proc: 2, Diff: diff}, {Page: 301, Proc: 2, Index: 2, Diff: diff},
			{Page: 302, Proc: 2, Diff: diff}, {Page: 303, Proc: 2, Diff: diff}}}, 55, 56},
		{"update ack naming two copies", &Msg{Kind: KUpdateAck, Seq: 1000,
			Wants: []Want{{Page: 301, Proc: 0}, {Page: 301, Proc: 3}}}, 15, 16},
		// An invalidation names its pages in Wants: SC's write miss one, an
		// EI home's round every page of the copy it revokes.
		{"invalidation, one page", &Msg{Kind: KInval, Seq: 1000,
			Wants: []Want{{Page: 300}}}, 11, 11},
		{"invalidation, four pages", &Msg{Kind: KInval, Seq: 1000,
			Wants: []Want{{Page: 300}, {Page: 301}, {Page: 302}, {Page: 303}}}, 23, 23},
	}
	for _, tc := range cases {
		got := len(tc.msg.EncodeAppend(nil))
		if got != tc.want || got > tc.max {
			t.Errorf("%s = %d bytes, want %d (bound %d)", tc.name, got, tc.want, tc.max)
		}
	}
	if got := len(appendIntervals(nil, []IntervalRec{rec}, clock)); got != 12 || got > 12 {
		t.Errorf("one-page interval block = %d bytes, want 12 (bound 12)", got)
	}
}

// notices returns n one-page write notices of processor proc, the last at
// index last, as a lazy engine lists them: consecutive indices, each clock
// its predecessor's (the first from) with the own entry at the record's
// index, and the middle record after an acquire that moved the next
// processor's entry.
func notices(proc mem.ProcID, last int32, n int, from vc.VC) []IntervalRec {
	recs := make([]IntervalRec, n)
	v := from
	for i := range recs {
		v = slices.Clone(v)
		v[proc] = last - int32(n-1-i)
		if i == n/2 {
			v[(int(proc)+1)%len(v)] += 3
		}
		recs[i] = IntervalRec{Proc: proc, Index: v[proc], VC: v, Pages: []mem.PageID{300 + mem.PageID(i%3)}}
	}
	return recs
}

// onePage sets every record's page list to the one page pg, as a run of a
// processor's intervals that all wrote one record's page lists it.
func onePage(recs []IntervalRec, pg mem.PageID) []IntervalRec {
	for i := range recs {
		recs[i].Pages = []mem.PageID{pg}
	}
	return recs
}

// perInterval returns n plain wants for n consecutive intervals from w's.
func perInterval(w Want, n int) []Want {
	wants := make([]Want, n)
	for i := range wants {
		wants[i] = w
		wants[i].Index += int32(i)
	}
	return wants
}

// stridedPage returns size bytes with the first used bytes of every stride
// non-zero: the padded-record layout a DSM program uses against false
// sharing.
func stridedPage(size, stride, used int) []byte {
	p := make([]byte, size)
	for off := 0; off < size; off += stride {
		for k := 0; k < used; k++ {
			p[off+k] = 0xab
		}
	}
	return p
}

// TestDataRoundTripsZeroSuppressed: whatever the buffer — all zero, dense,
// sparse, any length with any tail — the Data block decodes to the same
// bytes, and zero suppression never costs more than one run descriptor
// over the length-prefixed raw bytes it replaced.
func TestDataRoundTripsZeroSuppressed(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	const maxLen = 8192
	dense := make([]byte, maxLen)
	for i := range dense {
		dense[i] = byte(1 + r.Intn(255))
	}
	shapes := []struct {
		name string
		fill func(b []byte)
	}{
		{"zero", func(b []byte) {}},
		{"dense", func(b []byte) { copy(b, dense) }},
		// Random values, so some written bytes are themselves zero.
		{"sparse", func(b []byte) {
			for k := r.Intn(8); k >= 0; k-- {
				off := r.Intn(len(b))
				r.Read(b[off:min(len(b), off+1+r.Intn(40))])
			}
		}},
		{"tail only", func(b []byte) { b[len(b)-1] = 7 }},
	}
	buf := make([]byte, maxLen)
	var enc []byte
	for n := 1; n <= maxLen; n++ {
		for _, shape := range shapes {
			data := buf[:n]
			clear(data)
			shape.fill(data)
			enc = (&Msg{Kind: KPageResp, Data: data}).EncodeAppend(enc[:0])
			raw := minMsgBytes + lenLen(n) + n
			if len(enc) > raw+4 {
				t.Fatalf("%s, %d bytes: encoded %d, raw %d", shape.name, n, len(enc), raw)
			}
			got, err := Decode(enc)
			if err != nil {
				t.Fatalf("%s, %d bytes: %v", shape.name, n, err)
			}
			if !bytes.Equal(got.Data, data) {
				t.Fatalf("%s, %d bytes: decoded data differs", shape.name, n)
			}
			got.Release()
		}
	}
}

func TestEncodeAppendComposes(t *testing.T) {
	// Appending into a buffer that holds bytes already leaves them as they
	// were and yields the standalone encoding after them: the append-style
	// contract a pooled buffer's reuse relies on.
	a := &Msg{Kind: KLockReq, Seq: 1, A: 2, B: 3}
	b := &Msg{Kind: KInval, Seq: 4, Wants: []Want{{Page: 5}}}
	ae, be := a.EncodeAppend(nil), b.EncodeAppend(nil)
	joint := b.EncodeAppend(a.EncodeAppend(framebuf.Get()))
	if !bytes.Equal(joint, append(append([]byte(nil), ae...), be...)) {
		t.Fatal("EncodeAppend into a shared buffer diverges from standalone encodings")
	}
	framebuf.Put(joint)
}

// shellGrant is a lock grant as a releaser sends it: a 4-entry clock and
// one interval record.
func shellGrant() *Msg {
	return &Msg{
		Kind: KLockGrant, Seq: 9, A: 3, VC: vc.VC{4, 5, 6, 7},
		Intervals: []IntervalRec{{Proc: 1, Index: 5, VC: vc.VC{4, 5, 6, 6}, Pages: []mem.PageID{2, 9}}},
	}
}

// TestDecodeFillsRecycledShell: Decode takes its message from the shell
// free list and Release puts it back, so the next Decode fills the same
// shell. Nothing a grant decoded survives its shell, and each of the
// runtime's messages decodes into a recycled shell as it was sent.
func TestDecodeFillsRecycledShell(t *testing.T) {
	drainShells()
	enc := shellGrant().EncodeAppend(nil)
	m, err := Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.VC, vc.VC{4, 5, 6, 7}) || len(m.Intervals) != 1 ||
		!reflect.DeepEqual(m.Intervals[0].VC, vc.VC{4, 5, 6, 6}) || !reflect.DeepEqual(m.Intervals[0].Pages, []mem.PageID{2, 9}) {
		t.Errorf("decoded clock %v records %+v", m.VC, m.Intervals)
	}
	m.Release()
	if m.VC != nil || m.Intervals != nil || m.Seq == 9 {
		t.Errorf("released shell still holds its message: %+v", m)
	}
	if again, err := Decode(enc); err != nil || again != m {
		t.Errorf("Decode after Release built a new shell (%p, was %p), err %v", again, m, err)
	} else {
		again.Release()
	}
	for _, tc := range shellMsgs(t) {
		enc := tc.m.EncodeAppend(nil)
		drainShells()
		if m, err := Decode(enc); err != nil || !bytes.Equal(m.EncodeAppend(nil), enc) {
			t.Errorf("%s: decoded %+v, err %v: does not re-encode as sent", tc.name, m, err)
		} else {
			m.Release()
		}
	}
}

// namedMsg is a test case: a message and what to call it.
type namedMsg struct {
	name string
	m    *Msg
}

// shellMsgs are the messages a receive path decodes most: a lock grant,
// flat as the runtime sends it and with its payload in one mode-tagged
// section, diff responses of one and four records, flat and sectioned,
// and a diff request.
func shellMsgs(t *testing.T) []namedMsg {
	g := shellGrant()
	return append([]namedMsg{
		{"grant", g},
		{"sectioned grant", &Msg{Kind: g.Kind, Seq: g.Seq, A: g.A, Sections: []Section{{Mode: 1, VC: g.VC, Intervals: g.Intervals}}}},
		{"water-shaped grant", grantRun()},
		{"diff response of 1", shellDiffResp(t, 1, false)},
		{"diff response of 4", shellDiffResp(t, 4, false)},
		{"sectioned diff response of 1", shellDiffResp(t, 1, true)},
		{"sectioned diff response of 4", shellDiffResp(t, 4, true)},
		{"diff request", shellDiffReq()},
	}, clockMsgs()...)
}

// clockMsgs carry a clock without an interval block: a lock request's,
// flat as the runtime sends it and in a section.
func clockMsgs() []namedMsg {
	clock := vc.VC{4, 5, 6, 7}
	return []namedMsg{
		{"lock request", &Msg{Kind: KLockReq, Seq: 13, A: 3, B: 1, VC: clock}},
		{"sectioned lock request", &Msg{Kind: KLockReq, Seq: 14, A: 3, B: 1, Sections: []Section{{Mode: 1, VC: clock}}}},
	}
}

// shellDiffResp is a diff response as a creator sends it: n records of two
// runs each, flat or in one section.
func shellDiffResp(t *testing.T, n int, sectioned bool) *Msg {
	m := &Msg{Kind: KDiffResp, Seq: 11}
	var recs []DiffRec
	for i := 0; i < n; i++ {
		recs = append(recs, DiffRec{Page: mem.PageID(i), Proc: 2, Index: int32(i), Diff: mkDiff(t, 1024, 0, 4, 8, 512+i)})
	}
	if sectioned {
		m.Sections = []Section{{Mode: 1, Diffs: recs}}
	} else {
		m.Diffs = recs
	}
	return m
}

// shellDiffReq is a miss's diff request: a plain want and a range want.
func shellDiffReq() *Msg {
	return &Msg{Kind: KDiffReq, Seq: 12, A: 1, Wants: []Want{{Page: 1, Proc: 2, Index: 3}, {Page: 1, Proc: 2, Index: 5, Span: 2}}}
}

// TestDiffBlockPastTheBound: a diff block past the 4 KiB a shell once kept —
// one of 200 runs — and a message's second block decode to the diffs that
// were sent, into slabs from the pool like any block, and the message's
// last Release gives every one of them back.
func TestDiffBlockPastTheBound(t *testing.T) {
	for _, tc := range pastTheBoundMsgs(t) {
		enc := tc.m.EncodeAppend(nil)
		m, err := Decode(enc)
		if err != nil || !bytes.Equal(m.EncodeAppend(nil), enc) {
			t.Fatalf("%s: decoded %+v, err %v: does not re-encode as sent", tc.name, m, err)
		}
		last := m.Diffs[len(m.Diffs)-1]
		if len(m.Sections) == 1 {
			last = m.Sections[0].Diffs[0]
		}
		want, got := make([]byte, 2048), make([]byte, 2048)
		if err := tc.m.Diffs[len(tc.m.Diffs)-1].Diff.Apply(want); err != nil {
			t.Fatal(err)
		}
		if err := last.Diff.Apply(got); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s applies differently from what was sent (err %v)", tc.name, err)
		}
		blocks := len(tc.m.Sections) + 1
		if k := m.kept.slabs; len(k.diffs) != blocks || len(k.hdrs) != blocks {
			t.Errorf("%s: the message holds %d/%d diff slabs, want %d of each", tc.name,
				len(k.diffs), len(k.hdrs), blocks)
		}
		m.Release()
		if k := m.kept.slabs; len(k.diffs)+len(k.hdrs) != 0 {
			t.Errorf("%s: the released message still holds diff slabs", tc.name)
		}
	}
}

// pastTheBoundMsgs carry a diff block a shell once did not keep: one of 200
// runs, past the 170 run windows 4 KiB once held, and a message's second
// block.
func pastTheBoundMsgs(t *testing.T) []namedMsg {
	var writes []int
	for i := 0; i < 200; i++ {
		writes = append(writes, 8*i) // every other word: one run each
	}
	big := mkDiff(t, 8*200, writes...)
	small := mkDiff(t, 1024, 0, 512)
	return []namedMsg{
		{"a block of 200 runs", &Msg{Kind: KDiffResp, Diffs: []DiffRec{{Page: 1, Proc: 2, Index: 3, Diff: big}}}},
		{"a second block", &Msg{Kind: KLockGrant, Diffs: []DiffRec{{Page: 1, Proc: 2, Index: 3, Diff: small}},
			Sections: []Section{{Mode: 1, Diffs: []DiffRec{{Page: 4, Proc: 1, Index: 0, Diff: small}}}}}},
	}
}

// TestMsgReferences: a retained shell survives its first release, and one
// release too many panics.
func TestMsgReferences(t *testing.T) {
	m := NewMsg()
	m.Seq = 7
	m.Retain()
	m.Release()
	if m.Seq != 7 {
		t.Fatal("a shell with a holder left was recycled")
	}
	m.Release()
	if m.Seq == 7 {
		t.Fatal("the last release did not clear the shell")
	}
	var none *Msg
	none.Release()
	defer func() {
		if recover() == nil {
			t.Error("releasing a shell more often than retained did not panic")
		}
	}()
	m.Release()
}

// TestReleasedShellIsPoisoned: under poison-on-release a released shell
// reads as garbage at once — an invalid kind, poison scalars, no slices —
// rather than as whatever message it held, or holds next; and so do the
// interval slabs it gave back, through whatever a holder kept of them: the
// records, a record's clock and page list, and the message or section
// clock that is the clock slab's first window.
func TestReleasedShellIsPoisoned(t *testing.T) {
	framebuf.SetPoison(true)
	defer framebuf.SetPoison(false)
	drainShells()
	poison := uint64(framebuf.PoisonByte) * 0x0101010101010101
	dead := int32(uint32(poison))
	g := shellGrant()
	sectioned := &Msg{Kind: g.Kind, Seq: g.Seq, A: g.A, Sections: []Section{{Mode: 1, VC: g.VC, Intervals: g.Intervals}}}
	for name, enc := range map[string][]byte{"flat": g.EncodeAppend(nil), "sectioned": sectioned.EncodeAppend(nil)} {
		m, err := Decode(enc)
		if err != nil {
			t.Fatal(err)
		}
		clock, recs := m.VC, m.Intervals
		if len(m.Sections) == 1 {
			clock, recs = m.Sections[0].VC, m.Sections[0].Intervals
		}
		recClock, recPages := recs[0].VC, recs[0].Pages
		m.Retain()
		m.Release()
		if !reflect.DeepEqual(clock, vc.VC{4, 5, 6, 7}) || recs[0].Proc != 1 || !reflect.DeepEqual(recClock, vc.VC{4, 5, 6, 6}) ||
			!reflect.DeepEqual(recPages, []mem.PageID{2, 9}) {
			t.Errorf("%s: a message with a holder left reads clock %v record %+v", name, clock, recs[0])
		}
		m.Release()
		if !reflect.DeepEqual(clock, vc.VC{dead, dead, dead, dead}) || !reflect.DeepEqual(recClock, vc.VC{dead, dead, dead, dead}) ||
			!reflect.DeepEqual(recPages, []mem.PageID{mem.PageID(dead), mem.PageID(dead)}) ||
			recs[0].Proc != mem.ProcID(dead) || recs[0].Index != dead || recs[0].VC != nil || recs[0].Pages != nil {
			t.Errorf("%s: held past the last release, clock %v record clock %v pages %v record %+v: want the poison pattern",
				name, clock, recClock, recPages, recs[0])
		}
	}
	// A list that repeats the one before it is that one's window of the
	// page slab, and reads the poison pattern through every record.
	m, err := Decode(intervalBlock(3, true))
	if err != nil {
		t.Fatal(err)
	}
	var lists [][]mem.PageID
	for _, iv := range m.Intervals {
		lists = append(lists, iv.Pages)
	}
	m.Release()
	for i, pages := range lists {
		if !reflect.DeepEqual(pages, []mem.PageID{mem.PageID(dead), mem.PageID(dead)}) {
			t.Errorf("record %d's repeated page list held past the last release reads %v, want the poison pattern", i, pages)
		}
	}
	// A clock without an interval block is the shell's as well.
	for _, tc := range clockMsgs() {
		m, err := Decode(tc.m.EncodeAppend(nil))
		if err != nil {
			t.Fatal(err)
		}
		clock := m.VC
		if len(m.Sections) == 1 {
			clock = m.Sections[0].VC
		}
		m.Release()
		if !reflect.DeepEqual(clock, vc.VC{dead, dead, dead, dead}) {
			t.Errorf("%s: a clock held past the last release reads %v, want the poison pattern", tc.name, clock)
		}
	}
	m, err = Decode(g.EncodeAppend(nil))
	if err != nil {
		t.Fatal(err)
	}
	m.Release()
	if m.Kind != Kind(framebuf.PoisonByte) || m.Kind < kindLimit || m.Seq != poison ||
		m.A != int32(uint32(poison)) || m.B != m.A {
		t.Errorf("released shell reads kind %v seq %#x a %#x b %#x, want the poison pattern", m.Kind, m.Seq, m.A, m.B)
	}
	if m.VC != nil || m.Intervals != nil || m.Diffs != nil || m.Wants != nil || m.Data != nil || m.Sections != nil || m.kept.frame != nil {
		t.Errorf("released shell kept a slice or its frame: %+v", m)
	}
	// The next user gets it clean.
	if again := NewMsg(); again != m || again.Kind != 0 || again.Seq != 0 || again.A != 0 {
		t.Errorf("a shell taken off the free list is not clean: %+v", again)
	} else {
		again.Release()
	}
}

// TestHoldFrameCustody: a decoded message is its frame's one owner. One
// whose diffs borrow the frame, flat or in a section, holds it across a
// retained holder and returns it to internal/framebuf at the last Release,
// not before; one without diffs returns it at once; a literal's Retain and
// Release hold nothing. Poison-on-release shows when a frame went back:
// framebuf.Put overwrites it.
func TestHoldFrameCustody(t *testing.T) {
	framebuf.SetPoison(true)
	defer framebuf.SetPoison(false)
	returned := func(frame []byte) bool {
		return bytes.Equal(frame, bytes.Repeat([]byte{framebuf.PoisonByte}, len(frame)))
	}
	for _, sectioned := range []bool{false, true} {
		frame := shellDiffResp(t, 4, sectioned).EncodeAppend(framebuf.Get())
		m, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		m.HoldFrame(frame)
		m.Retain()
		m.Release()
		if returned(frame) {
			t.Fatalf("sectioned=%v: the frame went back while a holder was left", sectioned)
		}
		m.Release()
		if !returned(frame) {
			t.Errorf("sectioned=%v: the last release kept the frame", sectioned)
		}
	}
	frame := shellDiffReq().EncodeAppend(framebuf.Get())
	m, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	m.HoldFrame(frame)
	if !returned(frame) {
		t.Error("a message without diffs held its frame")
	}
	m.Release()
	lit := &Msg{Seq: 7, Diffs: []DiffRec{{Page: 1}}}
	lit.Retain()
	lit.Release()
	lit.Release()
	if lit.Seq != 7 || len(lit.Diffs) != 1 {
		t.Errorf("releasing a literal changed it: %+v", lit)
	}
}

// TestReleasedDiffSlabsArePoisoned: under poison-on-release, what a holder
// kept of a diff response past its last Release is garbage at once — the
// records read the poison pattern, a kept *page.Diff is refused by Apply
// as a malformed body, and the body it borrowed, the frame's, reads 0xDB —
// and so are a diff request's wants. Without the last release the same
// holder reads the diff that was sent, and so does a Clone after it.
func TestReleasedDiffSlabsArePoisoned(t *testing.T) {
	framebuf.SetPoison(true)
	defer framebuf.SetPoison(false)
	poison := uint64(framebuf.PoisonByte) * 0x0101010101010101
	dead := int32(uint32(poison))
	for _, sectioned := range []bool{false, true} {
		drainShells()
		sent := shellDiffResp(t, 4, sectioned)
		frame := sent.EncodeAppend(framebuf.Get())
		m, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		m.HoldFrame(frame)
		recs, want := m.Diffs, sent.Diffs
		if sectioned {
			recs, want = m.Sections[0].Diffs, sent.Sections[0].Diffs
		}
		d, payload := recs[3].Diff, recs[3].Diff.EnsureWireBody()
		wantPage, got := make([]byte, 1024), make([]byte, 1024)
		if err := want[3].Diff.Apply(wantPage); err != nil {
			t.Fatal(err)
		}
		m.Retain()
		m.Release()
		if err := d.Apply(got); err != nil || !bytes.Equal(got, wantPage) || recs[3].Page != 3 {
			t.Errorf("sectioned=%v: a response with a holder left applies differently (err %v) or reads record %+v", sectioned, err, recs[3])
		}
		clone := d.Clone()
		m.Release()
		if err := d.Apply(make([]byte, 1024)); err == nil || !strings.Contains(err.Error(), "malformed diff body") {
			t.Errorf("sectioned=%v: a diff held past its response's release applies with %v, want a malformed body", sectioned, err)
		}
		if err := clone.Apply(got); err != nil || !bytes.Equal(got, wantPage) {
			t.Errorf("sectioned=%v: a Clone does not survive its response's release (err %v)", sectioned, err)
		}
		if !bytes.Equal(payload, bytes.Repeat([]byte{framebuf.PoisonByte}, len(payload))) {
			t.Errorf("sectioned=%v: a payload held past its response's release reads % x, want poison", sectioned, payload)
		}
		if r := recs[3]; r.Page != mem.PageID(dead) || r.Proc != mem.ProcID(dead) || r.Index != dead {
			t.Errorf("sectioned=%v: a record held past its response's release reads %+v, want the poison pattern", sectioned, r)
		}
	}
	m, err := Decode(shellDiffReq().EncodeAppend(nil))
	if err != nil {
		t.Fatal(err)
	}
	wants := m.Wants
	m.Release()
	if w := wants[1]; w != (Want{Page: mem.PageID(dead), Proc: mem.ProcID(dead), Index: dead, Span: dead}) {
		t.Errorf("a want held past its request's release reads %+v, want the poison pattern", w)
	}
}
