package page

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/framebuf"
)

func TestMakeDiffEmpty(t *testing.T) {
	data := make([]byte, 64)
	tw := NewTwin(data)
	d, err := MakeDiff(tw, data)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Empty() || d.NumRuns() != 0 {
		t.Fatalf("diff of identical data not empty: %d runs", d.NumRuns())
	}
	if got := d.WireSize(); got != DiffHeaderBytes {
		t.Errorf("empty diff WireSize = %d, want %d", got, DiffHeaderBytes)
	}
}

func TestMakeDiffSingleWord(t *testing.T) {
	data := make([]byte, 64)
	tw := NewTwin(data)
	data[9] = 0xff // within word [8,12)
	d, err := MakeDiff(tw, data)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRuns() != 1 {
		t.Fatalf("NumRuns = %d, want 1", d.NumRuns())
	}
	r := d.AppendRuns(nil)[0]
	if r.Off != 8 || r.Len != 4 {
		t.Errorf("run = [%d,%d), want word-dilated [8,12)", r.Off, r.End())
	}
}

func TestMakeDiffCoalescesAdjacentWords(t *testing.T) {
	data := make([]byte, 64)
	tw := NewTwin(data)
	data[4] = 1
	data[8] = 2 // adjacent words -> single run
	d, err := MakeDiff(tw, data)
	if err != nil {
		t.Fatal(err)
	}
	if runs := d.AppendRuns(nil); len(runs) != 1 || runs[0] != (Run{Off: 4, Len: 8}) {
		t.Fatalf("adjacent changed words did not coalesce: %v", runs)
	}
}

func TestMakeDiffLengthMismatch(t *testing.T) {
	tw := NewTwin(make([]byte, 32))
	if _, err := MakeDiff(tw, make([]byte, 64)); err == nil {
		t.Fatal("length mismatch not rejected")
	}
}

func TestMakeDiffShortTailWord(t *testing.T) {
	data := make([]byte, 10) // not a multiple of the word size
	tw := NewTwin(data)
	data[9] = 7
	d, err := MakeDiff(tw, data)
	if err != nil {
		t.Fatal(err)
	}
	fresh := make([]byte, 10)
	if err := d.Apply(fresh); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, data) {
		t.Fatalf("short-tail diff did not roundtrip: %v vs %v", fresh, data)
	}
}

func TestApplyOutOfRange(t *testing.T) {
	d, err := DiffFromRuns([]Run{{Off: 60, Len: 8}}, [][]byte{make([]byte, 8)})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Apply(make([]byte, 64)); err == nil {
		t.Fatal("out-of-range apply not rejected")
	}
}

// TestDiffIsItsWireBody: MakeDiff lays the wire body out once — run
// count, then offset, length and bytes per run, all varints — and the
// diff's runs and sizes are read from that one buffer.
func TestDiffIsItsWireBody(t *testing.T) {
	data := make([]byte, 4096)
	tw := NewTwin(data)
	data[8], data[300], data[301] = 1, 2, 3
	d, err := MakeDiff(tw, data)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte{2, 8, 4, 1, 0, 0, 0, 0xac, 0x02, 4, 2, 3, 0, 0}
	body := d.EnsureWireBody()
	if !bytes.Equal(body, want) {
		t.Fatalf("wire body = % x, want % x", body, want)
	}
	if runs := d.AppendRuns(nil); !slices.Equal(runs, []Run{{Off: 8, Len: 4}, {Off: 300, Len: 4}}) {
		t.Errorf("runs read from the body: %v", runs)
	}
	if size, runs, err := ScanBody(append(body, 0xFF)); size != len(body) || runs != 2 || err != nil {
		t.Errorf("ScanBody of the body and a byte after it = %d, %d, %v; want %d, 2", size, runs, err, len(body))
	}
	if got, want := d.WireSize(), DiffHeaderBytes+2*RunHeaderBytes+8; got != want {
		t.Errorf("WireSize = %d, want %d", got, want)
	}
	if got := (&Diff{}).EnsureWireBody(); !bytes.Equal(got, []byte{0}) {
		t.Errorf("empty diff's wire body = % x, want a zero run count", got)
	}
}

// TestCloneOwnsItsBody: a diff built over borrowed bytes reads whatever
// those bytes become — new payload bytes, or bytes that are no body any
// more, which Apply refuses whole; its Clone does not, and is otherwise the
// same diff.
func TestCloneOwnsItsBody(t *testing.T) {
	src, err := DiffFromRuns([]Run{{Off: 4, Len: 4}, {Off: 200, Len: 2}}, [][]byte{{1, 2, 3, 4}, {9, 9}})
	if err != nil {
		t.Fatal(err)
	}
	frame := append([]byte(nil), src.EnsureWireBody()...)
	borrowed := new(Diff)
	borrowed.SetWire(frame)
	clone := borrowed.Clone()
	copy(frame[3:7], []byte{0xDB, 0xDB, 0xDB, 0xDB}) // run 0's payload
	want, got := make([]byte, 256), make([]byte, 256)
	if err := src.Apply(want); err != nil {
		t.Fatal(err)
	}
	if err := clone.Apply(got); err != nil || !bytes.Equal(got, want) {
		t.Errorf("clone applies differently once the borrowed bytes changed (err %v)", err)
	}
	if !bytes.Equal(clone.EnsureWireBody(), src.EnsureWireBody()) {
		t.Error("clone's wire body differs from the original's")
	}
	if err := borrowed.Apply(got); err != nil || got[4] != 0xDB || got[200] != 9 {
		t.Errorf("borrowing diff did not follow its bytes (err %v, bytes 4 and 200 = %#x, %#x)", err, got[4], got[200])
	}
	copy(frame, bytes.Repeat([]byte{framebuf.PoisonByte}, len(frame)))
	before := bytes.Clone(got)
	if err := borrowed.Apply(got); err == nil || !strings.Contains(err.Error(), "malformed diff body") || !bytes.Equal(got, before) {
		t.Errorf("a diff over poisoned bytes applied (err %v)", err)
	}
	if c := (&Diff{}).Clone(); !c.Empty() {
		t.Error("clone of an empty diff is not empty")
	}
	// SetWire fills a header in place: refilled without runs, the same
	// header forgets the frame.
	zero := []byte{0}
	borrowed.SetWire(zero)
	if !borrowed.Empty() || borrowed.EnsureWireBody()[0] != 0 || &borrowed.EnsureWireBody()[0] == &zero[0] {
		t.Error("a diff without runs must borrow nothing")
	}
}

// TestReleasedTwinIsPoisoned: under poison-on-release the pool scribbles
// a twin's buffer at its last release — and only then — so anything still
// reading it diverges at once.
func TestReleasedTwinIsPoisoned(t *testing.T) {
	framebuf.SetPoison(true)
	defer framebuf.SetPoison(false)
	tw := NewTwin(bytes.Repeat([]byte{7}, 1024))
	view := tw.Data()
	tw.Retain()
	if tw.Release() || view[0] != 7 {
		t.Fatal("twin scribbled while a reference was still held")
	}
	if !tw.Release() || !bytes.Equal(view, bytes.Repeat([]byte{framebuf.PoisonByte}, 1024)) {
		t.Fatalf("last release did not poison the buffer: % x...", view[:8])
	}
}

func TestDiffFromRunsValidation(t *testing.T) {
	if _, err := DiffFromRuns([]Run{{0, 4}}, nil); err == nil {
		t.Error("run/payload count mismatch not rejected")
	}
	if _, err := DiffFromRuns([]Run{{0, 4}}, [][]byte{make([]byte, 3)}); err == nil {
		t.Error("run length / payload length mismatch not rejected")
	}
}

func TestPropDiffRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		size := 32 + r.Intn(200)
		orig := make([]byte, size)
		r.Read(orig)
		tw := NewTwin(orig)
		cur := make([]byte, size)
		copy(cur, orig)
		for i := 0; i < 1+r.Intn(8); i++ {
			off := r.Intn(size)
			n := 1 + r.Intn(size-off)
			for k := off; k < off+n; k++ {
				cur[k] = byte(r.Intn(256))
			}
		}
		d, err := MakeDiff(tw, cur)
		if err != nil {
			return false
		}
		// Applying the diff to a fresh copy of the twin must reproduce
		// the current contents exactly.
		restored := make([]byte, size)
		copy(restored, orig)
		if err := d.Apply(restored); err != nil {
			return false
		}
		return bytes.Equal(restored, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropDiffRunsCoverExactlyChangedWords(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		size := 64
		orig := make([]byte, size)
		cur := make([]byte, size)
		r.Read(orig)
		copy(cur, orig)
		changed := make([]bool, size)
		for i := 0; i < 5; i++ {
			k := r.Intn(size)
			cur[k] = orig[k] ^ 0x5a // guaranteed change, idempotent
			changed[k] = true
		}
		d, err := MakeDiff(NewTwin(orig), cur)
		if err != nil {
			return false
		}
		var rs RangeSet
		for _, run := range d.AppendRuns(nil) {
			rs.AddRun(run)
		}
		for k := 0; k < size; k++ {
			if changed[k] && !rs.Contains(k) {
				return false // a changed byte must be covered
			}
		}
		// Every covered word must contain at least one changed byte.
		for _, run := range rs.Runs() {
			for w := run.Off &^ 3; w < run.End(); w += 4 {
				wordChanged := false
				for k := w; k < w+4 && int(k) < size; k++ {
					if changed[k] {
						wordChanged = true
					}
				}
				if !wordChanged {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropSequentialDiffsComposeInOrder(t *testing.T) {
	// Applying diffs in happened-before order must reproduce the final
	// contents even when the diffs overlap (later writers win), the §4.3.3
	// ordering requirement.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		size := 96
		base := make([]byte, size)
		r.Read(base)
		cur := make([]byte, size)
		copy(cur, base)
		var diffs []*Diff
		for step := 0; step < 4; step++ {
			tw := NewTwin(cur)
			for i := 0; i < 3; i++ {
				off := r.Intn(size)
				cur[off] = byte(r.Intn(256))
			}
			d, err := MakeDiff(tw, cur)
			if err != nil {
				return false
			}
			diffs = append(diffs, d)
		}
		restored := make([]byte, size)
		copy(restored, base)
		for _, d := range diffs {
			if err := d.Apply(restored); err != nil {
				return false
			}
		}
		return bytes.Equal(restored, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEstimateDiffWireSize(t *testing.T) {
	var s RangeSet
	if got := EstimateDiffWireSize(&s); got != DiffHeaderBytes {
		t.Errorf("empty estimate = %d, want %d", got, DiffHeaderBytes)
	}
	s.Add(2, 4) // word-dilates to [0,8): 8 payload bytes
	want := DiffHeaderBytes + RunHeaderBytes + 8
	if got := EstimateDiffWireSize(&s); got != want {
		t.Errorf("estimate = %d, want %d", got, want)
	}
}

func TestPropEstimateMatchesRealDiff(t *testing.T) {
	// The simulator's estimated wire size must equal the size of a real
	// diff whose writes exactly cover the same ranges (on a zeroed page
	// written with non-zero bytes, so every written word really changes).
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		size := 128
		cur := make([]byte, size)
		tw := NewTwin(cur)
		var s RangeSet
		for i := 0; i < 4; i++ {
			off := r.Intn(size)
			n := 1 + r.Intn(size-off)
			s.Add(off, n)
		}
		for _, run := range s.Runs() {
			for k := run.Off; k < run.End(); k++ {
				cur[k] = 0xA5
			}
		}
		d, err := MakeDiff(tw, cur)
		if err != nil {
			return false
		}
		return d.WireSize() == EstimateDiffWireSize(&s)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestNextNonZeroRunCoversExactlyNonZeroWords: walking a buffer run by run
// visits every aligned 8-byte word with a non-zero byte and no other, in
// maximal runs, for every length (short final words included) and from
// long zero stretches down to single-word gaps.
func TestNextNonZeroRunCoversExactlyNonZeroWords(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for n := 0; n <= 600; n++ {
		b := make([]byte, n)
		for k := r.Intn(6); k > 0 && n > 0; k-- {
			off := r.Intn(n)
			for i := off; i < min(n, off+1+r.Intn(48)); i++ {
				b[i] = byte(1 + r.Intn(255))
			}
		}
		covered := make([]bool, n)
		prevEnd := -1
		for start, end := NextNonZeroRun(b, 0); start < n; start, end = NextNonZeroRun(b, end) {
			if start%zeroWord != 0 || (end%zeroWord != 0 && end != n) || end <= start {
				t.Fatalf("n=%d: run [%d,%d) is not a span of whole words", n, start, end)
			}
			if start <= prevEnd {
				t.Fatalf("n=%d: run [%d,%d) touches the one ending at %d", n, start, end, prevEnd)
			}
			for i := start; i < end; i++ {
				covered[i] = true
			}
			prevEnd = end
		}
		for w := 0; w < n; w += zeroWord {
			word := b[w:min(n, w+zeroWord)]
			nonZero := !bytes.Equal(word, make([]byte, len(word)))
			if covered[w] != nonZero {
				t.Fatalf("n=%d: word at %d non-zero=%v but covered=%v", n, w, nonZero, covered[w])
			}
		}
	}
}
