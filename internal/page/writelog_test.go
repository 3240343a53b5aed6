package page

import (
	"bytes"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// logWrite is one write of a write-log test: value bytes at off.
type logWrite struct {
	off   int
	value []byte
}

// checkCut runs writes through a WriteLog over a page holding before and
// holds the log to its oracle, the twin it replaces: the cut's wire body is
// byte for byte MakeDiff(NewTwin(before), after)'s, as is DiffOf's and
// ParseBody's of the cut's body; one Swap makes the page the twin and a
// second makes it the written page again. It then runs a second window
// over the result, to check that Reset leaves nothing behind.
func checkCut(t *testing.T, before []byte, windows ...[]logWrite) {
	t.Helper()
	var log WriteLog
	data := bytes.Clone(before)
	for wi, writes := range windows {
		twin := NewTwin(data)
		logged := 0
		for _, w := range writes {
			logged += log.Write(data, w.off, w.value)
		}
		if logged != log.Bytes() {
			t.Fatalf("window %d: Write reported %d logged bytes, the log holds %d", wi, logged, log.Bytes())
		}
		after := bytes.Clone(data)
		want, err := MakeDiff(twin, after)
		if err != nil {
			t.Fatal(err)
		}
		runs := log.Cut(nil, data)
		body := AppendBody(nil, runs, data)
		if !bytes.Equal(body, want.EnsureWireBody()) {
			t.Fatalf("window %d: cut body % x, want MakeDiff's % x (runs %v, want %v)", wi, body, want.EnsureWireBody(), runs, want.AppendRuns(nil))
		}
		if size := BodySize(runs); size != len(body) {
			t.Fatalf("window %d: BodySize %d, body is %d bytes", wi, size, len(body))
		}
		if d := DiffOf(runs, data); !bytes.Equal(d.EnsureWireBody(), body) {
			t.Fatalf("window %d: DiffOf's body differs from the cut's", wi)
		} else {
			d.Release()
		}
		parsed, err := ParseBody(body)
		if err != nil {
			t.Fatalf("window %d: ParseBody of a cut body: %v", wi, err)
		}
		if !bytes.Equal(parsed.EnsureWireBody(), body) || !slices.Equal(parsed.AppendRuns(nil), runs) {
			t.Fatalf("window %d: ParseBody did not round-trip the cut's body", wi)
		}
		parsed.Release()
		want.Release()
		log.Swap(data)
		if !bytes.Equal(data, twin.Data()) {
			t.Fatalf("window %d: swapped-in view % x, want the twin % x", wi, data, twin.Data())
		}
		log.Swap(data)
		if !bytes.Equal(data, after) {
			t.Fatalf("window %d: swapping out did not restore the written page", wi)
		}
		twin.Release()
		log.Reset()
		if !log.Empty() || log.Bytes() != 0 {
			t.Fatalf("window %d: Reset left %d bytes logged", wi, log.Bytes())
		}
	}
}

// TestWriteLogCut is the write log's table: each row's writes, over a page
// of its size, must cut to MakeDiff's body against the twin.
func TestWriteLogCut(t *testing.T) {
	b := func(v ...byte) []byte { return v }
	ramp := func(n int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = byte(i + 1)
		}
		return p
	}
	rows := []struct {
		name   string
		before []byte
		writes []logWrite
	}{
		{"no writes", make([]byte, 64), nil},
		{"one word", make([]byte, 64), []logWrite{{8, b(1, 2, 3, 4)}}},
		{"sub-word write", make([]byte, 64), []logWrite{{9, b(7)}}},
		{"sub-word write across two words", make([]byte, 64), []logWrite{{10, b(7, 7, 7)}}},
		{"adjacent words coalesce", make([]byte, 64), []logWrite{{12, b(1, 1, 1, 1)}, {8, b(2, 2, 2, 2)}}},
		{"a gap of one word splits runs", make([]byte, 64), []logWrite{{0, b(1, 1, 1, 1)}, {8, b(2, 2, 2, 2)}}},
		{"overlapping writes, the later wins", make([]byte, 64), []logWrite{{4, b(1, 1, 1, 1, 1, 1, 1, 1)}, {6, b(9, 9, 9, 9)}}},
		{"a write that restores the old value", ramp(64), []logWrite{{16, b(0, 0, 0, 0)}, {16, b(17, 18, 19, 20)}}},
		{"the same value written", ramp(64), []logWrite{{20, b(21, 22)}}},
		{"restored word inside a run splits it", ramp(64), []logWrite{{0, make([]byte, 12)}, {4, b(5, 6, 7, 8)}}},
		{"short final word", make([]byte, 63), []logWrite{{60, b(1, 2, 3)}}},
		{"short final word, one byte", make([]byte, 62), []logWrite{{61, b(5)}}},
		{"short final word joins the run before", make([]byte, 63), []logWrite{{56, b(1, 1, 1, 1, 1, 1, 1)}}},
		{"whole page", make([]byte, 64), []logWrite{{0, ramp(64)}}},
		{"page of one short word", make([]byte, 3), []logWrite{{1, b(4)}}},
		{"past a bitmap word", make([]byte, 1024), []logWrite{{252, b(1, 1, 1, 1, 1, 1, 1, 1)}, {1020, b(2)}}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			checkCut(t, row.before, row.writes, []logWrite{{0, b(0xEE)}})
		})
	}
}

// TestWriteLogRandomWindows runs random windows of random writes, sparse
// and dense, through one log.
func TestWriteLogRandomWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for range 200 {
		size := 1 + rng.Intn(300)
		before := make([]byte, size)
		rng.Read(before)
		windows := make([][]logWrite, 1+rng.Intn(3))
		for i := range windows {
			for range rng.Intn(12) {
				off := rng.Intn(size)
				v := make([]byte, 1+rng.Intn(min(16, size-off)))
				if rng.Intn(3) == 0 {
					copy(v, before[off:]) // a value the page may already hold
				} else {
					rng.Read(v)
				}
				windows[i] = append(windows[i], logWrite{off, v})
			}
		}
		checkCut(t, before, windows...)
	}
}

// FuzzWriteLogCut: any sequence of writes over any page size cuts to the
// twin's diff. The input's first byte sizes the page, and every further
// three bytes are a write: its offset, its length and its value's seed —
// an even seed writes the page's own old bytes back.
func FuzzWriteLogCut(f *testing.F) {
	f.Add([]byte{64, 8, 4, 1, 9, 1, 2})
	f.Add([]byte{63, 60, 3, 5, 61, 2, 7})
	f.Add([]byte{32, 0, 32, 3, 4, 4, 0, 12, 8, 9})
	f.Add([]byte{5, 1, 4, 1, 0, 5, 2})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 || in[0] == 0 {
			return
		}
		size := int(in[0])
		before := make([]byte, size)
		for i := range before {
			before[i] = byte(i * 7)
		}
		var writes []logWrite
		for in = in[1:]; len(in) >= 3; in = in[3:] {
			off := int(in[0]) % size
			n := 1 + int(in[1])%(size-off)
			v := make([]byte, n)
			for i := range v {
				if in[2]%2 == 0 {
					v[i] = before[off+i]
				} else {
					v[i] = in[2] + byte(i)
				}
			}
			writes = append(writes, logWrite{off, v})
		}
		checkCut(t, before, writes)
	})
}

// TestParseBodyRejectsMalformed: bytes that are no canonical body — a
// poisoned slab's, a truncated run, trailing bytes, a padded varint — are
// refused, not parsed into runs, as a malformed body whose error names the
// bound broken in the words the message decoder's errors use (ScanBody is
// the parser of both).
func TestParseBodyRejectsMalformed(t *testing.T) {
	for _, c := range []struct {
		body []byte
		want string
	}{
		{nil, "truncated"},
		{bytes.Repeat([]byte{0xDB}, 64), "overflows 64 bits"},
		{[]byte{1, 4, 4, 1, 2}, "truncated payload"},
		{[]byte{1, 0, 0x80, 0x80, 0x80, 0x80, 0x08}, "truncated payload"},
		{[]byte{1, 4, 1, 9, 0}, "1 bytes past its last run"},
		{[]byte{0x81, 0x00, 4, 1, 9}, "non-minimal varint"},
		{[]byte{1, 0x80, 0x80, 0x80, 0x80, 0x08, 1, 9}, "negative run offset"},
		{[]byte{1, 0x80, 0x80, 0x80, 0x80, 0x10, 0}, "overflows its 32-bit field"},
		{[]byte{1, 4}, "implausible run count"},
		{[]byte{3, 0, 0, 0, 0, 0}, "implausible run count"},
	} {
		d, err := ParseBody(c.body)
		if err == nil {
			t.Errorf("ParseBody(% x) = %v, want an error", c.body, d.AppendRuns(nil))
		} else if !strings.Contains(err.Error(), "malformed diff body: ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseBody(% x): %v, want a malformed body: %s", c.body, err, c.want)
		}
	}
	if d, err := ParseBody([]byte{0}); err != nil || !d.Empty() {
		t.Errorf("ParseBody of the empty body: %v, %v", d, err)
	}
}
