package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func validTrace() *Trace {
	return &Trace{
		NumProcs:    2,
		SpaceSize:   4096,
		NumLocks:    2,
		NumBarriers: 1,
		Name:        "t",
		Events: []Event{
			{Kind: Write, Proc: 0, Addr: 0, Size: 8},
			{Kind: SetVal, Proc: 0, Addr: 8, Size: 8, Val: 41},
			{Kind: Barrier, Proc: 0, Sync: 0},
			{Kind: Barrier, Proc: 1, Sync: 0},
			{Kind: Acquire, Proc: 0, Sync: 1},
			{Kind: Read, Proc: 0, Addr: 100, Size: 4},
			{Kind: Update, Proc: 0, Addr: 200, Size: 4},
			{Kind: AddVal, Proc: 0, Addr: 8, Size: 8, Val: 1},
			{Kind: Release, Proc: 0, Sync: 1},
			{Kind: Acquire, Proc: 1, Sync: 1},
			{Kind: Write, Proc: 1, Addr: 100, Size: 4},
			{Kind: AddVal, Proc: 1, Addr: 8, Size: 8, Val: 2},
			{Kind: Release, Proc: 1, Sync: 1},
		},
	}
}

func TestValidateAccepts(t *testing.T) {
	if err := validTrace().Validate(); err != nil {
		t.Fatalf("valid trace rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Trace)
		want   string
	}{
		{"bad proc", func(tr *Trace) { tr.Events[0].Proc = 7 }, "out of range"},
		{"zero size access", func(tr *Trace) { tr.Events[0].Size = 0 }, "must be positive"},
		{"access out of space", func(tr *Trace) { tr.Events[0].Addr = 4090 }, "outside space"},
		{"release unheld", func(tr *Trace) { tr.Events = []Event{{Kind: Release, Proc: 0, Sync: 0}} }, "unheld"},
		{"double acquire", func(tr *Trace) {
			tr.Events = []Event{{Kind: Acquire, Proc: 0, Sync: 0}, {Kind: Acquire, Proc: 1, Sync: 0}}
		}, "already held"},
		{"release by non-holder", func(tr *Trace) {
			tr.Events = []Event{{Kind: Acquire, Proc: 0, Sync: 0}, {Kind: Release, Proc: 1, Sync: 0}}
		}, "held by"},
		{"held at end", func(tr *Trace) { tr.Events = []Event{{Kind: Acquire, Proc: 0, Sync: 0}} }, "still held"},
		{"double barrier arrival", func(tr *Trace) {
			tr.Events = []Event{{Kind: Barrier, Proc: 0, Sync: 0}, {Kind: Barrier, Proc: 0, Sync: 0}}
		}, "arrives twice"},
		{"incomplete barrier", func(tr *Trace) { tr.Events = []Event{{Kind: Barrier, Proc: 0, Sync: 0}} }, "incomplete"},
		{"bad lock id", func(tr *Trace) { tr.Events = []Event{{Kind: Acquire, Proc: 0, Sync: 9}} }, "out of range"},
		{"bad barrier id", func(tr *Trace) { tr.Events = []Event{{Kind: Barrier, Proc: 0, Sync: 9}} }, "out of range"},
		{"bad kind", func(tr *Trace) { tr.Events[0].Kind = Kind(99) }, "invalid kind"},
	}
	for _, c := range cases {
		tr := validTrace()
		c.mutate(tr)
		err := tr.Validate()
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestCount(t *testing.T) {
	// Update and AddVal each count as a read plus a write; SetVal as a
	// write.
	c := validTrace().Count()
	if c.Reads != 4 || c.Writes != 6 || c.Acquires != 2 || c.Releases != 2 || c.BarrierArrivals != 2 {
		t.Errorf("Count = %+v", c)
	}
}

func TestValidateRejectsBadValSize(t *testing.T) {
	for _, k := range []Kind{SetVal, AddVal} {
		tr := validTrace()
		tr.Events = []Event{{Kind: k, Proc: 0, Addr: 0, Size: 4, Val: 1}}
		if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "want 8") {
			t.Errorf("%s with size 4: err = %v", k, err)
		}
	}
}

func TestImageSemantics(t *testing.T) {
	tr := validTrace()
	img := tr.Image()
	if len(img) != int(tr.SpaceSize) {
		t.Fatalf("image is %d bytes, want %d", len(img), tr.SpaceSize)
	}
	// Write fills with the canonical pattern.
	for i := 0; i < 8; i++ {
		if img[i] != Fill(mem.Addr(i)) {
			t.Errorf("img[%d] = %#x, want fill %#x", i, img[i], Fill(mem.Addr(i)))
		}
	}
	// SetVal 41 then AddVal 1 and 2 leave 44 at address 8.
	var got uint64
	for i := 7; i >= 0; i-- {
		got = got<<8 | uint64(img[8+i])
	}
	if got != 44 {
		t.Errorf("counter at 8 = %d, want 44", got)
	}
	// One update incremented bytes [200,204) from zero.
	for a := 200; a < 204; a++ {
		if img[a] != 1 {
			t.Errorf("img[%d] = %d, want 1", a, img[a])
		}
	}
	// Reads and synchronization leave no trace in the image.
	if img[100] != Fill(100) {
		t.Errorf("img[100] = %#x, want fill", img[100])
	}
}

func TestFillRangeMatchesFill(t *testing.T) {
	buf := make([]byte, 32)
	FillRange(buf, 100)
	for i, b := range buf {
		if b != Fill(mem.Addr(100+i)) {
			t.Fatalf("FillRange[%d] = %#x, want %#x", i, b, Fill(mem.Addr(100+i)))
		}
	}
	// The pattern must actually vary with the address (a constant fill
	// would mask misdirected diffs).
	distinct := map[byte]bool{}
	for _, b := range buf {
		distinct[b] = true
	}
	if len(distinct) < 8 {
		t.Errorf("fill pattern has only %d distinct bytes in 32", len(distinct))
	}
}

func TestEventString(t *testing.T) {
	cases := []struct {
		e    Event
		want string
	}{
		{Event{Kind: Read, Proc: 1, Addr: 8, Size: 4}, "p1 read [8,12)"},
		{Event{Kind: Acquire, Proc: 0, Sync: 3}, "p0 acquire lock3"},
		{Event{Kind: Barrier, Proc: 2, Sync: 0}, "p2 barrier0"},
	}
	for _, c := range cases {
		if got := c.e.String(); got != c.want {
			t.Errorf("String = %q, want %q", got, c.want)
		}
	}
}

func TestIORoundTrip(t *testing.T) {
	tr := validTrace()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumProcs != tr.NumProcs || got.SpaceSize != tr.SpaceSize ||
		got.NumLocks != tr.NumLocks || got.NumBarriers != tr.NumBarriers || got.Name != tr.Name {
		t.Fatalf("header mismatch: %+v", got)
	}
	if len(got.Events) != len(tr.Events) {
		t.Fatalf("event count %d, want %d", len(got.Events), len(tr.Events))
	}
	for i := range tr.Events {
		if got.Events[i] != tr.Events[i] {
			t.Errorf("event %d = %+v, want %+v", i, got.Events[i], tr.Events[i])
		}
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte("not a trace at all......."))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Truncated valid prefix.
	tr := validTrace()
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	if _, err := ReadFrom(bytes.NewReader(b[:len(b)-5])); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestPropIORoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		tr := &Trace{
			NumProcs:    1 + r.Intn(8),
			SpaceSize:   mem.Addr(1024 * (1 + r.Intn(64))),
			NumLocks:    1 + r.Intn(4),
			NumBarriers: 1,
			Name:        "prop",
		}
		// Random reads/writes plus balanced lock pairs.
		for i := 0; i < r.Intn(200); i++ {
			p := mem.ProcID(r.Intn(tr.NumProcs))
			l := int32(r.Intn(tr.NumLocks))
			switch r.Intn(3) {
			case 0:
				a := mem.Addr(r.Int63n(int64(tr.SpaceSize) - 8))
				tr.Events = append(tr.Events, Event{Kind: Read, Proc: p, Addr: a, Size: 8})
			case 1:
				a := mem.Addr(r.Int63n(int64(tr.SpaceSize) - 8))
				tr.Events = append(tr.Events, Event{Kind: Write, Proc: p, Addr: a, Size: 8})
			case 2:
				tr.Events = append(tr.Events,
					Event{Kind: Acquire, Proc: p, Sync: l},
					Event{Kind: Release, Proc: p, Sync: l})
			}
		}
		var buf bytes.Buffer
		if _, err := tr.WriteTo(&buf); err != nil {
			return false
		}
		got, err := ReadFrom(&buf)
		if err != nil {
			return false
		}
		if len(got.Events) != len(tr.Events) {
			return false
		}
		for i := range tr.Events {
			if got.Events[i] != tr.Events[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	want := map[Kind]string{Read: "read", Write: "write", Acquire: "acquire", Release: "release", Barrier: "barrier"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
		if !k.Valid() {
			t.Errorf("Kind %s reported invalid", s)
		}
	}
	if Kind(99).Valid() {
		t.Error("Kind(99) reported valid")
	}
}
