package page

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

// TestPropFlattenEqualsSequentialApply: applying a flattened diff once must
// be byte-identical to applying the individual diffs in interval order,
// including overlapping runs where the later diff must win.
func TestPropFlattenEqualsSequentialApply(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		size := 64 + r.Intn(200)
		base := make([]byte, size)
		r.Read(base)

		// Build a chain of diffs the way the engine does: each interval's
		// diff is MakeDiff(twin-at-interval-start, contents-at-close), so
		// successive diffs naturally overlap when writes revisit bytes.
		ndiffs := 2 + r.Intn(4)
		diffs := make([]*Diff, 0, ndiffs)
		cur := append([]byte(nil), base...)
		for i := 0; i < ndiffs; i++ {
			tw := NewTwin(cur)
			for j := 0; j < 1+r.Intn(6); j++ {
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
			diffs = append(diffs, d)
		}

		seq := append([]byte(nil), base...)
		for _, d := range diffs {
			if err := d.Apply(seq); err != nil {
				return false
			}
		}

		flat, err := FlattenDiffs(diffs, size)
		if err != nil {
			return false
		}
		once := append([]byte(nil), base...)
		if err := flat.Apply(once); err != nil {
			return false
		}
		return bytes.Equal(once, seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Hand-built overlapping runs: the flattened diff must take the later
// diff's bytes wherever runs overlap (last-writer-wins) and the earlier
// diff's bytes where only it wrote.
func TestFlattenLastWriterWins(t *testing.T) {
	size := 32
	d1, err := DiffFromRuns(
		[]Run{{Off: 0, Len: 8}, {Off: 16, Len: 4}},
		[][]byte{bytes.Repeat([]byte{0x11}, 8), bytes.Repeat([]byte{0x22}, 4)},
	)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := DiffFromRuns(
		[]Run{{Off: 4, Len: 8}}, // overlaps d1's first run at [4,8)
		[][]byte{bytes.Repeat([]byte{0x33}, 8)},
	)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := FlattenDiffs([]*Diff{d1, d2}, size)
	if err != nil {
		t.Fatal(err)
	}

	got := make([]byte, size)
	if err := flat.Apply(got); err != nil {
		t.Fatal(err)
	}
	want := make([]byte, size)
	for _, d := range []*Diff{d1, d2} {
		if err := d.Apply(want); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("flattened apply mismatch:\n got %x\nwant %x", got, want)
	}
	// The overlap region must carry d2's bytes.
	for k := 4; k < 12; k++ {
		if got[k] != 0x33 {
			t.Fatalf("byte %d = %#x, want later writer 0x33", k, got[k])
		}
	}
	// Runs [0,12) coalesce and [16,20) stays separate.
	if flat.NumRuns() != 2 {
		t.Fatalf("flat has %d runs, want 2 (%v)", flat.NumRuns(), flat.AppendRuns(nil))
	}
}

// A hostile diff inside the group must fail the flatten cleanly rather
// than panic or produce a partial merge.
func TestFlattenRejectsHostileRun(t *testing.T) {
	good, err := DiffFromRuns([]Run{{Off: 0, Len: 4}}, [][]byte{{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	bad := new(Diff) // one run of 8 bytes at 60
	bad.SetWire(append([]byte{1, 60, 8}, bytes.Repeat([]byte{9}, 8)...))
	if _, err := FlattenDiffs([]*Diff{good, bad}, 64); err == nil {
		t.Fatal("out-of-page run in flatten group not rejected")
	}
}

func TestFlattenEmptyGroup(t *testing.T) {
	flat, err := FlattenDiffs(nil, 64)
	if err != nil {
		t.Fatal(err)
	}
	if !flat.Empty() {
		t.Fatalf("flatten of no diffs produced %d runs", flat.NumRuns())
	}
}
