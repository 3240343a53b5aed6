package dsm

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/page"
)

// TestPageCopyLand is the table of pageCopy.land: outside bytes — diffs
// only, a base only, or a diff that does not fit the page — land on a copy with no twin and on one whose twin is live
// under an uncommitted word disjoint from the landing ones. After each,
// the committed view and the twin hold the new committed contents and the
// data holds them plus the uncommitted word; a failed apply leaves data,
// view and twin as they were. The twin gauge does not move.
func TestPageCopyLand(t *testing.T) {
	const size, ownOff = 64, 8
	n := newSys(t, 1, EagerUpdate).Node(0)
	ws := newWriteSet()
	fill := func(b byte, k int) []byte { return bytes.Repeat([]byte{b}, k) }
	diff := func(off int32, payload []byte) *page.Diff {
		d, err := page.DiffFromRuns([]page.Run{{Off: off, Len: int32(len(payload))}}, [][]byte{payload})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	landing := diff(32, fill(0xBB, page.WordSize))
	tooLong := diff(size-page.WordSize, fill(0xCC, 2*page.WordSize))
	kinds := []struct {
		name string
		base bool
		d    *page.Diff
	}{
		{"diffs only", false, landing},
		{"base only", true, nil},
		{"a diff that fails to apply", false, tooLong},
	}
	for _, twinned := range []bool{false, true} {
		for _, k := range kinds {
			name := "no twin/" + k.name
			if twinned {
				name = "live twin/" + k.name
			}
			t.Run(name, func(t *testing.T) {
				pc := &pageCopy{data: fill(0x11, size), valid: true}
				if twinned {
					pc.write(n, ws, 0, ownOff, fill(0xAA, page.WordSize))
				}
				defer func() {
					if t := pc.take(); t != nil {
						n.releaseTwin(t)
					}
				}()
				data, view, twin := slices.Clone(pc.data), slices.Clone(pc.committed()), pc.twin
				var base []byte
				if k.base {
					base = fill(0x77, size)
				}
				var apply func([]byte) error
				if k.d != nil {
					apply = k.d.Apply
				}
				live := n.Stats().TwinBytesLive
				err := pc.land(n, base, apply)
				if got := n.Stats().TwinBytesLive; got != live {
					t.Errorf("twin bytes live went %d -> %d", live, got)
				}
				if k.d == tooLong {
					if err == nil {
						t.Fatal("a diff past the page's end landed")
					}
					if !bytes.Equal(pc.data, data) || !bytes.Equal(pc.committed(), view) || pc.twin != twin {
						t.Errorf("a failed land changed the copy: data % x, view % x", pc.data, pc.committed())
					}
					return
				}
				if err != nil {
					t.Fatal(err)
				}
				committed := fill(0x11, size)
				if k.base {
					committed = fill(0x77, size)
				}
				if k.d != nil {
					must(t, k.d.Apply(committed))
				}
				if !bytes.Equal(pc.committed(), committed) {
					t.Errorf("committed view % x, want % x", pc.committed(), committed)
				}
				want := committed
				if twinned {
					if pc.twin == nil || !bytes.Equal(pc.twin.Data(), committed) {
						t.Errorf("the twin was not rebased onto % x", committed)
					}
					want = slices.Clone(committed)
					copy(want[ownOff:], fill(0xAA, page.WordSize))
				} else if pc.twin != nil {
					t.Error("landing captured a twin")
				}
				if !bytes.Equal(pc.data, want) {
					t.Errorf("data % x, want % x", pc.data, want)
				}
			})
		}
	}
}

// TestEagerTwinsAreGauged: an EI/EU critical section's twin counts in
// TwinBytesLive while the section is open, and the release's flush gives
// it back.
func TestEagerTwinsAreGauged(t *testing.T) {
	for _, mode := range []Mode{EagerInvalidate, EagerUpdate} {
		t.Run(mode.String(), func(t *testing.T) {
			s := newSys(t, 2, mode)
			n, pageSize := s.Node(0), int64(s.Layout().PageSize())
			must(t, n.Acquire(0))
			must(t, n.WriteUint64(1024, 7))
			must(t, n.WriteUint64(1032, 8)) // the same twin
			if st := n.Stats(); st.TwinBytesLive != pageSize {
				t.Errorf("with one section open on one page: %d twin bytes live, want %d", st.TwinBytesLive, pageSize)
			}
			must(t, n.Release(0))
			if st := n.Stats(); st.TwinBytesLive != 0 || st.TwinBytesPeak != pageSize {
				t.Errorf("after the release's flush: %d twin bytes live, peak %d; want 0 and %d",
					st.TwinBytesLive, st.TwinBytesPeak, pageSize)
			}
		})
	}
}
