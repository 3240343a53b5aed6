package dsm

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/mem"
	"repro/internal/page"
)

// TestPageCopyLand is the table of pageCopy.land: outside bytes — diffs
// only, a base only, or a diff that does not fit the page — land on a copy
// with no twin, no logged writes, and on one with a live twin, a log that
// holds an uncommitted word disjoint from the landing ones (the rows keep
// the names of the twin the log replaced). After each, the committed view holds the
// new committed contents and the data holds them plus the uncommitted word,
// which is still the whole of the window's cut; a failed apply leaves data
// and view as they were. The log gauge does not move.
func TestPageCopyLand(t *testing.T) {
	const size, ownOff = 64, 8
	n := newSys(t, 1, EagerUpdate).Node(0)
	var dirty dirtyList
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
	view := func(pc *pageCopy) []byte {
		v := pc.committed()
		defer v.done()
		return slices.Clone(v.data)
	}
	for _, written := range []bool{false, true} {
		for _, k := range kinds {
			name := "no twin/" + k.name
			if written {
				name = "live twin/" + k.name
			}
			t.Run(name, func(t *testing.T) {
				pc := &pageCopy{data: fill(0x11, size), valid: true}
				if written {
					pc.write(n, &dirty, 0, ownOff, fill(0xAA, page.WordSize))
				}
				data, committed0 := slices.Clone(pc.data), view(pc)
				var base []byte
				if k.base {
					base = fill(0x77, size)
				}
				var apply func([]byte) error
				if k.d != nil {
					apply = k.d.Apply
				}
				live := n.Stats().TwinBytesLive
				err := pc.land(base, apply)
				if got := n.Stats().TwinBytesLive; got != live {
					t.Errorf("log bytes live went %d -> %d", live, got)
				}
				if k.d == tooLong {
					if written {
						defer pc.take(n, 0, nil)
					}
					if err == nil {
						t.Fatal("a diff past the page's end landed")
					}
					if !bytes.Equal(pc.data, data) || !bytes.Equal(view(pc), committed0) {
						t.Errorf("a failed land changed the copy: data % x, view % x", pc.data, view(pc))
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
				if got := view(pc); !bytes.Equal(got, committed) {
					t.Errorf("committed view % x, want % x", got, committed)
				}
				want := committed
				var cut []page.Run
				if written {
					want = slices.Clone(committed)
					copy(want[ownOff:], fill(0xAA, page.WordSize))
					cut = []page.Run{{Off: ownOff, Len: page.WordSize}}
				} else if !pc.log.Empty() {
					t.Error("landing logged a write")
				}
				if !bytes.Equal(pc.data, want) {
					t.Errorf("data % x, want % x", pc.data, want)
				}
				if !written {
					return
				}
				if got := pc.take(n, 0, nil); !slices.Equal(got, cut) {
					t.Errorf("the window cuts to %v after the land, want %v", got, cut)
				}
			})
		}
	}
}

// TestEagerTwinsAreGauged: an EI/EU critical section's logged words count
// in the twin gauge, TwinBytesLive, while the section is open, and the
// release's flush gives them back.
func TestEagerTwinsAreGauged(t *testing.T) {
	for _, mode := range []Mode{EagerInvalidate, EagerUpdate} {
		t.Run(mode.String(), func(t *testing.T) {
			n := newSys(t, 2, mode).Node(0)
			must(t, n.Acquire(0))
			must(t, n.WriteUint64(1024, 7))
			must(t, n.WriteUint64(1032, 8))
			must(t, n.WriteUint64(1024, 9)) // words the section logged already
			const logged = 4 * page.WordSize
			if st := n.Stats(); st.TwinBytesLive != logged {
				t.Errorf("with one section open on four words: %d log bytes live, want %d", st.TwinBytesLive, logged)
			}
			must(t, n.Release(0))
			if st := n.Stats(); st.TwinBytesLive != 0 || st.TwinBytesPeak != logged {
				t.Errorf("after the release's flush: %d log bytes live, peak %d; want 0 and %d",
					st.TwinBytesLive, st.TwinBytesPeak, logged)
			}
		})
	}
}

// TestDirtyList: a section that writes one page many times and two others
// once lists each page once, and the close (LI/LU) or flush (EI/EU) at its
// release drains them sorted and leaves the list empty.
func TestDirtyList(t *testing.T) {
	for _, mode := range []Mode{LazyInvalidate, LazyUpdate, EagerInvalidate, EagerUpdate} {
		t.Run(mode.String(), func(t *testing.T) {
			n := newSys(t, 2, mode).Node(0)
			var dirty *dirtyList
			switch e := n.e.(type) {
			case *lazyEngine:
				dirty = &e.dirty
			case *eagerEngine:
				dirty = &e.dirty
			}
			const size = 1024 // newSys's page size
			must(t, n.Acquire(0))
			for i, pg := range []mem.PageID{5, 3, 5, 5, 1, 5} {
				must(t, n.WriteUint64(mem.Addr(int(pg)*size+8*i), uint64(i+1)))
			}
			if want := []mem.PageID{5, 3, 1}; !slices.Equal(dirty.pages, want) {
				t.Errorf("listed %v in the section, want %v", dirty.pages, want)
			}
			must(t, n.Release(0))
			if want := []mem.PageID{1, 3, 5}; !slices.Equal(dirty.drained, want) || len(dirty.pages) != 0 {
				t.Errorf("after the release: drained %v, listed %v; want %v and none", dirty.drained, dirty.pages, want)
			}
		})
	}
}
