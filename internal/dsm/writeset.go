package dsm

import (
	"fmt"
	"slices"

	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/page"
)

// pageCopy is a twinning engine's (lazy or eager) copy of one page, guarded
// by its stripe, and the only code that touches its twin. The twin holds
// the page's committed contents; data holds those contents plus the
// uncommitted writes of the current interval (lazy) or critical sections
// since the last flush (eager). Without a twin the two are the same bytes.
// Everything that changes the committed contents goes through land, so the
// invariant holds whatever the node's own writer is doing when a handler
// lands outside bytes (EU's landCopy).
type pageCopy struct {
	data  []byte
	valid bool
	twin  *page.Twin // present from the first write to the next commit point
}

// write copies src into the copy at off. The first write since the last
// commit point captures the twin first, registering pg with ws; write
// returns that fresh twin (nil if one was live), good under the stripe.
func (pc *pageCopy) write(n *Node, ws *writeSet, pg mem.PageID, off int, src []byte) (fresh *page.Twin) {
	if pc.twin == nil {
		pc.twin = n.newTwin(pc.data)
		fresh = pc.twin
		ws.add(pg)
	}
	copy(pc.data[off:off+len(src)], src)
	return fresh
}

// twinned reports whether uncommitted writes are live.
func (pc *pageCopy) twinned() bool { return pc.twin != nil }

// committed returns the copy's committed contents, a view good under the
// stripe: uncommitted writes must not leak to another node.
func (pc *pageCopy) committed() []byte {
	if pc.twin != nil {
		return pc.twin.Data()
	}
	return pc.data
}

// take ends the uncommitted writes at a commit point, handing the caller
// the twin's reference (nil if nothing was written): data is now committed.
func (pc *pageCopy) take() (t *page.Twin) {
	t, pc.twin = pc.twin, nil
	return t
}

// land lands outside bytes on the committed contents: either base, which
// replaces them (the copy keeps the buffer), or apply, which patches them;
// no caller brings both. Without a twin that is data itself. With one, the
// uncommitted words are lifted off as a diff, the new committed state is
// built, the twin is rebased beneath it and the words are reinstated on
// top — the words belong to a local section that holds their locks, so no
// newer committed value for them exists. An error from apply leaves the
// copy as it was, provided apply leaves its argument alone when it fails
// (Diff.Apply checks every run before it moves a byte).
func (pc *pageCopy) land(n *Node, base []byte, apply func(committed []byte) error) error {
	committed, lifted := base, (*page.Diff)(nil)
	if pc.twin != nil {
		var err error
		if lifted, err = page.MakeDiff(pc.twin, pc.data); err != nil {
			return fmt.Errorf("lifting uncommitted writes: %w", err)
		}
		defer lifted.Release()
		n.stats.diffsCreated.Add(1)
	}
	if apply != nil {
		committed = pc.data
		if lifted != nil {
			committed = slices.Clone(pc.twin.Data())
		}
		if err := apply(committed); err != nil {
			return err
		}
	}
	pc.data = committed
	if lifted == nil {
		return nil
	}
	n.releaseTwin(pc.twin)
	pc.twin = n.newTwin(committed)
	return lifted.Apply(pc.data)
}

// newTwin and releaseTwin wrap twin capture and release with the node's
// TwinBytesLive gauge and the System's, which twinBudget bounds: the
// gauges rise at capture and fall at the last release, when the twin
// returns to the page pool.
func (n *Node) newTwin(contents []byte) *page.Twin {
	t := page.NewTwin(contents)
	n.sys.twinBytes.Add(int64(t.Len()))
	st := &n.stats
	live := st.twinBytesLive.Add(int64(t.Len()))
	for {
		peak := st.twinBytesPeak.Load()
		if live <= peak || st.twinBytesPeak.CompareAndSwap(peak, live) {
			return t
		}
	}
}

func (n *Node) releaseTwin(t *page.Twin) {
	size := int64(t.Len())
	if t.Release() {
		n.stats.twinBytesLive.Add(-size)
		n.sys.twinBytes.Add(-size)
	}
}

// writeSet is the write-capture state of a twinning engine (lazy or
// eager): the pages twinned since the last drain, so an interval close or
// a flush does not sweep every page. It has no lock: only the node's
// application goroutine uses it — add in pageCopy.write, drain, settle and
// check at an interval close or an eager flush.
//
// Invariant: twin ≠ nil ⇒ page ∈ dirty ∪ pages claimed by an open drain.
// add keeps it by running under the stripe that made the twin, and the
// drainer by consuming every twin it claimed.
type writeSet struct {
	dirty map[mem.PageID]struct{}
	// claimed counts, per page, the drains that took it and have not
	// settled. Kept in test builds only (poison mode), for check.
	claimed map[mem.PageID]int
}

func newWriteSet() *writeSet {
	w := &writeSet{dirty: make(map[mem.PageID]struct{})}
	if framebuf.Poisoned() {
		w.claimed = make(map[mem.PageID]int)
	}
	return w
}

// add registers pg's freshly made twin. Caller holds pg's stripe.
func (w *writeSet) add(pg mem.PageID) {
	w.dirty[pg] = struct{}{}
}

// drain empties the set into buf[:0], sorted: the caller now owns every
// candidate's twin and consumes it, then settles.
func (w *writeSet) drain(buf []mem.PageID) []mem.PageID {
	buf = buf[:0]
	if len(w.dirty) == 0 { // the common interval close: nothing written
		return buf
	}
	for pg := range w.dirty {
		buf = append(buf, pg)
		if w.claimed != nil {
			w.claimed[pg]++
		}
	}
	clear(w.dirty)
	slices.Sort(buf)
	return buf
}

// settle ends a drain's claims once the twins it took are consumed.
func (w *writeSet) settle(cand []mem.PageID) {
	if w.claimed == nil {
		return
	}
	for _, pg := range cand {
		if w.claimed[pg]--; w.claimed[pg] == 0 {
			delete(w.claimed, pg)
		}
	}
}

// check asserts the invariant over every page of n, in test builds, the
// way checkPendingLocked does the store's: a violation is a recorded
// error that fails the run at Close. twinned reports, under pg's stripe,
// whether the engine holds a twin for it. Called after each drain, with no
// stripe held.
func (w *writeSet) check(n *Node, twinned func(pg mem.PageID) bool) {
	if w.claimed == nil {
		return
	}
	for stripe := range n.pageMu { // one lock per stripe, not per page
		n.pageMu[stripe].Lock()
		for pg := mem.PageID(stripe); n.validPage(pg); pg += pageShards {
			if !twinned(pg) {
				continue
			}
			if _, dirty := w.dirty[pg]; !dirty && w.claimed[pg] == 0 {
				n.noteErr("write set", fmt.Errorf("page %d has a twin but is neither dirty nor claimed by an open drain", pg))
			}
		}
		n.pageMu[stripe].Unlock()
	}
}
