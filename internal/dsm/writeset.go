package dsm

import (
	"fmt"
	"slices"

	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/page"
)

// pageCopy is a write-capturing engine's (lazy or eager) copy of one page,
// guarded by its stripe, and the only code that touches its write log.
// data holds the committed contents plus the uncommitted writes of the
// current interval (lazy) or critical sections since the last flush
// (eager); the log holds what those writes overwrote, word by word, so that
// swapping it in (committed, land) shows the committed contents and the cut
// at the commit point (lazy close, eager commit) is the window's diff.
// Without logged words the two are the same bytes. Everything that changes
// the committed contents goes through land, so the log keeps the committed
// values whatever the node's own writer is doing when a handler lands
// outside bytes (EU's landCopy).
type pageCopy struct {
	data  []byte
	valid bool
	log   page.WriteLog // the uncommitted words, from the first write to the next commit point
}

// write copies src into the copy at off, logging the words it writes
// first; the first write since the last commit point registers pg with ws.
// The node's log gauge counts the logged bytes.
func (pc *pageCopy) write(n *Node, ws *writeSet, pg mem.PageID, off int, src []byte) {
	if pc.log.Empty() {
		ws.add(pg)
	}
	if logged := pc.log.Write(pc.data, off, src); logged > 0 {
		n.stats.twinBytesLive.Add(int64(logged))
	}
}

// dirty reports whether uncommitted writes are live.
func (pc *pageCopy) dirty() bool { return !pc.log.Empty() }

// cut appends to runs the runs of the uncommitted writes' diff: the words
// they changed, laid out against data.
func (pc *pageCopy) cut(runs []page.Run) []page.Run { return pc.log.Cut(runs, pc.data) }

// commit ends the uncommitted writes at a commit point: data is now
// committed, and the log's bytes leave the node's gauge. Only commits lower
// the gauge, so its high-water mark is taken here, before the first of
// them, and by a Stats snapshot.
func (pc *pageCopy) commit(n *Node) {
	st := &n.stats
	st.raisePeak(st.twinBytesLive.Load())
	st.twinBytesLive.Add(-int64(pc.log.Bytes()))
	pc.log.Reset()
}

// committedView is a page's committed contents as a holder ships them: a
// copy's data with its log's words swapped in, good under the stripe until
// done swaps them back out.
type committedView struct {
	data []byte
	log  *page.WriteLog // nil when nothing was swapped in
}

// done swaps the log's words back out of the copy.
func (v committedView) done() {
	if v.log != nil {
		v.log.Swap(v.data)
	}
}

// committed returns the copy's committed contents, a view good under the
// stripe until its done: uncommitted writes must not leak to another node.
func (pc *pageCopy) committed() committedView {
	pc.log.Swap(pc.data)
	return committedView{data: pc.data, log: &pc.log}
}

// land lands outside bytes on the committed contents: either base, which
// replaces them (the copy keeps the buffer), or apply, which patches them;
// no caller brings both. The log's words are swapped in, the committed
// state is changed, and the words are swapped back out on top — they
// belong to a local section that holds their locks, so no newer committed
// value for them exists — which leaves the log holding the new committed
// values beneath them. An error from apply leaves the copy as it was,
// provided apply leaves its argument alone when it fails (Diff.Apply checks
// every run before it moves a byte).
func (pc *pageCopy) land(base []byte, apply func(committed []byte) error) error {
	pc.log.Swap(pc.data)
	if base != nil {
		pc.data = base
	}
	var err error
	if apply != nil {
		err = apply(pc.data)
	}
	pc.log.Swap(pc.data)
	return err
}

// raisePeak raises the write-log gauge's high-water mark to live.
func (s *nodeStats) raisePeak(live int64) {
	for {
		peak := s.twinBytesPeak.Load()
		if live <= peak || s.twinBytesPeak.CompareAndSwap(peak, live) {
			return
		}
	}
}

// writeSet is the write-capture state of a lazy or eager engine: the pages
// written since the last drain, so an interval close or a flush does not
// sweep every page. It has no lock: only the node's
// application goroutine uses it — add in pageCopy.write, drain, settle and
// check at an interval close or an eager flush.
//
// Invariant: logged words ⇒ page ∈ dirty ∪ pages claimed by an open drain.
// add keeps it by running under the stripe of the first logged write, and
// the drainer by committing every page it claimed.
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

// add registers pg's first logged write. Caller holds pg's stripe.
func (w *writeSet) add(pg mem.PageID) {
	w.dirty[pg] = struct{}{}
}

// drain empties the set into buf[:0], sorted: the caller now owns every
// candidate's log and commits it, then settles.
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

// settle ends a drain's claims once the pages it took are committed.
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
// way a recorded error fails the run at Close. dirty reports, under pg's
// stripe, whether the engine's copy of it has logged words. Called after
// each drain, with no stripe held.
func (w *writeSet) check(n *Node, dirty func(pg mem.PageID) bool) {
	if w.claimed == nil {
		return
	}
	for stripe := range n.pageMu { // one lock per stripe, not per page
		n.pageMu[stripe].Lock()
		for pg := mem.PageID(stripe); n.validPage(pg); pg += pageShards {
			if !dirty(pg) {
				continue
			}
			if _, dirty := w.dirty[pg]; !dirty && w.claimed[pg] == 0 {
				n.noteErr("write set", fmt.Errorf("page %d has logged writes but is neither dirty nor claimed by an open drain", pg))
			}
		}
		n.pageMu[stripe].Unlock()
	}
}
