package dsm

import (
	"fmt"
	"slices"

	"repro/internal/mem"
	"repro/internal/page"
)

// pageCopy is a write-capturing engine's (lazy or eager) copy of one page,
// guarded by its stripe, and the only code that touches its write log.
// data holds the committed contents plus the uncommitted writes of the
// current interval (lazy) or critical sections since the last flush
// (eager); the log holds what those writes overwrote, word by word, so that
// swapping it in (committed, land) shows the committed contents and the cut
// at the commit point (take, at a lazy close or an eager flush) is the
// window's diff. Without logged words the two are the same bytes.
// Everything that changes the committed contents goes through land, so the
// log keeps the committed values whatever the node's own writer is doing
// when a handler lands outside bytes (EU's landCopy).
//
// The log is the page's dirty bit: it holds words exactly while the page is
// on its engine's dirty list, because write lists the page as the log
// leaves empty and only take, run on each drained page, empties it.
type pageCopy struct {
	data  []byte
	valid bool
	log   page.WriteLog // the uncommitted words, from the first write to the next commit point
}

// write copies src into the copy at off, logging the words it writes
// first; the window's first logged word lists pg on dirty, under the same
// stripe that sees the log leave empty, so a page is listed once per
// window. The node's log gauge counts the logged bytes.
func (pc *pageCopy) write(n *Node, dirty *dirtyList, pg mem.PageID, off int, src []byte) {
	if pc.log.Empty() {
		dirty.pages = append(dirty.pages, pg)
	}
	if logged := pc.log.Write(pc.data, off, src); logged > 0 {
		n.stats.twinBytesLive.Add(int64(logged))
	}
}

// take ends the window of a drained page at its commit point: it appends
// to runs the runs of the window's diff, the words it changed laid out
// against data, and commits — data is now committed, which leaves its
// bytes alone, and the log's bytes leave the node's gauge. Only commits
// lower the gauge, so its high-water mark is taken here, before the first
// of them, and by a Stats snapshot. A drained page with no logged word
// was listed twice or committed outside a drain: recorded, so Close fails.
func (pc *pageCopy) take(n *Node, pg mem.PageID, runs []page.Run) []page.Run {
	if pc.log.Empty() {
		n.noteErr("write set", fmt.Errorf("page %d drained with no logged write", pg))
	}
	runs = pc.log.Cut(runs, pc.data)
	st := &n.stats
	st.raisePeak(st.twinBytesLive.Load())
	st.twinBytesLive.Add(-int64(pc.log.Bytes()))
	pc.log.Reset()
	return runs
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

// dirtyList is the pages whose copies' logs hold words, in first-write
// order, each listed once (pageCopy.write). It has no lock: only the
// node's application goroutine writes, drains and takes, at an interval
// close or an eager flush.
type dirtyList struct {
	pages   []mem.PageID
	drained []mem.PageID // the last drain's, whose storage the next list reuses
}

// drain hands over the listed pages, sorted, and empties the list; the
// caller takes every one before the next drain.
func (l *dirtyList) drain() []mem.PageID {
	slices.Sort(l.pages)
	l.pages, l.drained = l.drained[:0], l.pages
	return l.drained
}
