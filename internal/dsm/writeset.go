package dsm

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/framebuf"
	"repro/internal/mem"
)

// writeSet is the write-capture state of a twinning engine (lazy or
// eager): the pages twinned since the last drain, so an interval close or
// a flush does not sweep every page. Its mutex is a leaf, taken with a
// page stripe or an engine mutex held and never the other way around.
//
// Invariant: twin ≠ nil ⇒ page ∈ dirty ∪ pages claimed by an open drain.
// add keeps it by running under the stripe that made the twin — a second
// local goroutine that finds the twin and releases finds the page here —
// and the drainer by consuming every twin it claimed.
type writeSet struct {
	mu    sync.Mutex
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
	w.mu.Lock()
	w.dirty[pg] = struct{}{}
	w.mu.Unlock()
}

// drop forgets pg, whose copy (and twin) the caller just discarded.
func (w *writeSet) drop(pg mem.PageID) {
	w.mu.Lock()
	delete(w.dirty, pg)
	w.mu.Unlock()
}

// drain empties the set into buf[:0], sorted: the caller now owns every
// candidate's twin and consumes it, then settles.
func (w *writeSet) drain(buf []mem.PageID) []mem.PageID {
	buf = buf[:0]
	w.mu.Lock()
	if len(w.dirty) == 0 { // the common interval close: nothing written
		w.mu.Unlock()
		return buf
	}
	for pg := range w.dirty {
		buf = append(buf, pg)
		if w.claimed != nil {
			w.claimed[pg]++
		}
	}
	clear(w.dirty)
	w.mu.Unlock()
	slices.Sort(buf)
	return buf
}

// settle ends a drain's claims once the twins it took are consumed.
func (w *writeSet) settle(cand []mem.PageID) {
	if w.claimed == nil {
		return
	}
	w.mu.Lock()
	for _, pg := range cand {
		if w.claimed[pg]--; w.claimed[pg] == 0 {
			delete(w.claimed, pg)
		}
	}
	w.mu.Unlock()
}

// check asserts the invariant over every page of n, in test builds, the
// way checkGCInvariant does its own: a violation is a recorded error that
// fails the run at Close. twinned reports, under pg's stripe, whether the
// engine holds a twin for it. Called after each drain, with no stripe held.
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
			w.mu.Lock()
			_, dirty := w.dirty[pg]
			covered := dirty || w.claimed[pg] > 0
			w.mu.Unlock()
			if !covered {
				n.noteErr("write set", fmt.Errorf("page %d has a twin but is neither dirty nor claimed by an open drain", pg))
			}
		}
		n.pageMu[stripe].Unlock()
	}
}
