package dsm

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/vc"
)

// The GC epoch (TreadMarks-style): collect history once every node has
// validated through an epoch. Lock order: e.mu, then a page's stripe; the
// page walks take each page's stripe in turn under e.mu.

// gcState is the lazy engine's GC epoch state, the application
// goroutine's alone except keepers.
type gcState struct {
	// lastEpoch is the clock the last barrier left: the next GC epoch, and
	// the floor of the own intervals an arrival ships. episodes counts
	// barriers.
	lastEpoch vc.VC
	episodes  int
	// gcEpoch is the clock of the last GC epoch runGC validated through
	// (every entry -1 before the first), and gcDue says its discard has
	// yet to run: the next postBarrier runs it. gcPages is runGC's
	// scratch, the pages to validate.
	gcEpoch vc.VC
	gcDue   bool
	gcPages []mem.PageID
	// keepers[pg/Procs] names, for page pg this node homes, the keeper
	// whose copy stands in for the home's (runGC), or -1. Guarded by pg's
	// stripe; only the application goroutine writes it.
	keepers []mem.ProcID
}

// sinceEpochLocked counts the intervals the node's clock holds above the
// last GC epoch's. At a barrier's postBarrier every node's clock is the
// master's merged one and every node's epoch the same barrier's, so every
// node counts the same: a barrier runs an epoch once the count reaches the
// space's pages, with no message of its own. Caller holds e.mu.
func (e *lazyEngine) sinceEpochLocked() int {
	since := 0
	for q, k := range e.v {
		since += int(k - e.gcEpoch[q])
	}
	return since
}

// runGC is the barrier-time garbage collection epoch: every node validates
// each invalid copy it holds and marks the epoch due. It runs at every
// GCEveryBarriers-th barrier, and at any barrier that leaves at least as
// many intervals above the last epoch as the space has pages
// (sinceEpochLocked): an epoch walks every page, so collecting no sooner
// costs O(1) per interval, and the history a node keeps stays near one
// barrier's intervals plus the pages' worth. The next barrier's
// postBarrier discards the diffs of every interval the epoch clock covers
// and sweeps their records out of the log, whose floor rises to the epoch:
// what a node keeps is bounded by the history since the epoch before last,
// not the run. That barrier is the epoch's readiness round: a node arrives
// at it only after its own validation, so no node discards while another
// still needs pre-epoch diffs.
//
// runGC runs on the application goroutine, inside its Barrier, so the
// only concurrent page activity is handler-side serving.
//
// The barrier rendezvous that precedes runGC is what pushes every write
// notice to every node — the master absorbs all arrivals before building
// exits, so each home's log lists every modifier of its pages since the
// last epoch. Validation must therefore leave every page as heldLocked
// requires: an invalid copy would plan, later, from records the sweep
// removed and ask a responder for diffs the epoch discarded (which refuses
// such requests as collected history). A page the node homes but never
// touched is not built: the home names one of the page's modifiers its
// keeper (keepers), whose copy — a modifier holds one, LI and LU never drop
// a copy — this same epoch validates on the keeper, and every later epoch
// again, and forwards cold misses of the page to it (handlePageReq) until
// its own miss takes the keeper's copy (ensureCopy): modifications move
// only to a node that accesses the page. checkGCInvariant enforces this
// before the epoch is marked due, turning a would-be remote failure into a
// local descriptive error.
func (e *lazyEngine) runGC() error {
	e.mu.Lock()
	e.gcEpoch = append(e.gcEpoch[:0], e.lastEpoch...)
	toValidate := e.gcPages[:0]
	for pg := range e.pages {
		pgid := mem.PageID(pg)
		pmu := e.n.pageLock(pgid)
		pmu.Lock()
		switch pc := e.pages[pg]; {
		case e.heldLocked(pgid, pc):
		case pc == nil:
			// The log only knows modifiers since its floor, which is
			// enough: a page whose history an epoch swept has had a
			// keeper since that epoch.
			e.nameKeeperLocked(pgid)
		default:
			toValidate = append(toValidate, pgid)
		}
		pmu.Unlock()
	}
	e.gcPages = toValidate
	e.mu.Unlock()

	if err := e.revalidate(toValidate); err != nil {
		return err
	}
	if err := e.checkGCInvariant(); err != nil {
		return err
	}
	// Every body the store holds belongs to an interval the epoch covers:
	// closed now, their slabs hold nothing the discard keeps.
	e.mu.Lock()
	e.store.closeBodies()
	e.mu.Unlock()
	e.stale = e.stale[:0]
	e.gcDue = true
	return nil
}

// heldLocked is what a GC epoch requires of page pg, whose copy is pc (nil
// when the node holds none): a valid copy, or, for a page this node homes
// with modification history and no copy, a keeper, whose own epoch covers
// the keeper's copy. A valid copy keeps its stamp, which may lie below the
// epoch: it reflects every interval the node knows of that wrote the page,
// and a plan from its stamp reads only the intervals above the log's floor,
// as one from the zero page's empty clock does. Caller holds e.mu and pg's
// stripe.
func (e *lazyEngine) heldLocked(pg mem.PageID, pc *lazyPage) bool {
	if pc == nil {
		return e.n.homeOf(pg) != e.n.id || e.keeperLocked(pg) >= 0 || !e.writtenLocked(pg, -1)
	}
	return pc.valid
}

// checkGCInvariant verifies, before this node marks the GC epoch due, that
// every page meets what the epoch requires of it (heldLocked). A violation
// means a later cold miss would chase discarded diffs.
func (e *lazyEngine) checkGCInvariant() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for pg := range e.pages {
		pgid := mem.PageID(pg)
		pmu := e.n.pageLock(pgid)
		pmu.Lock()
		var err error
		switch pc := e.pages[pg]; {
		case e.heldLocked(pgid, pc):
		case pc == nil:
			err = fmt.Errorf("dsm: node %d: GC invariant: homed page %d has modification history but neither a copy nor a keeper", e.n.id, pgid)
		default:
			err = fmt.Errorf("dsm: node %d: GC invariant: page %d copy left invalid by the epoch's validation (applied=%v)", e.n.id, pgid, pc.applied)
		}
		pmu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// keeperLocked returns the keeper of page pg, or -1 when it has none or
// another home. Caller holds pg's stripe.
func (e *lazyEngine) keeperLocked(pg mem.PageID) mem.ProcID {
	if e.n.homeOf(pg) != e.n.id {
		return -1
	}
	return e.keepers[int(pg)/e.n.sys.cfg.Procs]
}

// setKeeperLocked names k the keeper of page pg, which this node homes, or
// clears it (-1). Caller holds pg's stripe.
func (e *lazyEngine) setKeeperLocked(pg mem.PageID, k mem.ProcID) {
	at := &e.keepers[int(pg)/e.n.sys.cfg.Procs]
	switch {
	case *at < 0 && k >= 0:
		e.n.stats.keptPages.Add(1)
	case *at >= 0 && k < 0:
		e.n.stats.keptPages.Add(-1)
	}
	*at = k
}

// nameKeeperLocked names the first of page pg's modifiers in the log,
// other than this node, pg's keeper; a page without one keeps none.
// Caller holds e.mu and pg's stripe.
func (e *lazyEngine) nameKeeperLocked(pg mem.PageID) {
	for _, q := range e.log.ModifiersOf(pg) {
		if q != e.n.id {
			e.setKeeperLocked(pg, q)
			return
		}
	}
}

// discardLocked is the GC epoch's discard: every retained diff of an
// interval the epoch covers goes, its slots emptied and its entry cleared,
// and the store frees the chunks and slabs that held only such intervals;
// then the log sweeps the intervals' records, which raises its floors.
// Caller holds e.mu.
func (e *lazyEngine) discardLocked(epoch vc.VC) {
	n := e.n
	for q := range e.store.procs {
		for k := e.log.Floor(mem.ProcID(q)) + 1; k <= epoch[q]; k++ {
			id := core.IntervalID{Proc: mem.ProcID(q), Index: k}
			p, ent := e.store.entry(id)
			if ent.n == 0 {
				continue
			}
			for i := range uint32(ent.n) {
				slot := p.at(ent.off + i)
				if slot.held() {
					n.stats.diffsDiscarded.Add(1)
				}
				*slot = diffSlot{}
			}
			p.chunks[k/chunkIntervals-p.dropped].ents[k%chunkIntervals] = slotEnt{}
		}
		e.store.sweep(q, epoch[q])
	}
	e.log.Sweep(epoch)
	n.stats.logRecords.Store(int64(e.log.Count()))
}
