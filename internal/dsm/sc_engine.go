package dsm

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/mem"
	"repro/internal/wire"
)

// scEngine implements the sequentially consistent Ivy-style baseline
// (paper §6 related work): single writer, write-invalidate, whole-page
// shipping. Each page's home keeps its directory entry (directory.go):
// the owner and the copyset. A read miss joins the copyset with a
// read-only copy fetched from the owner (which downgrades to read mode);
// a write requires exclusive ownership — the home invalidates every other
// copy, each invalidation acknowledged, and transfers ownership to the
// writer. Locks and barriers cost the same messages as under the RC
// protocols but carry no consistency payload.
//
// Page installs happen on the home's worker as the grant arrives, in
// directory order, and the access that missed completes there too,
// while the granted copy is still current — before any later
// invalidation or fetch for that page can be processed. Completing it on
// the application goroutine after the rpc wakeup instead (the obvious
// structure) re-opens a window in which a concurrent writer's revocation
// lands first; re-checking and re-requesting is correct but livelocks
// into page ping-pong under contention once the transport has real
// latency: over TCP, two writers of one page can burn millions of
// whole-page ships making no progress. With install-time completion a
// miss costs exactly one directory transaction — Ivy's per-access cost
// that the paper's Table 1 quantifies.
//
// Concurrency: page copies and the per-page pending-miss slot are
// guarded by the node's striped lock table; misses are the application
// goroutine's, one at a time.
type scEngine struct {
	noPayload
	n   *Node
	dir *directory

	// pages[i] and pending[i] are guarded by n.pageLock(i). pending[i]
	// is the node's in-flight miss of page i, completed by install on the
	// home's worker.
	pages   []*scPage
	pending []*scMiss
}

// scMiss is one blocked access: dst non-nil for a read miss, src
// non-nil for a write miss.
type scMiss struct {
	pg   mem.PageID
	off  int
	dst  []byte
	src  []byte
	done bool
}

type scAccess uint8

const (
	scNone scAccess = iota
	scRead
	scWrite
)

type scPage struct {
	data []byte
	mode scAccess
}

func newSCEngine(n *Node) *scEngine {
	e := &scEngine{
		n:       n,
		pages:   make([]*scPage, n.sys.layout.NumPages()),
		pending: make([]*scMiss, n.sys.layout.NumPages()),
	}
	e.dir = newDirectory(n, e)
	return e
}

// --- accesses ---

// A hit is served on the caller's stack. A miss is completed by install,
// on the home's worker, so it reads into, and writes from, a buffer of its
// own: the caller's would have to live on the heap for every hit.

func (e *scEngine) readPage(pg mem.PageID, off int, dst []byte) error {
	if e.hit(&scMiss{pg: pg, off: off, dst: dst}) {
		return nil
	}
	miss := &scMiss{pg: pg, off: off, dst: make([]byte, len(dst))}
	err := e.access(miss, wire.KPageReq)
	if err == nil {
		copy(dst, miss.dst)
	}
	return err
}

func (e *scEngine) writePage(pg mem.PageID, off int, src []byte) error {
	if e.hit(&scMiss{pg: pg, off: off, src: src}) {
		return nil
	}
	return e.access(&scMiss{pg: pg, off: off, src: slices.Clone(src)}, wire.KWriteReq)
}

// hit attempts the access against the local copy.
func (e *scEngine) hit(miss *scMiss) bool {
	pmu := e.n.pageLock(miss.pg)
	pmu.Lock()
	defer pmu.Unlock()
	return e.tryLocal(miss)
}

// tryLocal attempts the access against the local copy; caller holds the
// page stripe.
func (e *scEngine) tryLocal(miss *scMiss) bool {
	pc := e.pages[miss.pg]
	if pc == nil {
		return false
	}
	if miss.dst != nil && pc.mode >= scRead {
		copy(miss.dst, pc.data[miss.off:miss.off+len(miss.dst)])
		return true
	}
	if miss.src != nil && pc.mode == scWrite {
		copy(pc.data[miss.off:miss.off+len(miss.src)], miss.src)
		return true
	}
	return false
}

// access performs one read or write that missed through one directory
// transaction at the home, with the blocked access completed by install
// when the grant arrives (see the livelock discussion on scEngine).
func (e *scEngine) access(miss *scMiss, kind wire.Kind) error {
	n := e.n
	pmu := n.pageLock(miss.pg)
	pmu.Lock()
	if e.tryLocal(miss) {
		pmu.Unlock()
		return nil
	}
	var start time.Time
	if n.missHist != nil {
		start = time.Now()
	}
	n.stats.accessMisses.Add(1)
	if e.pages[miss.pg] == nil {
		n.stats.coldMisses.Add(1)
	}
	e.pending[miss.pg] = miss
	pmu.Unlock()

	resp, err := n.rpc(n.homeOf(miss.pg), &wire.Msg{
		Kind: kind, Seq: n.nextSeq(), A: int32(miss.pg), B: int32(n.id),
	})
	resp.Release() // installed on the home's worker already
	pmu.Lock()
	e.pending[miss.pg] = nil
	done := miss.done
	pmu.Unlock()
	if err == nil && !done {
		err = fmt.Errorf("dsm: node %d: %v of page %d: the grant did not complete the access", n.id, kind, miss.pg)
	}
	if err == nil && n.missHist != nil {
		n.observeMiss(start, 1)
	}
	return err
}

// --- handler side ---

func (e *scEngine) handle(m *wire.Msg, src mem.ProcID) bool {
	switch m.Kind {
	case wire.KPageReq, wire.KWriteReq:
		m.Retain() // the transaction outlives this handler
		go e.dir.serve(m)
	case wire.KPageResp:
		// Intercepted response: install the read copy on the home's
		// worker, in directory order, before any later invalidation can
		// be processed.
		e.n.answerWaiter(m, e.install(m, src, scRead))
	case wire.KWriteResp:
		e.n.answerWaiter(m, e.install(m, src, scWrite))
	case wire.KFetch:
		e.dir.serveFetch(m, src)
	case wire.KInval:
		e.dir.serveInval(m, src)
	default:
		return false
	}
	return true
}

// install applies a copy or upgrade granted by src at the requester, on
// src's worker, and completes the blocked access against it while the
// grant is still current in directory order.
//
// Returns false (recording the cause) for a grant that cannot be
// installed — bad page id, wrong-size data, a sender that does not home
// the page, or an upgrade with no local copy — so the caller fails the
// waiter instead of waking it over nothing.
func (e *scEngine) install(m *wire.Msg, src mem.ProcID, mode scAccess) bool {
	n := e.n
	pg := mem.PageID(m.A)
	if !n.validPage(pg) || (m.Data != nil && len(m.Data) != n.sys.layout.PageSize()) {
		n.noteErr("page install",
			fmt.Errorf("bad page grant: page %d, %d data bytes", pg, len(m.Data)))
		return false
	}
	if !e.dir.fromHome(m, pg, src) {
		return false
	}
	pmu := n.pageLock(pg)
	pmu.Lock()
	defer pmu.Unlock()
	// An upgrade grant (no data) means the directory saw us in the copyset,
	// so a current read copy must be installed here (copyset membership
	// without an installed copy only exists while our own fetch is in
	// flight, and the node runs one miss at a time). A
	// grant that violates that came from a confused or hostile peer —
	// reject it.
	switch pc := e.pages[pg]; {
	case m.Data != nil:
		e.pages[pg] = &scPage{data: m.Data, mode: mode}
		n.stats.pagesFetched.Add(1)
	case pc != nil:
		pc.mode = mode
	default:
		n.noteErr("page install", fmt.Errorf("upgrade grant for page %d without a local copy", pg))
		return false
	}
	if miss := e.pending[pg]; miss != nil && !miss.done {
		miss.done = e.tryLocal(miss)
	}
	return true
}

// committedLocked returns a view of this node's page contents for the
// home, downgrading a writable copy to read mode: the owner may keep
// reading, but its next write must re-acquire exclusivity.
func (e *scEngine) committedLocked(pg mem.PageID) (committedView, bool) {
	pc := e.pages[pg]
	if pc == nil {
		return committedView{}, false
	}
	if pc.mode == scWrite {
		pc.mode = scRead
	}
	return committedView{data: pc.data}, true
}

// invalidateLocked drops this node's access to its copy.
func (e *scEngine) invalidateLocked(pg mem.PageID) {
	if pc := e.pages[pg]; pc != nil {
		pc.mode = scNone
	}
}
