package dsm

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/mem"
	"repro/internal/vc"
	"repro/internal/wire"
)

// router is the per-page protocol dispatcher: it implements the engine
// interface the Node drives, holds one constructed engine per resident
// protocol, and routes every page access, every page-keyed handler
// message and every synchronization payload to the engine owning that
// page. A single-mode system is simply a router with one resident.
//
// The mode table is fixed at construction (Config.Mode / Config.ModeMap);
// the home table is the only mutable routing state (see placement.go).
//
// On shared synchronization messages (lock requests/grants, barrier
// arrivals/exits) each resident engine's consistency payload travels as a
// mode-tagged wire.Section: the router fans the hook out to every
// resident in canonical Mode order, collects each engine's scratch
// payload into its section, and on receive hands each engine a view of
// exactly its own section. Canonical order matters: engines that
// rendezvous inside their hooks (two resident lazy engines each running a
// GC exchange) must do so in the same order on every node.
type router struct {
	n *Node
	// modeTab[pg] is the page's protocol, read on every access and
	// handler dispatch.
	modeTab []Mode
	// homeTab[pg] is the page's current home node, read on every
	// protocol operation that addresses a home (directory transactions,
	// cold fetches, flush targets). Starts as the block interleave and is
	// re-written only inside first-touch's quiescent hand-off rendezvous.
	homeTab []atomic.Int32
	// engines is indexed by Mode; nil entries are not resident. residents
	// lists the non-nil ones in canonical order.
	engines   [8]engine
	order     []Mode
	residents []engine

	// touch counts this node's accesses per page for first-touch's claims.
	// It exists only under PlaceFirstTouch and only until the first
	// cluster barrier, whose leader takes it; from then on, and always
	// under block placement, an access ticks nothing.
	touch atomic.Pointer[[]atomic.Int64]
}

// newRouter builds the node's engine set for a per-page mode table.
func newRouter(n *Node, modes []Mode) *router {
	numPages := n.sys.layout.NumPages()
	r := &router{n: n, modeTab: modes, homeTab: make([]atomic.Int32, numPages)}
	for pg, h := range initialHomes(numPages, n.sys.cfg.Procs) {
		r.homeTab[pg].Store(int32(h))
	}
	if n.sys.cfg.Placement == PlaceFirstTouch {
		touch := make([]atomic.Int64, numPages)
		r.touch.Store(&touch)
	}
	// The engine constructors below read the home table through
	// n.homeOf (directory init), so the router must be reachable from
	// the node before any engine is built.
	n.rt = r
	r.order = distinctModes(modes)
	for _, m := range r.order {
		var e engine
		switch m {
		case LazyInvalidate, LazyUpdate:
			e = newLazyEngine(n, m == LazyUpdate)
		case EagerInvalidate, EagerUpdate:
			e = newEagerEngine(n, m == EagerUpdate)
		case SeqConsistent:
			e = newSCEngine(n)
		default:
			panic(fmt.Sprintf("dsm: node %d: unvalidated mode %d in mode map", n.id, m))
		}
		r.engines[m] = e
		r.residents = append(r.residents, e)
	}
	return r
}

// modeOf returns page pg's protocol.
func (r *router) modeOf(pg mem.PageID) Mode { return r.modeTab[pg] }

// engineFor returns the engine owning page pg.
func (r *router) engineFor(pg mem.PageID) engine {
	return r.engines[r.modeOf(pg)]
}

// homeOf returns page pg's current home node.
func (r *router) homeOf(pg mem.PageID) mem.ProcID {
	return mem.ProcID(r.homeTab[pg].Load())
}

// homes snapshots the current home table.
func (r *router) homes() []mem.ProcID {
	out := make([]mem.ProcID, len(r.homeTab))
	for pg := range r.homeTab {
		out[pg] = mem.ProcID(r.homeTab[pg].Load())
	}
	return out
}

// takeClaims retires the touch table and returns this node's first-touch
// claims: every page it accessed before the first cluster barrier, scored
// by access count. Nil, false once the table is gone. Called by the
// barrier leader goroutine only.
func (r *router) takeClaims() ([]touchClaim, bool) {
	touch := r.touch.Swap(nil)
	if touch == nil {
		return nil, false
	}
	var out []touchClaim
	for pg := range *touch {
		if n := (*touch)[pg].Load(); n > 0 {
			out = append(out, touchClaim{pg: mem.PageID(pg), node: r.n.id, score: uint32(min(n, math.MaxUint32))})
		}
	}
	return out, true
}

// noteTouch counts one access to pg while first-touch is still collecting.
func (r *router) noteTouch(pg mem.PageID) {
	if touch := r.touch.Load(); touch != nil {
		(*touch)[pg].Add(1)
	}
}

// lazyResident returns mode's engine if it is a resident lazy engine
// (the KDiffReq routing tag), nil otherwise.
func (r *router) lazyResident(m Mode) engine {
	if m == LazyInvalidate || m == LazyUpdate {
		return r.engines[m]
	}
	return nil
}

// --- access routing ---

// readPage and writePage call the owning engine through its concrete
// type: an interface call would make the caller's buffer escape, and
// ReadUint64's eight bytes are the access hit path's only allocation.

func (r *router) readPage(pg mem.PageID, off int, dst []byte) error {
	r.noteTouch(pg)
	switch e := r.engineFor(pg).(type) {
	case *lazyEngine:
		return e.readPage(pg, off, dst)
	case *eagerEngine:
		return e.readPage(pg, off, dst)
	default:
		return e.(*scEngine).readPage(pg, off, dst)
	}
}

func (r *router) writePage(pg mem.PageID, off int, src []byte) error {
	r.noteTouch(pg)
	switch e := r.engineFor(pg).(type) {
	case *lazyEngine:
		return e.writePage(pg, off, src)
	case *eagerEngine:
		return e.writePage(pg, off, src)
	default:
		return e.(*scEngine).writePage(pg, off, src)
	}
}

// --- handler routing ---

// handle routes engine traffic. Page-keyed kinds go to the engine that
// owns the page (its verdict is final: a kind the owner does not speak is
// recorded by the caller, exactly as a single-mode node would); diff
// requests route by the requesting engine's mode tag (B), so two
// resident lazy engines keep separate diff stores; anything else — an
// invalid page id included — falls through to the residents in canonical
// order, preserving each engine's own handler-side validation errors.
func (r *router) handle(m *wire.Msg, src mem.ProcID) bool {
	switch m.Kind {
	case wire.KPageReq, wire.KPageResp, wire.KFetch, wire.KInval, wire.KUpdate,
		wire.KFlushReq, wire.KFlushDone, wire.KWriteReq, wire.KWriteResp:
		if pg, ok := pageOf(r.n.sys.layout, m.A); ok {
			return r.engineFor(pg).handle(m, src)
		}
	case wire.KDiffReq:
		if e := r.lazyResident(Mode(m.B)); e != nil {
			return e.handle(m, src)
		}
	}
	for _, e := range r.residents {
		if e.handle(m, src) {
			return true
		}
	}
	return false
}

// --- mode-tagged section fan-out ---

// newScratch returns a message shell carrying m's header fields, for an
// engine hook to fill with its section's payload or read it from (hooks
// are interface calls: a literal would reach the heap with every call).
func newScratch(m *wire.Msg) *wire.Msg {
	v := wire.NewMsg()
	v.Kind, v.Seq, v.A, v.B = m.Kind, m.Seq, m.A, m.B
	return v
}

// sectionView builds engine mode's view of a received shared message:
// header fields shared, consistency payload from exactly its section
// (empty when the sender's engine had nothing to say — identical to the
// pre-section single-mode message with no payload).
func sectionView(m *wire.Msg, mode Mode) *wire.Msg {
	v := newScratch(m)
	for i := range m.Sections {
		if s := &m.Sections[i]; Mode(s.Mode) == mode {
			v.VC, v.Intervals, v.Diffs = s.VC, s.Intervals, s.Diffs
			break
		}
	}
	return v
}

// collectSection appends engine mode's scratch payload to out's sections
// if the engine produced one, and lets the scratch go.
func collectSection(out *wire.Msg, mode Mode, scratch *wire.Msg) {
	if scratch.VC != nil || len(scratch.Intervals) > 0 || len(scratch.Diffs) > 0 {
		out.AppendSection(wire.Section{
			Mode: uint16(mode), VC: scratch.VC,
			Intervals: scratch.Intervals, Diffs: scratch.Diffs,
		})
	}
	scratch.Release()
}

// checkSections validates a received message's mode tags: a section for
// a protocol this node does not host, a duplicated mode, or a clock whose
// length does not match the cluster is a forgery or corruption — recorded
// and dropped (the remaining sections still apply; op names the message
// for the error).
func (r *router) checkSections(op string, m *wire.Msg, src mem.ProcID) {
	var seen [256]bool
	kept := m.Sections[:0]
	for _, s := range m.Sections {
		switch {
		case int(s.Mode) >= len(r.engines) || r.engines[s.Mode] == nil:
			r.n.noteErr(op, fmt.Errorf("section for non-resident mode %d from %d", s.Mode, src))
		case seen[s.Mode]:
			r.n.noteErr(op, fmt.Errorf("duplicate section for mode %v from %d", Mode(s.Mode), src))
		case len(s.VC) != 0 && len(s.VC) != r.n.sys.cfg.Procs:
			r.n.noteErr(op, fmt.Errorf("section for mode %v from %d carries a %d-entry clock (cluster has %d)",
				Mode(s.Mode), src, len(s.VC), r.n.sys.cfg.Procs))
		default:
			seen[s.Mode] = true
			kept = append(kept, s)
		}
	}
	m.Sections = kept
}

// --- synchronization hooks (fan out to every resident, in order) ---

func (r *router) acquireStart(req *wire.Msg) {
	for _, m := range r.order {
		scratch := newScratch(req)
		r.engines[m].acquireStart(scratch)
		collectSection(req, m, scratch)
	}
}

func (r *router) grant(req, grant *wire.Msg) {
	r.checkSections("lock grant build", req, mem.ProcID(req.B))
	for _, m := range r.order {
		view, scratch := sectionView(req, m), newScratch(grant)
		r.engines[m].grant(view, scratch)
		collectSection(grant, m, scratch)
		view.Release()
	}
}

func (r *router) onGrant(grant *wire.Msg) error {
	r.checkSections("lock grant", grant, mem.ProcID(grant.B))
	var first error
	for _, m := range r.order {
		view := sectionView(grant, m)
		if err := r.engines[m].onGrant(view); err != nil && first == nil {
			first = err
		}
		view.Release()
	}
	return first
}

func (r *router) preRelease() error {
	for _, e := range r.residents {
		if err := e.preRelease(); err != nil {
			return err
		}
	}
	return nil
}

func (r *router) release() {
	for _, e := range r.residents {
		e.release()
	}
}

func (r *router) preBarrier() error {
	for _, e := range r.residents {
		if err := e.preBarrier(); err != nil {
			return err
		}
	}
	return nil
}

func (r *router) barrierEntry() {
	for _, e := range r.residents {
		e.barrierEntry()
	}
}

func (r *router) arrive(arrive *wire.Msg) {
	for _, m := range r.order {
		scratch := newScratch(arrive)
		r.engines[m].arrive(scratch)
		collectSection(arrive, m, scratch)
	}
}

func (r *router) masterAbsorb(arrivals []*wire.Msg) {
	for _, m := range arrivals {
		r.checkSections("barrier arrival", m, mem.ProcID(m.B))
	}
	views := make([]*wire.Msg, len(arrivals))
	for _, mode := range r.order {
		for i, m := range arrivals {
			views[i] = sectionView(m, mode)
		}
		r.engines[mode].masterAbsorb(views)
		releaseAll(views)
	}
}

func (r *router) exit(m, exit *wire.Msg) {
	for _, mode := range r.order {
		view, scratch := sectionView(m, mode), newScratch(exit)
		r.engines[mode].exit(view, scratch)
		collectSection(exit, mode, scratch)
		view.Release()
	}
}

func (r *router) onExit(exit *wire.Msg) error {
	r.checkSections("barrier exit", exit, mem.ProcID(exit.B))
	var first error
	for _, m := range r.order {
		view := sectionView(exit, m)
		if err := r.engines[m].onExit(view); err != nil && first == nil {
			first = err
		}
		view.Release()
	}
	return first
}

func (r *router) postBarrier(b mem.BarrierID) error {
	var first error
	for _, e := range r.residents {
		if err := e.postBarrier(b); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// dropPage and adoptPage complete the engine interface; the hand-off
// calls the owning engine directly.
func (r *router) dropPage(pg mem.PageID)               { r.engineFor(pg).dropPage(pg) }
func (r *router) adoptPage(pg mem.PageID, data []byte) { r.engineFor(pg).adoptPage(pg, data) }

// clock merges the resident engines' vector times (non-causal engines
// report zeros, so a mixed node's clock is its lazy engines' joint
// time).
func (r *router) clock() vc.VC {
	out := r.residents[0].clock()
	for _, e := range r.residents[1:] {
		out = out.Max(e.clock())
	}
	return out
}

// --- stats surface ---

// PageStat is one page's routing state in a Stats snapshot.
type PageStat struct {
	Page int
	Mode string
	Home int // current home node (directory / cold-copy server)
}

// fillPageStats appends to a Stats value the pages routed off the
// configured default: those a mode map gave another protocol than
// Config.Mode and those first-touch moved off their block home.
func (r *router) fillPageStats(st *Stats) {
	cfg := &r.n.sys.cfg
	for pg, m := range r.modeTab {
		if home := int(r.homeOf(mem.PageID(pg))); m != cfg.Mode || home != pg%cfg.Procs {
			st.Pages = append(st.Pages, PageStat{Page: pg, Mode: m.String(), Home: home})
		}
	}
}

// pageModes returns a copy of the mode table.
func (r *router) pageModes() []Mode { return slices.Clone(r.modeTab) }
