package dsm

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/mem"
	"repro/internal/wire"
)

// Adaptive per-page protocol selection and home placement.
//
// Every AdaptEveryBarriers-th cluster barrier doubles as a classification
// epoch: each node ships its per-page access counter deltas to the
// barrier master inside its KBarrierArrive payload (opaque bytes in
// Msg.Data — the consistency sections are untouched). The master checks
// every node reports the same classification epoch, aggregates the
// deltas, classifies each active page by its observed sharing pattern,
// and broadcasts the resulting re-route set in every KBarrierExit. With
// Config.MigrateHomes the same exchange also re-homes pages to their
// dominant writer, and under the first-touch placement the very first
// cluster barrier carries each node's touch claims up and the agreed
// home table down — home deltas ride the exit payload beside the
// re-routes either way. Nodes then apply the whole plan in a dedicated
// two-round ready/go rendezvous (KReclassReady/KReclassGo, mirroring
// the GC rendezvous) before any application goroutine leaves the
// barrier:
//
//	round 1 — every node brings the pages it will home AFTER the plan
//	          current under the OLD engine (a whole-page read pulls
//	          outstanding diffs or the owner copy while every peer's
//	          old engine — and old home — is still routable);
//	round 2 — purely local: each node drops the page from the old
//	          engine, flips its mode and home table entries, and hands
//	          the new home's bytes to the new engine. The master
//	          releases the cluster only after all nodes confirm, so no
//	          node ever sees a page under two protocols — or two homes
//	          — at once.
//
// The rendezvous costs 4(Procs-1) small messages and runs only on epochs
// that actually move at least one page.

// adaptTargets are the protocols the classifier routes pages to; their
// engines are always resident when adaptation is enabled.
var adaptTargets = []Mode{LazyInvalidate, LazyUpdate, SeqConsistent}

// adaptMinAccesses is the minimum aggregate local activity (reads+writes
// cluster-wide) a page must show in an epoch before the classifier will
// move it; quieter pages keep their current protocol.
const adaptMinAccesses = 16

// migrateMinWrites is the minimum epoch write count the dominant writer
// must show before its page's home migrates; quieter pages stay put. The
// bar is deliberately lower than adaptMinAccesses: a protocol flip
// changes a page's whole consistency machinery and wants strong
// evidence, while a home move is a pure placement hint — every protocol
// stays correct under any home — so it may act on traffic the
// classifier still considers too quiet to re-route.
const migrateMinWrites = 8

// pageClass is the classifier's verdict on a page's sharing pattern over
// one epoch.
type pageClass int32

const (
	classUnknown      pageClass = iota // not yet classified
	classIdle                          // no activity this epoch
	classReadOnly                      // read, never written
	classPrivate                       // one writer, no outside readers
	classSingleWriter                  // one writer, outside readers
	classMigratory                     // several writers taking turns
	classFalseShared                   // several writers, diff-heavy
)

var classNames = [...]string{"unknown", "idle", "readonly", "private", "single-writer", "migratory", "false-shared"}

func (c pageClass) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return fmt.Sprintf("class(%d)", int32(c))
	}
	return classNames[c]
}

// classify maps one page's cluster-aggregated epoch counters to a
// sharing class and the protocol that serves it best. readerMask is the
// set of nodes that read the page locally this epoch.
//
// The heuristics follow the paper's taxonomy: a page written by exactly
// one node and read only by that node is private — sequential
// consistency serves it with zero messages once the writer owns it, and
// it stops contributing write notices to every lock grant and barrier.
// One writer with outside readers is the classic single-writer producer/
// consumer page: an update protocol pushes the producer's diffs to the
// consumers on the synchronization they already perform, where
// invalidate makes every consumer miss and re-fetch (§5.3's update
// advantage). Several writers — falsely shared (diff traffic well above
// the writer count) or migratory (writers taking turns under locks) —
// route to lazy update: its diffs ride lock grants the handoff already
// pays for, where invalidate costs the next holder a separate diff
// fetch round-trip per handoff. The migratory/false-shared split is
// reported in the per-page stats but routes identically; the classes
// differ in bytes (whole-page history vs disjoint diffs), not message
// count, and message count is what the classifier minimizes.
func classify(d counterDelta, readerMask uint64) (pageClass, Mode, bool) {
	writers := bits.OnesCount64(d.writers)
	if d.localReads+d.localWrites < adaptMinAccesses {
		if d.localReads+d.localWrites+d.remoteReads+d.remoteWrites == 0 {
			return classIdle, 0, false
		}
		return classUnknown, 0, false
	}
	switch {
	case writers == 0:
		return classReadOnly, 0, false
	case writers == 1:
		if readerMask&^d.writers == 0 {
			return classPrivate, SeqConsistent, true
		}
		return classSingleWriter, LazyUpdate, true
	case d.diffs >= int64(2*writers):
		return classFalseShared, LazyUpdate, true
	default:
		return classMigratory, LazyUpdate, true
	}
}

// reroute is one page's protocol change, as broadcast in the barrier
// exit.
type reroute struct {
	pg   mem.PageID
	mode Mode
	cls  pageClass
}

// --- counter snapshotting ---

// snapshotDeltas captures this node's per-page counter deltas since the
// last classification epoch and advances the snapshot. Called by the
// barrier leader goroutine only; concurrent remote-side ticks from shard
// workers at worst slide one epoch over, which the heuristics tolerate.
func (r *router) snapshotDeltas() []counterDelta {
	out := make([]counterDelta, len(r.ctr))
	for pg := range r.ctr {
		c, prev := &r.ctr[pg], &r.prevCtr[pg]
		d := counterDelta{
			localReads:   c.localReads.Load() - prev.localReads,
			localWrites:  c.localWrites.Load() - prev.localWrites,
			remoteReads:  c.remoteReads.Load() - prev.remoteReads,
			remoteWrites: c.remoteWrites.Load() - prev.remoteWrites,
			diffs:        c.diffs.Load() - prev.diffs,
			writers:      c.writers.Swap(0),
		}
		prev.localReads += d.localReads
		prev.localWrites += d.localWrites
		prev.remoteReads += d.remoteReads
		prev.remoteWrites += d.remoteWrites
		prev.diffs += d.diffs
		out[pg] = d
	}
	return out
}

// --- wire payloads (opaque Msg.Data blobs, defensively decoded) ---

// maxExchangeBytes bounds either barrier blob for a space of numPages: an
// arrival names a page at most once per list (48-byte delta, 8-byte
// claim), an exit plan less (12-byte re-route, 8-byte home). New holds it
// to what one message's Data block may carry.
func maxExchangeBytes(numPages int) int { return 12 + (48+8)*numPages }

// encodeExchange packs a barrier arrival's placement/classification
// payload: epoch, delta count, claim count, then the non-zero 48-byte
// counter entries and the 8-byte first-touch claims. Deltas are present
// on classification epochs, claims only on the first-touch exchange
// barrier; either list may be empty.
func encodeExchange(epoch uint32, deltas []counterDelta, claims []homeClaim) []byte {
	active := 0
	for pg := range deltas {
		if deltas[pg] != (counterDelta{}) {
			active++
		}
	}
	buf := make([]byte, 0, 12+48*active+8*len(claims))
	buf = binary.LittleEndian.AppendUint32(buf, epoch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(active))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(claims)))
	for pg := range deltas {
		d := &deltas[pg]
		if *d == (counterDelta{}) {
			continue
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(pg))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(d.localReads))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(d.localWrites))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(d.remoteWrites))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(d.diffs))
		buf = binary.LittleEndian.AppendUint64(buf, d.writers)
	}
	for _, c := range claims {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.pg))
		buf = binary.LittleEndian.AppendUint32(buf, c.score)
	}
	return buf
}

// decodeExchange unpacks a peer's arrival payload into a full-size
// delta slice and its first-touch claims, plus the reported epoch.
// Malformed payloads (truncated, hostile counts, out-of-range or
// duplicated pages) return an error; the caller records it and treats
// the peer as reporting nothing.
func decodeExchange(data []byte, numPages int) (uint32, []counterDelta, []homeClaim, error) {
	if len(data) < 12 {
		return 0, nil, nil, fmt.Errorf("dsm: adaptive payload truncated at %d bytes", len(data))
	}
	epoch := binary.LittleEndian.Uint32(data)
	nDeltas := binary.LittleEndian.Uint32(data[4:])
	nClaims := binary.LittleEndian.Uint32(data[8:])
	if int(nDeltas) > numPages || int(nClaims) > numPages {
		return 0, nil, nil, fmt.Errorf("dsm: adaptive payload claims %d deltas + %d claims for %d pages", nDeltas, nClaims, numPages)
	}
	want := 12 + 48*int(nDeltas) + 8*int(nClaims)
	if len(data) != want {
		return 0, nil, nil, fmt.Errorf("dsm: adaptive payload is %d bytes, want %d for %d deltas + %d claims", len(data), want, nDeltas, nClaims)
	}
	deltas := make([]counterDelta, numPages)
	off := 12
	for i := 0; i < int(nDeltas); i++ {
		pg := binary.LittleEndian.Uint64(data[off:])
		if pg >= uint64(numPages) {
			return 0, nil, nil, fmt.Errorf("dsm: adaptive payload delta %d names page %d of %d", i, pg, numPages)
		}
		d := &deltas[pg]
		d.localReads = int64(binary.LittleEndian.Uint64(data[off+8:]))
		d.localWrites = int64(binary.LittleEndian.Uint64(data[off+16:]))
		d.remoteWrites = int64(binary.LittleEndian.Uint64(data[off+24:]))
		d.diffs = int64(binary.LittleEndian.Uint64(data[off+32:]))
		d.writers = binary.LittleEndian.Uint64(data[off+40:])
		off += 48
	}
	var claims []homeClaim
	seen := make(map[uint32]bool, nClaims)
	for i := 0; i < int(nClaims); i++ {
		pg := binary.LittleEndian.Uint32(data[off:])
		score := binary.LittleEndian.Uint32(data[off+4:])
		off += 8
		if int(pg) >= numPages {
			return 0, nil, nil, fmt.Errorf("dsm: adaptive payload claim %d names page %d of %d", i, pg, numPages)
		}
		if seen[pg] {
			return 0, nil, nil, fmt.Errorf("dsm: adaptive payload claims page %d twice", pg)
		}
		seen[pg] = true
		claims = append(claims, homeClaim{pg: mem.PageID(pg), score: score})
	}
	return epoch, deltas, claims, nil
}

// encodeExitPlan packs the master's decision for the barrier exit: new
// epoch, re-route count, home-delta count, then the 12-byte (page,
// mode, class) triples and the 8-byte (page, home) pairs.
func encodeExitPlan(epoch uint32, routes []reroute, homes []homeDelta) []byte {
	buf := make([]byte, 0, 12+12*len(routes)+8*len(homes))
	buf = binary.LittleEndian.AppendUint32(buf, epoch)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(routes)))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(homes)))
	for _, rt := range routes {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(rt.pg))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(rt.mode))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(rt.cls))
	}
	for _, h := range homes {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(h.pg))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(h.home))
	}
	return buf
}

// decodeExitPlan unpacks a barrier exit's plan payload. The exit comes
// from the barrier master this node already trusts for barrier
// sequencing, but the payload is still bounds-checked, with two failure
// severities:
//
//   - a structurally undecodable payload — or an invalid re-route set —
//     returns err and must fail the barrier loudly rather than
//     desynchronize the cluster's mode tables;
//   - an invalid HOME section (out-of-range page or node, overlapping
//     deltas naming one page twice) returns homeErr with the home
//     deltas dropped and the re-routes intact: homes are a placement
//     optimization, so a forged or corrupt home-delta section is
//     recorded and dropped, never applied and never fatal.
func decodeExitPlan(data []byte, numPages, procs int) (epoch uint32, routes []reroute, homes []homeDelta, homeErr, err error) {
	if len(data) < 12 {
		return 0, nil, nil, nil, fmt.Errorf("dsm: exit plan truncated at %d bytes", len(data))
	}
	epoch = binary.LittleEndian.Uint32(data)
	nRoutes := binary.LittleEndian.Uint32(data[4:])
	nHomes := binary.LittleEndian.Uint32(data[8:])
	if int(nRoutes) > numPages || int(nHomes) > numPages {
		return 0, nil, nil, nil, fmt.Errorf("dsm: exit plan claims %d re-routes + %d home deltas for %d pages", nRoutes, nHomes, numPages)
	}
	if want := 12 + 12*int(nRoutes) + 8*int(nHomes); len(data) != want {
		return 0, nil, nil, nil, fmt.Errorf("dsm: exit plan is %d bytes, want %d for %d re-routes + %d home deltas", len(data), want, nRoutes, nHomes)
	}
	off := 12
	routes = make([]reroute, 0, nRoutes)
	for i := 0; i < int(nRoutes); i++ {
		pg := binary.LittleEndian.Uint32(data[off:])
		mode := Mode(binary.LittleEndian.Uint32(data[off+4:]))
		cls := pageClass(binary.LittleEndian.Uint32(data[off+8:]))
		off += 12
		if int(pg) >= numPages {
			return 0, nil, nil, nil, fmt.Errorf("dsm: re-route entry %d names page %d of %d", i, pg, numPages)
		}
		if !mode.Valid() {
			return 0, nil, nil, nil, fmt.Errorf("dsm: re-route entry %d carries invalid mode %d", i, mode)
		}
		routes = append(routes, reroute{pg: mem.PageID(pg), mode: mode, cls: cls})
	}
	seen := make(map[uint32]bool, nHomes)
	for i := 0; i < int(nHomes); i++ {
		pg := binary.LittleEndian.Uint32(data[off:])
		home := binary.LittleEndian.Uint32(data[off+4:])
		off += 8
		switch {
		case int(pg) >= numPages:
			return epoch, routes, nil, fmt.Errorf("dsm: home delta %d names page %d of %d", i, pg, numPages), nil
		case int(home) >= procs:
			return epoch, routes, nil, fmt.Errorf("dsm: home delta %d homes page %d at node %d of %d", i, pg, home, procs), nil
		case seen[pg]:
			return epoch, routes, nil, fmt.Errorf("dsm: overlapping home deltas for page %d", pg), nil
		}
		seen[pg] = true
		homes = append(homes, homeDelta{pg: mem.PageID(pg), home: mem.ProcID(home)})
	}
	return epoch, routes, homes, nil, nil
}

// --- master-side classification and placement ---

// ftClaim is one aggregated first-touch claim at the master: which node
// claims which page, how strongly.
type ftClaim struct {
	pg    mem.PageID
	node  mem.ProcID
	score uint32
}

// adaptState accumulates the adaptive exchange on the barrier master
// across the arrival collection loop.
type adaptState struct {
	epoch    uint32
	nodes    []mem.ProcID     // contributing node per deltas entry
	deltas   [][]counterDelta // that node's per-page deltas
	claims   []ftClaim        // aggregated first-touch claims
	mismatch bool
}

// absorbPeerExchange decodes one peer arrival's exchange payload into
// the state (master only). wantDeltas is set on classification epochs,
// wantClaims on the first-touch exchange barrier.
func (n *Node) absorbPeerExchange(st *adaptState, m *wire.Msg, wantDeltas, wantClaims bool) {
	if len(m.Data) == 0 {
		// A peer with nothing to report still must agree on the epoch;
		// an empty payload only happens when a frame was forged or a
		// node skipped the exchange.
		n.noteErr("adaptive exchange", fmt.Errorf("node %d sent no exchange payload for epoch %d", m.B, st.epoch))
		st.mismatch = true
		return
	}
	epoch, deltas, claims, err := decodeExchange(m.Data, n.sys.layout.NumPages())
	if err != nil {
		n.noteErr("adaptive exchange", fmt.Errorf("node %d: %w", m.B, err))
		st.mismatch = true
		return
	}
	if epoch != st.epoch {
		n.noteErr("adaptive exchange", fmt.Errorf("node %d reports classification epoch %d, master is at %d", m.B, epoch, st.epoch))
		st.mismatch = true
		return
	}
	if wantDeltas {
		st.nodes = append(st.nodes, mem.ProcID(m.B))
		st.deltas = append(st.deltas, deltas)
	}
	if wantClaims {
		for _, c := range claims {
			st.claims = append(st.claims, ftClaim{pg: c.pg, node: mem.ProcID(m.B), score: c.score})
		}
	}
}

// classifyRoutes aggregates the exchange (the master's own deltas
// included) and returns the pages whose best protocol differs from their
// current route, plus the epoch the cluster moves to. On any epoch
// mismatch or undecodable peer payload the whole epoch is skipped —
// re-routing from partial counters could split the cluster's view of a
// page's sharing pattern.
func (r *router) classifyRoutes(st *adaptState) (uint32, []reroute) {
	if st.mismatch {
		return st.epoch, nil
	}
	numPages := len(r.ctr)
	agg := make([]counterDelta, numPages)
	readerMask := make([]uint64, numPages)
	for i, deltas := range st.deltas {
		bit := uint64(1) << uint(st.nodes[i])
		for pg := range deltas {
			d := &deltas[pg]
			a := &agg[pg]
			a.localReads += d.localReads
			a.localWrites += d.localWrites
			a.remoteWrites += d.remoteWrites
			a.diffs += d.diffs
			a.writers |= d.writers
			if d.localReads > 0 {
				readerMask[pg] |= bit
			}
		}
	}
	var routes []reroute
	for pg := 0; pg < numPages; pg++ {
		cls, mode, move := classify(agg[pg], readerMask[pg])
		if cls != classIdle {
			r.classTab[pg].Store(int32(cls))
		}
		if move && mode != r.modeOf(mem.PageID(pg)) {
			routes = append(routes, reroute{pg: mem.PageID(pg), mode: mode, cls: cls})
		}
	}
	if len(routes) == 0 {
		return st.epoch, nil
	}
	return st.epoch + 1, routes
}

// planHomeMoves decides the epoch's home migrations from the exchanged
// per-node write counters (master only, Config.MigrateHomes): a page
// moves to its dominant writer when that writer did real work
// (migrateMinWrites), wrote an outright majority of the epoch's writes,
// and wrote at least twice what the current home did. The 2x-the-home
// bar is the hysteresis: immediately after a migration the new home
// satisfies it and every other node has to out-write the new home
// two-to-one to move the page again, so homes don't ping-pong between
// nodes trading small leads.
func (r *router) planHomeMoves(st *adaptState) []homeDelta {
	if st.mismatch || len(st.deltas) == 0 {
		return nil
	}
	numPages := len(r.ctr)
	writes := make([][64]int64, numPages)
	for i, deltas := range st.deltas {
		node := st.nodes[i]
		for pg := range deltas {
			if w := deltas[pg].localWrites; w > 0 {
				writes[pg][node] += w
			}
		}
	}
	var moves []homeDelta
	for pg := 0; pg < numPages; pg++ {
		var total, wDom int64
		dom := mem.ProcID(0)
		for node := 0; node < r.n.sys.cfg.Procs; node++ {
			w := writes[pg][node]
			total += w
			if w > wDom {
				wDom, dom = w, mem.ProcID(node)
			}
		}
		home := r.homeOf(mem.PageID(pg))
		if dom == home || wDom < migrateMinWrites {
			continue
		}
		if 2*wDom <= total || wDom < 2*writes[pg][home] {
			continue
		}
		moves = append(moves, homeDelta{pg: mem.PageID(pg), home: dom})
	}
	return moves
}

// planFirstTouch resolves the exchanged first-touch claims into home
// deltas (master only, first barrier under PlaceFirstTouch): each
// claimed page goes to its strongest toucher, ties to the lowest node
// id; unclaimed pages keep their provisional block home.
func (r *router) planFirstTouch(st *adaptState) []homeDelta {
	if st.mismatch || len(st.claims) == 0 {
		return nil
	}
	type winner struct {
		node  mem.ProcID
		score uint32
		any   bool
	}
	best := make(map[mem.PageID]winner)
	for _, c := range st.claims {
		w := best[c.pg]
		if !w.any || c.score > w.score || (c.score == w.score && c.node < w.node) {
			best[c.pg] = winner{node: c.node, score: c.score, any: true}
		}
	}
	var moves []homeDelta
	for pg := 0; pg < len(r.ctr); pg++ {
		w, ok := best[mem.PageID(pg)]
		if !ok || w.node == r.homeOf(mem.PageID(pg)) {
			continue
		}
		moves = append(moves, homeDelta{pg: mem.PageID(pg), home: w.node})
	}
	return moves
}

// --- applying an epoch plan ---

// pageMove is one page's merged plan entry: an optional protocol change
// and an optional home change, applied atomically in round 2.
type pageMove struct {
	pg      mem.PageID
	reroute bool
	mode    Mode
	cls     pageClass
	rehome  bool
	home    mem.ProcID // the page's home AFTER the plan
}

// mergePlan folds a re-route set and a home-delta set into per-page
// moves. Every move records the page's post-plan home — that node is
// responsible for carrying the authoritative bytes through the flip.
func (n *Node) mergePlan(routes []reroute, homes []homeDelta) []pageMove {
	moves := make([]pageMove, 0, len(routes)+len(homes))
	idx := make(map[mem.PageID]int, len(routes)+len(homes))
	for _, rt := range routes {
		idx[rt.pg] = len(moves)
		moves = append(moves, pageMove{
			pg: rt.pg, reroute: true, mode: rt.mode, cls: rt.cls,
			home: n.homeOf(rt.pg),
		})
	}
	for _, h := range homes {
		if i, ok := idx[h.pg]; ok {
			moves[i].rehome = true
			moves[i].home = h.home
			continue
		}
		moves = append(moves, pageMove{pg: h.pg, rehome: true, home: h.home})
	}
	return moves
}

// applyReclass runs the two-round reclassification rendezvous for a
// non-empty epoch plan (re-routes, home moves, or both). Every node
// (master included) executes this after its barrier exit work, while
// all application goroutines are still parked in Barrier.
func (n *Node) applyReclass(b mem.BarrierID, routes []reroute, homes []homeDelta, newEpoch uint32) error {
	r := n.rt
	pageSize := n.sys.layout.PageSize()
	moves := n.mergePlan(routes, homes)

	// Round 1: bring every page this node homes AFTER the plan current
	// under its old engine. Peers' old engines (and old homes) are
	// still fully routable, so this can pull outstanding diffs or fetch
	// the owner copy over the network — for a migrating page the NEW
	// home does the fetch, pulling the authoritative copy across before
	// the old home surrenders its directory entry and cold-copy role.
	scratch := make([]byte, pageSize)
	for _, mv := range moves {
		if mv.home != n.id {
			continue
		}
		if err := r.engineFor(mv.pg).readPage(mv.pg, 0, scratch); err != nil {
			return fmt.Errorf("dsm: node %d: reclass fetch of page %d: %w", n.id, mv.pg, err)
		}
	}
	if err := n.reclassRendezvous(b); err != nil {
		return err
	}

	// Round 2: purely local — no page traffic is in flight anywhere in
	// the cluster now. Re-read the new home's copy (valid after round
	// 1, so this touches no socket), then flip home and mode tables and
	// drop/adopt per page. The home table flips before the drop so the
	// engines' directory resets (owner := home) land on the new home.
	migrated := 0
	for _, mv := range moves {
		old := r.engineFor(mv.pg)
		next := old
		if mv.reroute {
			next = r.engines[mv.mode]
		}
		var data []byte
		if mv.home == n.id {
			data = make([]byte, pageSize)
			if err := old.readPage(mv.pg, 0, data); err != nil {
				return fmt.Errorf("dsm: node %d: reclass local read of page %d: %w", n.id, mv.pg, err)
			}
		}
		if mv.rehome {
			r.homeTab[mv.pg].Store(int32(mv.home))
			if mv.home == n.id {
				n.stats.pageMigrations.Add(1)
				migrated++
			}
		}
		old.dropPage(mv.pg)
		if mv.reroute {
			r.modeTab[mv.pg].Store(int32(mv.mode))
			r.classTab[mv.pg].Store(int32(mv.cls))
		}
		next.adoptPage(mv.pg, data)
	}
	r.epoch.Store(newEpoch)
	if len(routes) > 0 {
		n.emit("adapt", "reclass", int64(len(routes)))
	}
	if migrated > 0 {
		n.emit("adapt", "migrate", int64(migrated))
	}
	if err := n.reclassRendezvous(b); err != nil {
		return err
	}
	return nil
}

// reclassRendezvous is one ready/go round over every node, shaped
// exactly like the GC rendezvous: non-masters send KReclassReady and
// block for the matching KReclassGo; the master collects Procs-1 readies
// off reclassCh and releases them. Per-sender FIFO delivery keeps a
// node's round-1 ready ahead of its round-2 ready, so the master never
// needs to label rounds.
func (n *Node) reclassRendezvous(b mem.BarrierID) error {
	const master = 0
	if n.id != master {
		ready := &wire.Msg{Kind: wire.KReclassReady, Seq: n.nextSeq(), A: int32(b), B: int32(n.id)}
		resp, err := n.rpc(mem.ProcID(master), ready)
		if err != nil {
			return fmt.Errorf("dsm: node %d: reclass rendezvous: %w", n.id, err)
		}
		resp.Release()
		return nil
	}
	ready := make([]*wire.Msg, 0, n.sys.cfg.Procs-1)
	for len(ready) < n.sys.cfg.Procs-1 {
		m, err := n.collect(n.reclassCh, "master: reclass rendezvous")
		if err != nil {
			return err
		}
		if int(m.A) != int(b) || !n.validProc(mem.ProcID(m.B)) {
			n.noteErr("reclass rendezvous", fmt.Errorf("unexpected ready for barrier %d from %d", m.A, m.B))
			m.Release()
			continue
		}
		ready = append(ready, m)
	}
	for _, m := range ready {
		go2 := &wire.Msg{Kind: wire.KReclassGo, Seq: m.Seq, A: int32(b)}
		n.send(mem.ProcID(m.B), go2)
		m.Release()
	}
	return nil
}
