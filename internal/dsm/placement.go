package dsm

import (
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync/atomic"

	"repro/internal/mem"
)

// Page placement: which node homes each page.
//
// A page's home is its directory entry under the eager and SC engines
// and its cold-copy server (and GC materialization point) under the
// lazy ones. A flush or directory transaction that lands on a local home
// is loopback — free in the paper's message accounting — which is what
// homing a page at the node that uses it buys.

// homeTable is a node's page→home map: one atomic entry per page, read
// lock-free on every protocol operation that addresses a home (directory
// transactions, cold fetches, flush targets) and written only inside the
// first barrier's hand-off rendezvous (below) while every application
// goroutine cluster-wide is parked, so a page never has traffic in flight
// under two homes at once.
//
// touch counts the node's accesses per page for first-touch's claims. It
// exists only under PlaceFirstTouch and only until the first cluster
// barrier, whose leader takes it; from then on, and always under block
// placement, an access ticks nothing.
type homeTable struct {
	home  []atomic.Int32
	touch atomic.Pointer[[]atomic.Int64]
}

// init starts the table at the block interleave every policy begins from,
// with a touch table when first-touch will refine it.
func (h *homeTable) init(numPages, procs int, firstTouch bool) {
	h.home = make([]atomic.Int32, numPages)
	for pg, home := range initialHomes(numPages, procs) {
		h.home[pg].Store(int32(home))
	}
	if firstTouch {
		touch := make([]atomic.Int64, numPages)
		h.touch.Store(&touch)
	}
}

// of returns page pg's current home node.
func (h *homeTable) of(pg mem.PageID) mem.ProcID {
	return mem.ProcID(h.home[pg].Load())
}

// snapshot copies the current table.
func (h *homeTable) snapshot() []mem.ProcID {
	out := make([]mem.ProcID, len(h.home))
	for pg := range h.home {
		out[pg] = h.of(mem.PageID(pg))
	}
	return out
}

// noteTouch counts one access to pg while first-touch is still collecting.
func (h *homeTable) noteTouch(pg mem.PageID) {
	if touch := h.touch.Load(); touch != nil {
		(*touch)[pg].Add(1)
	}
}

// takeClaims retires the touch table and returns node self's first-touch
// claims: every page it accessed before the first cluster barrier, scored
// by access count. Nil, false once the table is gone. Called by the
// barrier leader goroutine only.
func (h *homeTable) takeClaims(self mem.ProcID) ([]touchClaim, bool) {
	touch := h.touch.Swap(nil)
	if touch == nil {
		return nil, false
	}
	var out []touchClaim
	for pg := range *touch {
		if n := (*touch)[pg].Load(); n > 0 {
			out = append(out, touchClaim{pg: mem.PageID(pg), node: self, score: uint32(min(n, math.MaxUint32))})
		}
	}
	return out, true
}

// PageStat is one re-homed page in a Stats snapshot.
type PageStat struct {
	Page int
	Home int // current home node (directory / cold-copy server)
}

// moved returns the pages first-touch moved off their block home.
func (h *homeTable) moved(procs int) []PageStat {
	var out []PageStat
	for pg := range h.home {
		if home := int(h.of(mem.PageID(pg))); home != pg%procs {
			out = append(out, PageStat{Page: pg, Home: home})
		}
	}
	return out
}

// Placement selects the initial page→home assignment policy.
type Placement int

const (
	// PlaceBlock interleaves single pages across the nodes:
	// home(pg) = pg % Procs (the historical static assignment).
	PlaceBlock Placement = iota
	// PlaceFirstTouch starts from the block assignment and re-homes
	// each page to the node that touched it most before the first
	// cluster barrier (ties to the lowest node id). The claims are
	// exchanged on the first barrier's arrive/exit payloads and applied
	// in the quiescent hand-off rendezvous, so the whole cluster swaps
	// tables at once. Pages untouched before the first barrier keep
	// their block home.
	PlaceFirstTouch
)

var placementNames = map[Placement]string{
	PlaceBlock:      "block",
	PlaceFirstTouch: "first-touch",
}

// Placements lists every supported placement policy.
var Placements = []Placement{PlaceBlock, PlaceFirstTouch}

// String returns the policy's flag name.
func (p Placement) String() string {
	if s, ok := placementNames[p]; ok {
		return s
	}
	return fmt.Sprintf("Placement(%d)", int(p))
}

// Valid reports whether p names a supported placement policy.
func (p Placement) Valid() bool {
	_, ok := placementNames[p]
	return ok
}

// PlacementNames returns the supported policy names, comma-separated,
// for error messages and flag help.
func PlacementNames() string {
	names := make([]string, len(Placements))
	for i, p := range Placements {
		names[i] = p.String()
	}
	return strings.Join(names, ", ")
}

// ParsePlacement maps a policy name ("block", "first-touch") to
// its Placement. The empty string is the default block policy.
func ParsePlacement(s string) (Placement, error) {
	if s == "" {
		return PlaceBlock, nil
	}
	for _, p := range Placements {
		if placementNames[p] == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("dsm: unknown placement %q (supported: %s)", s, PlacementNames())
}

// initialHomes builds the static page→home table every policy starts
// from: the block interleave. PlaceFirstTouch's exchange at the first
// barrier refines it.
func initialHomes(numPages, procs int) []mem.ProcID {
	homes := make([]mem.ProcID, numPages)
	for pg := range homes {
		homes[pg] = mem.ProcID(pg % procs)
	}
	return homes
}

// FormatHomeTable renders a home table as run-length page ranges
// ("pg0-3=0,pg4-7=1,..."), for /statusz and -statsjson.
func FormatHomeTable(homes []mem.ProcID) string {
	if len(homes) == 0 {
		return ""
	}
	var b strings.Builder
	start := 0
	flush := func(end int) {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		if end-start == 1 {
			fmt.Fprintf(&b, "pg%d=%d", start, homes[start])
		} else {
			fmt.Fprintf(&b, "pg%d-%d=%d", start, end-1, homes[start])
		}
	}
	for pg := 1; pg < len(homes); pg++ {
		if homes[pg] != homes[start] {
			flush(pg)
			start = pg
		}
	}
	flush(len(homes))
	return b.String()
}

// First-touch hand-off. Under PlaceFirstTouch the first cluster barrier
// carries each node's touch claims up to the barrier master in its
// KBarrierArrive and the master's home moves down in every KBarrierExit
// (opaque bytes in Msg.Data — the consistency sections are untouched).
// Every node then applies the moves in two ready/go rounds of the
// post-barrier rendezvous (Node.rendezvous, the GC's too) before any
// application goroutine leaves the barrier:
//
//	round 1 — every node brings the pages it will home AFTER the plan
//	          current (a whole-page read pulls outstanding diffs or the
//	          owner copy while every peer's old home is still routable);
//	round 2 — purely local: each node drops the page, flips its home
//	          table entry, and the new home adopts its bytes. The master
//	          releases the cluster only after all nodes confirm, so no
//	          node ever sees a page under two homes at once.
//
// The rendezvous costs 4(Procs-1) small messages and runs only when at
// least one page moves.

// homeDelta is one page's home change, as decided by the barrier master
// and broadcast in the barrier exit.
type homeDelta struct {
	pg   mem.PageID
	home mem.ProcID
}

// touchClaim is one node's first-touch claim on a page: how much it
// touched the page before the first cluster barrier.
type touchClaim struct {
	pg    mem.PageID
	node  mem.ProcID
	score uint32
}

// --- wire payloads (opaque Msg.Data blobs, defensively decoded) ---

// maxExchangeBytes bounds either barrier blob for a space of numPages: a
// count, then at most one 8-byte entry per page. New holds it to what one
// message's Data block may carry.
func maxExchangeBytes(numPages int) int { return 4 + 8*numPages }

// encodeClaims packs a barrier arrival's first-touch payload: claim
// count, then 8-byte (page, score) pairs.
func encodeClaims(claims []touchClaim) []byte {
	buf := binary.LittleEndian.AppendUint32(make([]byte, 0, 4+8*len(claims)), uint32(len(claims)))
	for _, c := range claims {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.pg))
		buf = binary.LittleEndian.AppendUint32(buf, c.score)
	}
	return buf
}

// exchangeEntries checks an exchange blob's framing before anything is
// allocated for it — the count fits the space and the length is exactly
// the count's — and returns the 8-byte entries.
func exchangeEntries(what string, data []byte, numPages int) ([]byte, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("dsm: %s truncated at %d bytes", what, len(data))
	}
	n := binary.LittleEndian.Uint32(data)
	if int(n) > numPages {
		return nil, fmt.Errorf("dsm: %s counts %d entries for %d pages", what, n, numPages)
	}
	if want := 4 + 8*int(n); len(data) != want {
		return nil, fmt.Errorf("dsm: %s is %d bytes, want %d for %d entries", what, len(data), want, n)
	}
	return data[4:], nil
}

// decodeClaims unpacks node's arrival payload into its first-touch
// claims. Malformed payloads (truncated, hostile counts, out-of-range or
// duplicated pages) return an error; the master records it and skips the
// placement.
func decodeClaims(data []byte, node mem.ProcID, numPages int) ([]touchClaim, error) {
	entries, err := exchangeEntries("first-touch claims", data, numPages)
	if err != nil {
		return nil, err
	}
	n := len(entries) / 8
	claims := make([]touchClaim, 0, n)
	seen := make(map[uint32]bool, n)
	for i := 0; i < n; i++ {
		pg := binary.LittleEndian.Uint32(entries[8*i:])
		if int(pg) >= numPages {
			return nil, fmt.Errorf("dsm: first-touch claim %d names page %d of %d", i, pg, numPages)
		}
		if seen[pg] {
			return nil, fmt.Errorf("dsm: first-touch payload claims page %d twice", pg)
		}
		seen[pg] = true
		claims = append(claims, touchClaim{pg: mem.PageID(pg), node: node, score: binary.LittleEndian.Uint32(entries[8*i+4:])})
	}
	return claims, nil
}

// encodeHomePlan packs the master's decision for the barrier exit: home
// delta count, then 8-byte (page, home) pairs.
func encodeHomePlan(homes []homeDelta) []byte {
	buf := binary.LittleEndian.AppendUint32(make([]byte, 0, 4+8*len(homes)), uint32(len(homes)))
	for _, h := range homes {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(h.pg))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(h.home))
	}
	return buf
}

// decodeHomePlan unpacks a barrier exit's home plan. The exit comes from
// the barrier master this node already trusts for barrier sequencing,
// but the payload is still bounds-checked, with two failure severities:
//
//   - a structurally undecodable payload returns err and must fail the
//     barrier loudly: the node cannot tell whether a hand-off follows;
//   - an invalid entry (out-of-range page or node, overlapping deltas
//     naming one page twice) returns homeErr with the deltas dropped:
//     homes are a placement optimization, so a forged or corrupt delta
//     is recorded and dropped, never applied and never fatal.
func decodeHomePlan(data []byte, numPages, procs int) (homes []homeDelta, homeErr, err error) {
	entries, err := exchangeEntries("home plan", data, numPages)
	if err != nil {
		return nil, nil, err
	}
	n := len(entries) / 8
	homes = make([]homeDelta, 0, n)
	seen := make(map[uint32]bool, n)
	for i := 0; i < n; i++ {
		pg := binary.LittleEndian.Uint32(entries[8*i:])
		home := binary.LittleEndian.Uint32(entries[8*i+4:])
		switch {
		case int(pg) >= numPages:
			return nil, fmt.Errorf("dsm: home delta %d names page %d of %d", i, pg, numPages), nil
		case int(home) >= procs:
			return nil, fmt.Errorf("dsm: home delta %d homes page %d at node %d of %d", i, pg, home, procs), nil
		case seen[pg]:
			return nil, fmt.Errorf("dsm: overlapping home deltas for page %d", pg), nil
		}
		seen[pg] = true
		homes = append(homes, homeDelta{pg: mem.PageID(pg), home: mem.ProcID(home)})
	}
	return homes, nil, nil
}

// planFirstTouch resolves the cluster's first-touch claims into home
// deltas (master only): each claimed page goes to its strongest toucher,
// ties to the lowest node id; unclaimed pages keep their block home.
func (h *homeTable) planFirstTouch(claims []touchClaim) []homeDelta {
	best := make(map[mem.PageID]touchClaim)
	for _, c := range claims {
		w, ok := best[c.pg]
		if !ok || c.score > w.score || (c.score == w.score && c.node < w.node) {
			best[c.pg] = c
		}
	}
	var moves []homeDelta
	for pg := range h.home {
		w, ok := best[mem.PageID(pg)]
		if ok && w.node != h.of(mem.PageID(pg)) {
			moves = append(moves, homeDelta{pg: mem.PageID(pg), home: w.node})
		}
	}
	return moves
}

// --- applying the plan ---

// handOff runs the two-round rendezvous for a non-empty home plan. Every
// node (master included) executes this after its barrier exit work, while
// all application goroutines are still parked in Barrier.
func (n *Node) handOff(b mem.BarrierID, homes []homeDelta) error {
	pageSize := n.sys.layout.PageSize()

	// Round 1: bring every page this node homes AFTER the plan current.
	// Peers' old homes are still fully routable, so this can pull
	// outstanding diffs or fetch the owner copy over the network: the NEW
	// home pulls the authoritative copy across before the old home
	// surrenders its directory entry and cold-copy role.
	scratch := make([]byte, pageSize)
	for _, mv := range homes {
		if mv.home != n.id {
			continue
		}
		if err := n.e.readPage(mv.pg, 0, scratch); err != nil {
			return fmt.Errorf("dsm: node %d: hand-off fetch of page %d: %w", n.id, mv.pg, err)
		}
	}
	if err := n.rendezvous(b, "hand-off round 1"); err != nil {
		return err
	}

	// Round 2: purely local — no page traffic is in flight anywhere in
	// the cluster now. Re-read the new home's copy (valid after round 1,
	// so this touches no socket), then flip the home table and drop/adopt
	// per page. The table flips before the drop so the engines' directory
	// resets (owner := home) land on the new home.
	migrated := 0
	for _, mv := range homes {
		var data []byte
		if mv.home == n.id {
			data = make([]byte, pageSize)
			if err := n.e.readPage(mv.pg, 0, data); err != nil {
				return fmt.Errorf("dsm: node %d: hand-off local read of page %d: %w", n.id, mv.pg, err)
			}
			migrated++
		}
		n.homes.home[mv.pg].Store(int32(mv.home))
		n.e.dropPage(mv.pg)
		n.e.adoptPage(mv.pg, data)
	}
	if migrated > 0 {
		n.stats.pageMigrations.Add(int64(migrated))
		n.emit("place", "migrate", int64(migrated))
	}
	return n.rendezvous(b, "hand-off round 2")
}
