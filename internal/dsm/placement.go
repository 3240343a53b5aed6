package dsm

import (
	"fmt"
	"strings"

	"repro/internal/mem"
)

// Page placement: which node homes each page.
//
// A page's home is its directory entry under the eager and SC engines
// and its cold-copy server (and GC materialization point) under the
// lazy ones. Placement decides the initial assignment; when
// Config.MigrateHomes is set the adaptive exchange additionally moves a
// page's home to its dominant writer (see adaptive.go), because a flush
// or directory transaction that lands on a local home is loopback —
// free in the paper's message accounting.
//
// The home table itself lives on the router (one atomic entry per
// page), read lock-free on every protocol operation and written only
// inside the barrier-time reclassification rendezvous while every
// application goroutine cluster-wide is parked — exactly the mode
// table's discipline, so a page never has traffic in flight under two
// homes at once.

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
	// in the quiescent reclassification rendezvous, so the whole
	// cluster swaps tables at once. Pages untouched before the first
	// barrier keep their block home.
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

// FormatHomeTable renders a home table in the mode map's run-length
// syntax ("pg0-3=0,pg4-7=1,..."), for /statusz and -statsjson.
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

// homeDelta is one page's home change, as decided by the barrier master
// and broadcast in the barrier exit beside the re-route set.
type homeDelta struct {
	pg   mem.PageID
	home mem.ProcID
}

// homeClaim is one node's first-touch claim on a page: how much it
// touched the page before the first cluster barrier.
type homeClaim struct {
	pg    mem.PageID
	score uint32
}
