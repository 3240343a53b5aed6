package dsm

import (
	"slices"
	"strings"
	"testing"

	"repro/internal/mem"
)

// Placement unit coverage. A forged placement payload reaches the real
// decode path through the hostile-peer harness (hostile_test.go).

func TestParsePlacement(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Placement
	}{
		{"", PlaceBlock}, {"block", PlaceBlock}, {"first-touch", PlaceFirstTouch},
	} {
		got, err := ParsePlacement(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParsePlacement(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
	for _, in := range []string{"best-fit", "rr"} {
		if _, err := ParsePlacement(in); err == nil || !strings.Contains(err.Error(), PlacementNames()) {
			t.Errorf("ParsePlacement(%q) = %v, want an error naming the supported set", in, err)
		}
	}
}

func TestInitialHomes(t *testing.T) {
	// Every policy starts from the block table; first-touch's exchange
	// refines it.
	homes := initialHomes(8, 3)
	for pg, h := range homes {
		if int(h) != pg%3 {
			t.Fatalf("home(%d) = %d, want %d", pg, h, pg%3)
		}
	}
	runs := []mem.ProcID{0, 0, 0, 0, 1, 1, 1, 1}
	if got, want := FormatHomeTable(runs), "pg0-3=0,pg4-7=1"; got != want {
		t.Errorf("FormatHomeTable = %q, want %q", got, want)
	}
}

// TestExitPlanDecodeSeverities: a structurally broken exchange payload is
// a hard error, found before anything is allocated for its entries; a
// well-framed home plan with an impossible entry is the soft, recorded-
// and-dropped kind. A good plan round-trips.
func TestExitPlanDecodeSeverities(t *testing.T) {
	const numPages, procs = 8, 2
	good := []homeDelta{{pg: 1, home: 1}, {pg: 6, home: 0}}
	plan := encodeHomePlan(good)
	if homes, homeErr, err := decodeHomePlan(plan, numPages, procs); err != nil || homeErr != nil || !slices.Equal(homes, good) {
		t.Fatalf("round trip = %v, %v, %v; want %v", homes, homeErr, err, good)
	}
	// Hard: truncation, a count beyond the space, a count the length belies.
	for name, data := range map[string][]byte{
		"truncated header": {1, 2},
		"truncated entry":  plan[:len(plan)-1],
		"over-counted":     {0xff, 0xff, 0xff, 0x7f},
		"under-counted":    append([]byte{1, 0, 0, 0}, plan[4:]...),
	} {
		if _, _, err := decodeHomePlan(data, numPages, procs); err == nil {
			t.Errorf("%s plan decoded", name)
		}
		if _, err := decodeClaims(data, 1, numPages); err == nil {
			t.Errorf("%s claims decoded", name)
		}
	}
	// Soft: deltas naming impossible pages/nodes or overlapping.
	for name, homes := range map[string][]homeDelta{
		"page beyond the space": {{pg: 99, home: 1}},
		"node beyond the ring":  {{pg: 1, home: 7}},
		"overlapping deltas":    {{pg: 1, home: 1}, {pg: 1, home: 0}},
	} {
		gotHomes, homeErr, err := decodeHomePlan(encodeHomePlan(homes), numPages, procs)
		if err != nil {
			t.Fatalf("%s: hard error %v, want soft homeErr", name, err)
		}
		if homeErr == nil || gotHomes != nil {
			t.Errorf("%s: homeErr=%v homes=%v, want recorded-and-dropped", name, homeErr, gotHomes)
		}
	}
	// Claims have one severity: the master skips the placement.
	if _, err := decodeClaims(encodeClaims([]touchClaim{{pg: 99, score: 1}}), 1, numPages); err == nil {
		t.Error("claim on a page beyond the space decoded")
	}
}
