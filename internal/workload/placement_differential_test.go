package workload

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/dsm"
)

// Placement differential matrix: page placement is pure performance
// machinery — under every placement policy every protocol must still
// produce a final image byte-identical to the sequential reference. The
// matrix runs mp3d (the multi-writer workload, the hardest on directory
// state) over the in-process interconnect for every {placement} ×
// {protocol} × {goroutines-per-node} combination, and a TCP leg repeats
// a slice of it over real sockets.

var placementNames = []string{"block", "first-touch"}

func runPlacement(t *testing.T, name string, rc RuntimeConfig, procs int, scale float64) {
	t.Helper()
	ref, err := ExecuteCached(name, procs, scale, diffSeed)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := New(name, procs, scale, diffSeed)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunOnRuntime(prog, rc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !bytes.Equal(res.Image, ref.Image) {
		t.Errorf("%s: image diverges from sequential reference (first diff at byte %d)",
			name, firstDiff(res.Image, ref.Image))
	}
}

// TestPlacementDifferential: {block, first-touch} × all five protocols ×
// one and four goroutines per node, byte-identical images throughout
// (four goroutines under -race also cover the touch table's retirement at
// the first barrier). Short mode trims the sweep to one goroutine per
// node and the LI/EI/SC protocols. The ids keep the migrate=false segment
// earlier runs recorded them under.
func TestPlacementDifferential(t *testing.T) {
	const procs, scale, pageSize = 4, 0.05, 1024
	modes := dsm.Modes
	gpns := []int{1, 4}
	if testing.Short() {
		modes = []dsm.Mode{dsm.LazyInvalidate, dsm.EagerInvalidate, dsm.SeqConsistent}
		gpns = []int{1}
	}
	for _, placement := range placementNames {
		for _, mode := range modes {
			for _, gpn := range gpns {
				rc := RuntimeConfig{
					PageSize:          pageSize,
					Mode:              mode,
					Placement:         placement,
					GoroutinesPerNode: gpn,
				}
				t.Run(fmt.Sprintf("%s/migrate=false/%s/gpn%d", placement, mode, gpn), func(t *testing.T) {
					t.Parallel()
					runPlacement(t, "mp3d", rc, procs, scale)
				})
			}
		}
	}
}

// TestPlacementOverTCPTransport repeats a slice of the placement matrix
// over real loopback TCP sockets: with one System (and one home table)
// per process, cluster-wide placement agreement has to hold purely
// through the exchanged barrier payloads.
func TestPlacementOverTCPTransport(t *testing.T) {
	if testing.Short() {
		t.Skip("TCP placement sweep crosses real sockets; skipped in short mode")
	}
	const procs, scale, pageSize = 4, 0.05, 1024
	for _, placement := range placementNames {
		for _, mode := range []dsm.Mode{dsm.LazyUpdate, dsm.EagerInvalidate} {
			placement, mode := placement, mode
			t.Run(fmt.Sprintf("%s/%s", placement, mode), func(t *testing.T) {
				t.Parallel()
				runPlacement(t, "mp3d", RuntimeConfig{
					PageSize:   pageSize,
					Mode:       mode,
					Placement:  placement,
					Transports: tcpTransports(t, procs),
				}, procs, scale)
			})
		}
	}
}
