package workload

import (
	"bytes"
	"testing"
)

// Mixed-mode differentials: per-page protocol routing is a performance
// knob, not a semantics change. A properly-synchronized workload must
// produce the same final shared-memory image whether the whole space runs
// under one engine or pages are statically striped across several
// resident engines — at one goroutine per node and oversubscribed, over
// simnet and (non-short) loopback TCP.

// mixedMaps are static per-page assignments exercised by the differential:
// an SC/lazy split, all five protocols resident at once, and an
// eager/lazy mix with no SC pages.
var mixedMaps = []struct{ name, spec string }{
	{"sc+lu", "pg0-7=SC,rest=LU"},
	{"five-way", "pg0-3=LI,pg4-7=LU,pg8-11=EI,pg12-15=EU,rest=SC"},
	{"eager+lazy", "pg0-9=EU,pg10-19=EI,rest=LI"},
}

func TestMixedModeDifferential(t *testing.T) {
	const procs, scale = 4, 0.05
	ref, err := ExecuteCached("mp3d", procs, scale, diffSeed)
	if err != nil {
		t.Fatal(err)
	}
	for _, mm := range mixedMaps {
		for _, gpn := range []int{1, 4} {
			prog, err := New("mp3d", procs, scale, diffSeed)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunOnRuntime(prog, RuntimeConfig{
				PageSize: 1024, ModeMap: mm.spec, GoroutinesPerNode: gpn,
			})
			if err != nil {
				t.Fatalf("%s/gpn=%d: %v", mm.name, gpn, err)
			}
			if !bytes.Equal(res.Image, ref.Image) {
				t.Errorf("%s/gpn=%d: image diverges from reference (first diff at byte %d)",
					mm.name, gpn, firstDiff(res.Image, ref.Image))
			}
			if res.Net.Messages == 0 && procs/gpn > 1 {
				t.Errorf("%s/gpn=%d: runtime moved no messages", mm.name, gpn)
			}
		}
	}
	if testing.Short() {
		return
	}
	// TCP leg: the same maps over a real loopback cluster, one goroutine
	// per node and oversubscribed.
	for _, mm := range mixedMaps {
		for _, gpn := range []int{1, 4} {
			prog, err := New("mp3d", procs, scale, diffSeed)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunOnRuntime(prog, RuntimeConfig{
				PageSize: 1024, ModeMap: mm.spec, GoroutinesPerNode: gpn,
				Transports: tcpTransports(t, procs/gpn),
			})
			if err != nil {
				t.Fatalf("tcp %s/gpn=%d: %v", mm.name, gpn, err)
			}
			if !bytes.Equal(res.Image, ref.Image) {
				t.Errorf("tcp %s/gpn=%d: image diverges from reference (first diff at byte %d)",
					mm.name, gpn, firstDiff(res.Image, ref.Image))
			}
		}
	}
}
