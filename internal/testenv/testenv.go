// Package testenv tells a test what kind of binary it runs in. Only test
// files import it.
package testenv

import "testing"

// SkipAllocGate skips an allocation gate in a race-detector build. Such a
// build does not measure this code's allocations: sync.Pool drops a random
// quarter of what is put back, and the detector slows and reorders
// goroutines, so free lists and pools hit less often than in the build
// that ships.
func SkipAllocGate(t testing.TB) {
	t.Helper()
	if Race {
		t.Skip("allocation gate: under -race sync.Pool drops a random quarter of what is put back and goroutines are reordered, so allocation counts measure the detector; run it without -race")
	}
}
