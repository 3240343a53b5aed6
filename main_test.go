package repro_test

import (
	"os"
	"testing"

	"repro/internal/framebuf"
)

// TestMain runs the package's tests under poison-on-release: a released
// frame or page buffer is overwritten before it can be reused, so a diff,
// twin or payload still read after its release turns into garbage bytes
// the differential, torture and chaos oracles catch on the spot.
func TestMain(m *testing.M) {
	framebuf.SetPoison(true)
	os.Exit(m.Run())
}

// noPoison turns poison-on-release off for a benchmark and restores it on
// cleanup: the tests keep it, and the benchmark times what a run without
// it does, not the byte-by-byte overwrite of every released buffer.
func noPoison(b *testing.B) {
	was := framebuf.Poisoned()
	framebuf.SetPoison(false)
	b.Cleanup(func() { framebuf.SetPoison(was) })
}
