package wire

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/framebuf"
	"repro/internal/testenv"
	"repro/internal/vc"
)

// TestDecodeAllocationsGate: what one Decode allocates, shape by shape. A
// shell keeps its slabs across Release — interval records, the clock slab
// (the message's clock is its first window) and the page slab, a first
// section, a diff block's records, headers, runs and payload windows, and
// wants — so a steady receive path decodes the runtime's messages without
// allocating, and a block past what the shell keeps allocates its own
// slabs and nothing more.
func TestDecodeAllocationsGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	allocs := func(t *testing.T, runs int, frame []byte, release bool) float64 {
		return testing.AllocsPerRun(runs, func() {
			m, err := Decode(frame)
			if err != nil {
				t.Fatal(err)
			}
			if release {
				m.Release()
			}
		})
	}
	t.Run("into a recycled shell", func(t *testing.T) {
		for _, tc := range shellMsgs(t) {
			drainShells()
			if a := allocs(t, 200, tc.m.EncodeAppend(nil), true); a != 0 {
				t.Errorf("decoding a %s into a shell allocates %.1f objects, want 0: its slabs are the shell's", tc.name, a)
			}
		}
	})
	t.Run("interval slabs", func(t *testing.T) {
		drainShells()
		small, large := intervalBlock(keepRecs), intervalBlock(keepRecs+1)
		if a := allocs(t, 20, small, true); a != 0 {
			t.Errorf("decoding a block inside the keep bound into a recycled shell takes %v allocations, want 0", a)
		}
		if a := allocs(t, 20, large, true); a != 3 {
			t.Errorf("decoding a block beyond the keep bound takes %v allocations, want its 3 slabs", a)
		}
		if a := allocs(t, 20, small, true); a != 0 {
			t.Errorf("after a large block a small one takes %v allocations, want 0", a)
		}
	})
	t.Run("diff run tables", func(t *testing.T) {
		if a, b := allocs(t, 20, sparseDiffResp(t, 3), false), allocs(t, 20, sparseDiffResp(t, 300), false); a != b {
			t.Errorf("decoding 3-run diffs takes %v allocations, 300-run diffs %v: want the same", a, b)
		}
	})
	t.Run("diff block past the bound", func(t *testing.T) {
		for _, tc := range pastTheBoundMsgs(t) {
			drainShells()
			m, err := Decode(shellDiffResp(t, 4, false).EncodeAppend(nil))
			if err != nil {
				t.Fatal(err)
			}
			m.Release()
			if a := allocs(t, 20, tc.m.EncodeAppend(nil), true); a != 4 {
				t.Errorf("decoding %s takes %v allocations, want its 4 slabs", tc.name, a)
			}
		}
	})
	t.Run("interval run past the bound", func(t *testing.T) {
		// Two bytes a record, 64 entries a clock: half a MiB of frame
		// announces one clock entry past the bound, and is refused before a
		// slab is sized. The least of three windows is the decode's bill (a
		// loaded machine's runtime allocates in the background now and then).
		frame := expandingRun(maxIntervalWords/maxClock + 1)
		least := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Decode(frame)
			runtime.ReadMemStats(&after)
			if err == nil || !strings.Contains(err.Error(), "implausible interval block") {
				t.Fatalf("err = %v, want implausible interval block", err)
			}
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > 4096 {
			t.Errorf("refusing an interval block past the bound allocated %d bytes, want its error alone", least)
		}
	})
	t.Run("borrowed payload", func(t *testing.T) {
		resp, cur := denseDiffResp(t)
		frame := resp.EncodeAppend(framebuf.Get())
		var before, after runtime.MemStats
		const rounds = 200
		runtime.ReadMemStats(&before)
		for i := 0; i < rounds; i++ {
			if _, err := Decode(frame); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / rounds; per >= uint64(len(cur)/4) {
			t.Errorf("decoding a %d-byte diff response allocates %d bytes, want message and run-table overhead only", len(cur), per)
		}
	})
}

// TestSetClockAllocatesNothingGate: a sender's clock is copied into the
// storage its shell keeps, so stamping a recycled shell allocates nothing,
// and the message's clock is a copy, not the sender's.
func TestSetClockAllocatesNothingGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	drainShells()
	v := vc.VC{1, 2, 3, 4}
	stamp := func() {
		m := NewMsg()
		m.SetClock(v)
		m.Release()
	}
	stamp()
	if a := testing.AllocsPerRun(200, stamp); a != 0 {
		t.Errorf("stamping a recycled shell with a clock allocates %.1f objects, want 0", a)
	}
	m := NewMsg()
	defer m.Release()
	m.SetClock(v)
	v[0] = 9
	if m.VC[0] != 1 || len(m.VC) != len(v) {
		t.Errorf("the message's clock %v follows the sender's %v", m.VC, v)
	}
}

// TestReceiveAllocatesNothingGate: the steady receive path of a frame — a
// diff response decoded into a shell, a frame reference attached, the
// message released — allocates nothing: the shell with its slabs, the Ref
// and the frame buffer all come back for the next.
func TestReceiveAllocatesNothingGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	drainShells()
	enc := shellDiffResp(t, 4, true).EncodeAppend(nil)
	recv := func() {
		frame := append(framebuf.Get(), enc...)
		m, err := Decode(frame)
		if err != nil || !m.HasDiffs() {
			t.Fatalf("decoded %v, err %v", m, err)
		}
		m.Frame = framebuf.NewRef(frame, 1)
		m.Release()
	}
	recv()
	if a := testing.AllocsPerRun(200, recv); a != 0 {
		t.Errorf("receiving a diff response allocates %v objects, want 0", a)
	}
}
