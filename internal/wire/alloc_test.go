package wire

import (
	"runtime"
	"testing"

	"repro/internal/framebuf"
	"repro/internal/testenv"
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

// TestBatchReceiveAllocatesNothingGate: the steady receive path of a batch
// frame — two diff responses decoded into shells, one frame reference
// attached to both, both released — allocates nothing: the shells with
// their slabs, the Ref and the frame buffer all come back for the next.
func TestBatchReceiveAllocatesNothingGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	drainShells()
	enc := appendBatch(nil, shellDiffResp(t, 1, false), shellDiffResp(t, 4, true))
	var msgs []*Msg
	recv := func() {
		frame := append(framebuf.Get(), enc...)
		var err error
		if msgs, err = DecodeBatchAppend(msgs[:0], frame); err != nil || len(msgs) != 2 || !msgs[1].HasDiffs() {
			t.Fatalf("decoded %d messages, err %v", len(msgs), err)
		}
		ref := framebuf.NewRef(frame, len(msgs))
		for _, m := range msgs {
			m.Frame = ref
		}
		for _, m := range msgs {
			m.Release()
		}
	}
	recv()
	if a := testing.AllocsPerRun(200, recv); a != 0 {
		t.Errorf("receiving a two-message batch of diff responses allocates %v objects, want 0", a)
	}
}
