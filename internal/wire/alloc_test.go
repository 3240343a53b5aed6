package wire

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/framebuf"
	"repro/internal/mem"
	"repro/internal/testenv"
	"repro/internal/vc"
)

// TestDecodeAllocationsGate: what one Decode allocates, shape by shape. A
// block of any size decodes into slabs from the slab pool — interval
// records, the clock slab (the message's clock is its first window) and the
// page slab, a diff block's records and headers (each diff borrows its
// body from the frame, whatever its run count), and wants — which its
// message's last Release gives back, and a shell keeps its first section:
// so once a block of a size has been decoded and released, the next one of
// that size allocates nothing, a barrier's thousand-record block as much as
// a grant's few.
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
				t.Errorf("decoding a %s into a shell allocates %.1f objects, want 0: its slabs are the pool's", tc.name, a)
			}
		}
	})
	t.Run("interval slabs", func(t *testing.T) {
		drainShells()
		// 73 records filled the 4 KiB a shell once kept; 2,000 are a
		// barrier arrival's.
		for _, n := range []int{73, 74, 2000} {
			if a := allocs(t, 20, intervalBlock(n, false), true); a != 0 {
				t.Errorf("decoding a block of %d records after one of its size takes %v allocations, want 0", n, a)
			}
			if a := allocs(t, 20, intervalBlock(n, true), true); a != 0 {
				t.Errorf("decoding a block of %d repeated page lists takes %v allocations, want 0", n, a)
			}
		}
	})
	t.Run("diff run tables", func(t *testing.T) {
		if a, b := allocs(t, 20, sparseDiffResp(t, 3), false), allocs(t, 20, sparseDiffResp(t, 300), false); a != b {
			t.Errorf("decoding 3-run diffs takes %v allocations, 300-run diffs %v: want the same", a, b)
		}
	})
	t.Run("diff block past the bound", func(t *testing.T) {
		// Past the 4 KiB a shell once kept: 200 runs, or a second block.
		for _, tc := range pastTheBoundMsgs(t) {
			if a := allocs(t, 20, tc.m.EncodeAppend(nil), true); a != 0 {
				t.Errorf("decoding %s after one of its shape takes %v allocations, want 0", tc.name, a)
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
	t.Run("poisoned past the last release", func(t *testing.T) {
		// What a holder kept of a 300-record block and of its wants reads
		// the poison pattern once the message is released: the slabs went
		// back to the pool scrubbed, whatever their size class.
		framebuf.SetPoison(true)
		defer framebuf.SetPoison(false)
		m := &Msg{Kind: KDiffReq, VC: vc.VC{300, 7}, Wants: make([]Want, 300)}
		for i := range 300 {
			m.Intervals = append(m.Intervals, IntervalRec{Proc: 1, Index: int32(i), VC: vc.VC{int32(i), 7}, Pages: []mem.PageID{mem.PageID(i), 9}})
			m.Wants[i] = Want{Page: 3, Proc: 2, Index: int32(i)}
		}
		got, err := Decode(m.EncodeAppend(nil))
		if err != nil || !reflect.DeepEqual(got.Intervals, m.Intervals) || !reflect.DeepEqual(got.Wants, m.Wants) {
			t.Fatalf("decoded %d records and %d wants, err %v", len(got.Intervals), len(got.Wants), err)
		}
		clock, recs, wants, last := got.VC, got.Intervals, got.Wants, got.Intervals[299]
		got.Release()
		deadWant := Want{Page: mem.PageID(dead), Proc: mem.ProcID(dead), Index: dead, Span: dead}
		for i, iv := range recs {
			if iv.Proc != mem.ProcID(dead) || iv.Index != dead || iv.VC != nil || iv.Pages != nil || wants[i] != deadWant {
				t.Fatalf("past the last release record %d reads %+v and want %d %+v, want the poison pattern", i, iv, i, wants[i])
			}
		}
		if !reflect.DeepEqual(clock, vc.VC{dead, dead}) || !reflect.DeepEqual(last.VC, vc.VC{dead, dead}) ||
			!reflect.DeepEqual(last.Pages, []mem.PageID{mem.PageID(dead), mem.PageID(dead)}) {
			t.Errorf("past the last release the message clock reads %v, the last record's clock %v and pages %v: want the poison pattern",
				clock, last.VC, last.Pages)
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
// diff response decoded into a shell that then holds its frame, the
// message released — allocates nothing: the shell with its slabs and the
// frame buffer both come back for the next.
func TestReceiveAllocatesNothingGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	drainShells()
	enc := shellDiffResp(t, 4, true).EncodeAppend(nil)
	recv := func() {
		frame := append(framebuf.Get(), enc...)
		m, err := Decode(frame)
		if err != nil || len(m.Sections) != 1 || len(m.Sections[0].Diffs) == 0 {
			t.Fatalf("decoded %v, err %v", m, err)
		}
		m.HoldFrame(frame)
		m.Release()
	}
	recv()
	if a := testing.AllocsPerRun(200, recv); a != 0 {
		t.Errorf("receiving a diff response allocates %v objects, want 0", a)
	}
}
