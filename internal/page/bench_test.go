package page

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/testenv"
)

// byteLoopMakeDiff is the pre-kernel MakeDiff, kept verbatim as the
// baseline BenchmarkMakeDiff compares against: byte-at-a-time word
// comparison, per-run payload allocation, end-of-page clamp.
func byteLoopMakeDiff(twin *Twin, current []byte) (*Diff, error) {
	byteWordEqual := func(a, b []byte, off, n int) bool {
		end := off + WordSize
		if end > n {
			end = n
		}
		for k := off; k < end; k++ {
			if a[k] != b[k] {
				return false
			}
		}
		return true
	}
	a, b := twin.Data(), current
	n := len(current)
	d := &Diff{}
	i := 0
	for i < n {
		for i < n && byteWordEqual(a, b, i, n) {
			i += WordSize
		}
		if i >= n {
			break
		}
		start := i
		for i < n && !byteWordEqual(a, b, i, n) {
			i += WordSize
		}
		end := i
		if end > n {
			end = n
		}
		payload := make([]byte, end-start)
		copy(payload, b[start:end])
		d.runs = append(d.runs, Run{Off: int32(start), Len: int32(end - start)})
		d.data = append(d.data, payload)
	}
	return d, nil
}

// sparsePage builds a 4KB page pair with a handful of scattered word
// writes — the common SPLASH pattern MakeDiff sees at release.
func sparsePage(seed int64) (*Twin, []byte) {
	r := rand.New(rand.NewSource(seed))
	size := 4096
	orig := make([]byte, size)
	r.Read(orig)
	cur := append([]byte(nil), orig...)
	for i := 0; i < 8; i++ {
		off := r.Intn(size - 16)
		for k := 0; k < 4+r.Intn(12); k++ {
			cur[off+k] ^= 0x5a
		}
	}
	return NewTwin(orig), cur
}

func BenchmarkMakeDiff(b *testing.B) {
	tw, cur := sparsePage(42)
	b.Run("word", func(b *testing.B) {
		b.SetBytes(int64(len(cur)))
		for i := 0; i < b.N; i++ {
			d, err := MakeDiff(tw, cur)
			if err != nil {
				b.Fatal(err)
			}
			d.Release()
		}
	})
	b.Run("byteloop-baseline", func(b *testing.B) {
		b.SetBytes(int64(len(cur)))
		for i := 0; i < b.N; i++ {
			d, err := byteLoopMakeDiff(tw, cur)
			if err != nil {
				b.Fatal(err)
			}
			_ = d
		}
	})
}

// BenchmarkDiffServe measures serving one diff to a requester: a diff is
// its wire body, so a serve is one append of that buffer into the frame.
func BenchmarkDiffServe(b *testing.B) {
	tw, cur := sparsePage(7)
	d, err := MakeDiff(tw, cur)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, d.WireSize())
	for i := 0; i < b.N; i++ {
		buf = d.AppendWireBody(buf[:0])
	}
	_ = buf
}

// Serving a diff must not allocate, from the first serve on: the wire
// body is laid out when the diff is made, and every serve is a single
// append of it into the frame buffer.
func TestDiffServeFromCacheAllocsGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	tw, cur := sparsePage(7)
	d, err := MakeDiff(tw, cur)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 2*d.WireSize())
	allocs := testing.AllocsPerRun(100, func() {
		buf = append(buf[:0], d.EnsureWireBody()...)
		buf = d.AppendWireBody(buf)
	})
	if allocs != 0 {
		t.Fatalf("serving a diff allocated %.1f objects per op, want 0", allocs)
	}
}

// BenchmarkFlatten merges diffs of one 4 KiB page into one, as a range
// serve does: sparse is 16 diffs of 64 scattered 8-byte runs each, whose
// union is most of a thousand runs; dense is 4 diffs of the whole page.
func BenchmarkFlatten(b *testing.B) {
	const size, slots = 4096, 4096 / 8
	rng := rand.New(rand.NewSource(1))
	var sparse, dense []*Diff
	for range 16 {
		offs := rng.Perm(slots)[:64]
		slices.Sort(offs)
		runs, data := make([]Run, len(offs)), make([][]byte, len(offs))
		for i, o := range offs {
			runs[i], data[i] = Run{Off: int32(8 * o), Len: 8}, bytes.Repeat([]byte{byte(o)}, 8)
		}
		d, err := DiffFromRuns(runs, data)
		if err != nil {
			b.Fatal(err)
		}
		sparse = append(sparse, d)
	}
	for k := range 4 {
		d, err := DiffFromRuns([]Run{{Off: 0, Len: size}}, [][]byte{bytes.Repeat([]byte{byte(k + 1)}, size)})
		if err != nil {
			b.Fatal(err)
		}
		dense = append(dense, d)
	}
	for _, c := range []struct {
		name  string
		diffs []*Diff
	}{{"sparse16", sparse}, {"dense4", dense}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				d, err := FlattenDiffs(c.diffs, size)
				if err != nil {
					b.Fatal(err)
				}
				d.Release()
			}
		})
	}
}

// BenchmarkWriteLog times one window of 8-byte writes on a 4 KiB page and
// its cut into a wire body, against the twin it replaces (a capture at the
// first write and MakeDiff at the cut): sparse writes 8 words, dense every
// word once in a strided order, as hit-private does.
func BenchmarkWriteLog(b *testing.B) {
	const size = 4096
	for _, c := range []struct {
		name   string
		writes int
	}{{"sparse", 8}, {"dense", size / 8}} {
		offs := make([]int, c.writes)
		for i := range offs {
			offs[i] = (i * 37 % (size / 8)) * 8
		}
		data := make([]byte, size)
		var v [8]byte
		b.Run(c.name+"/log", func(b *testing.B) {
			var log WriteLog
			var runs []Run
			var body []byte
			b.ReportAllocs()
			for i := range b.N {
				v[0] = byte(i)
				for _, off := range offs {
					log.Write(data, off, v[:])
				}
				runs = log.Cut(runs[:0], data)
				body = AppendBody(body[:0], runs, data)
				log.Reset()
			}
		})
		b.Run(c.name+"/twin", func(b *testing.B) {
			b.ReportAllocs()
			for i := range b.N {
				v[0] = byte(i)
				tw := NewTwin(data)
				for _, off := range offs {
					copy(data[off:], v[:])
				}
				d, err := MakeDiff(tw, data)
				if err != nil {
					b.Fatal(err)
				}
				d.Release()
				tw.Release()
			}
		})
	}
}
