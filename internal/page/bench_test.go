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
	var runs []Run
	var data [][]byte
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
		runs = append(runs, Run{Off: int32(start), Len: int32(end - start)})
		data = append(data, payload)
	}
	return DiffFromRuns(runs, data)
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
		buf = append(buf[:0], d.EnsureWireBody()...)
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

// BenchmarkWriteLog times a window of 8-byte writes on a 4 KiB page in
// two parts, and against the twin it replaces (a capture at the first
// write and MakeDiff at the cut). writes is the window's writes and its
// Reset, with ns per write reported; cut is the cut of the written window
// into a wire body, its entries put back in write order first. sparse
// writes 8 words, half half the words once in an odd stride, as
// hit-private writes its pages, dense every word once in a strided order;
// the writes change a word's first byte, so a dense cut makes 512 runs,
// but dense-one-run's change every byte, and its cut is one run.
func BenchmarkWriteLog(b *testing.B) {
	const size, words = 4096, 4096 / 8
	for _, c := range []struct {
		name          string
		writes, every int // writes, one in every `every` words
		whole         bool
	}{{"sparse", 8, 37, false}, {"half", words / 2, 2*101 + 1, false}, {"dense", words, 37, false}, {"dense-one-run", words, 37, true}} {
		offs := make([]int, c.writes)
		for i := range offs {
			offs[i] = (i * c.every % words) * 8
		}
		data := make([]byte, size)
		value := func(v *[8]byte, i int) {
			*v = [8]byte{byte(i)}
			if c.whole {
				*v = [8]byte{byte(i), byte(i), byte(i), byte(i), byte(i), byte(i), byte(i), byte(i)}
			}
		}
		var v [8]byte
		b.Run(c.name+"/writes", func(b *testing.B) {
			var log WriteLog
			b.ReportAllocs()
			for i := range b.N {
				value(&v, i+1)
				for _, off := range offs {
					log.Write(data, off, v[:])
				}
				log.Reset()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(offs)), "ns/write")
		})
		b.Run(c.name+"/cut", func(b *testing.B) {
			var log WriteLog
			value(&v, 0)
			clear(data)
			value(&v, 0xa5)
			for _, off := range offs {
				log.Write(data, off, v[:])
			}
			defer log.Reset()
			written := slices.Clone(log.buf)
			var runs []Run
			var body []byte
			b.ReportAllocs()
			for range b.N {
				copy(log.buf, written)
				runs = log.Cut(runs[:0], data)
				body = AppendBody(body[:0], runs, data)
			}
			b.ReportMetric(float64(len(runs)), "runs")
		})
		b.Run(c.name+"/twin", func(b *testing.B) {
			b.ReportAllocs()
			for i := range b.N {
				value(&v, i+1)
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

// BenchmarkApply times Diff.Apply on a 4 KiB page: one 64-byte run, 64
// one-byte runs spread over the page, 512 one-byte runs, one in each word
// (the body BenchmarkWriteLog's dense cut makes), and the whole page in
// one run.
func BenchmarkApply(b *testing.B) {
	const size = 4096
	spaced := func(n int) ([]Run, [][]byte) {
		runs, payloads := make([]Run, n), make([][]byte, n)
		for i := range runs {
			runs[i], payloads[i] = Run{Off: int32(i * size / n), Len: 1}, []byte{byte(i) | 1}
		}
		return runs, payloads
	}
	spread, payloads := spaced(64)
	dense, densePayloads := spaced(size / 8)
	for _, c := range []struct {
		name string
		runs []Run
		data [][]byte
	}{
		{"run64", []Run{{Off: 1024, Len: 64}}, [][]byte{bytes.Repeat([]byte{0xab}, 64)}},
		{"spread64", spread, payloads},
		{"dense512", dense, densePayloads},
		{"page", []Run{{Off: 0, Len: size}}, [][]byte{bytes.Repeat([]byte{0xcd}, size)}},
	} {
		d, err := DiffFromRuns(c.runs, c.data)
		if err != nil {
			b.Fatal(err)
		}
		dst := make([]byte, size)
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(d.EnsureWireBody())))
			b.ReportAllocs()
			for range b.N {
				if err := d.Apply(dst); err != nil {
					b.Fatal(err)
				}
			}
		})
		d.Release()
	}
}
