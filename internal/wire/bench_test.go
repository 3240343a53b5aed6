package wire

import (
	"bytes"
	"testing"

	"repro/internal/framebuf"
	"repro/internal/vc"
)

// Codec micro-benches, run by CI: the hot-path cost of the pooled
// append encoder and of decoding into a recycled shell, per message.

// benchMsg is a representative mid-size frame: a lock grant with a
// clock, two interval records and a diff — the LU hot-path message.
func benchMsg() *Msg {
	msgs := sampleMsgs()
	return msgs[1]
}

func BenchmarkWireEncodeAppendPooled(b *testing.B) {
	m := benchMsg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := m.EncodeAppend(framebuf.Get())
		framebuf.Put(buf)
	}
}

func BenchmarkWireEncodeAppendFresh(b *testing.B) {
	// The retired Msg.Encode allocated a fresh slice per message; this is
	// that cost, for comparison against the pooled path.
	m := benchMsg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.EncodeAppend(nil)
	}
}

func BenchmarkWireDecode(b *testing.B) {
	enc := benchMsg().EncodeAppend(nil)
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecodeShell is the steady receive path: decode into a
// recycled shell, release it.
func BenchmarkWireDecodeShell(b *testing.B) {
	enc := benchMsg().EncodeAppend(nil)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := Decode(enc)
		if err != nil {
			b.Fatal(err)
		}
		m.Release()
	}
}

// A water-shaped lock grant: the releaser's clock and six write notices of
// one processor, the LI hot-path message (the notices run,
// splash-water's grants carry 5.6 on average, and 70-80% of its records
// repeat the page list of the record before them, as five of these six
// do), encoded into a pooled frame and decoded into a recycled shell.
func grantRun() *Msg {
	return &Msg{Kind: KLockGrant, Seq: 1000, A: 5, VC: vc.VC{900, 412, 655, 130},
		Intervals: onePage(notices(2, 650, 6, vc.VC{880, 400, 0, 128}), 300)}
}

func BenchmarkWireEncodeGrantRun(b *testing.B) {
	m := grantRun()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		framebuf.Put(m.EncodeAppend(framebuf.Get()))
	}
}

func BenchmarkWireDecodeGrantRun(b *testing.B) {
	enc := grantRun().EncodeAppend(nil)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Decode(enc)
		if err != nil {
			b.Fatal(err)
		}
		m.Release()
	}
}

// BenchmarkWireDecodeBarrierBlock decodes an LI barrier arrival as the
// master receives it: the arriver's clock and the 2,000 intervals it closed
// in the epoch, all its own (splash-water's arrivals at 4 processors and
// scale 16 carry up to 2,385), into a recycled shell whose slabs come from
// the slab pool.
func BenchmarkWireDecodeBarrierBlock(b *testing.B) {
	enc := (&Msg{Kind: KBarrierArrive, Seq: 1000, A: 0, B: 1, VC: vc.VC{2100, 2400, 2050, 2080},
		Intervals: notices(1, 2400, 2000, vc.VC{2000, 400, 1900, 1950})}).EncodeAppend(nil)
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Decode(enc)
		if err != nil {
			b.Fatal(err)
		}
		m.Release()
	}
}

// Page ships: a KPageResp with a 4 KiB Data block, encoded into a pooled
// frame as the outbox stages it and decoded as the requester receives it.
// Dense has no zero word (one run, the scan walks the whole page — the
// cost over the plain append it replaced, which is the Append baseline);
// DenseInts is dense with seven zero bytes in every word, the scan's slow
// case; sparse is the water shape, sixteen 24-byte records at a 256-byte
// stride; zero is a never-written page.

func pageShip(data []byte) *Msg {
	return &Msg{Kind: KPageResp, Seq: 1000, A: 300, Data: data}
}

func densePage() []byte { return bytes.Repeat([]byte{0xab}, 4096) }

func benchEncodePage(b *testing.B, data []byte) {
	m := pageShip(data)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		framebuf.Put(m.EncodeAppend(framebuf.Get()))
	}
}

func BenchmarkWireEncodePageDense(b *testing.B) { benchEncodePage(b, densePage()) }
func BenchmarkWireEncodePageDenseInts(b *testing.B) {
	benchEncodePage(b, bytes.Repeat([]byte{7, 0, 0, 0, 0, 0, 0, 0}, 512))
}
func BenchmarkWireEncodePageSparse(b *testing.B) { benchEncodePage(b, stridedPage(4096, 256, 24)) }
func BenchmarkWireEncodePageZero(b *testing.B)   { benchEncodePage(b, make([]byte, 4096)) }

// BenchmarkWireEncodePageAppend is the raw Data block this encoding
// replaced — the same message with its page appended as is — the baseline
// the dense page's scan is read against.
func BenchmarkWireEncodePageAppend(b *testing.B) {
	m, data := pageShip(nil), densePage()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := putLen(m.EncodeAppend(framebuf.Get()), len(data))
		framebuf.Put(append(buf, data...))
	}
}

// benchDecodePage must report one allocation: the page the receiver
// installs (a ship that carries the copy's clock allocates that too).
func benchDecodePage(b *testing.B, data []byte) {
	enc := pageShip(data).EncodeAppend(nil)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Decode(enc)
		if err != nil {
			b.Fatal(err)
		}
		m.Release()
	}
}

func BenchmarkWireDecodePageDense(b *testing.B)  { benchDecodePage(b, densePage()) }
func BenchmarkWireDecodePageSparse(b *testing.B) { benchDecodePage(b, stridedPage(4096, 256, 24)) }
