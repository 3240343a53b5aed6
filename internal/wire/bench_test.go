package wire

import (
	"testing"

	"repro/internal/framebuf"
)

// Codec micro-benches, run by CI: the hot-path cost of the pooled
// append encoder and the batch framing (encode/decode per message, one
// batch frame vs the same messages framed singly).

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

// BenchmarkWireEncodeBatched: eight messages coalesced into one batch
// frame in one pooled buffer — the outbox flush path.
func BenchmarkWireEncodeBatched(b *testing.B) {
	m := benchMsg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := AppendBatchHeader(framebuf.Get(), 8)
		for k := 0; k < 8; k++ {
			buf, _ = AppendBatched(buf, m)
		}
		framebuf.Put(buf)
	}
}

// BenchmarkWireEncodeUnbatched: the same eight messages as eight
// individually pooled frames — what the batched path replaces.
func BenchmarkWireEncodeUnbatched(b *testing.B) {
	m := benchMsg()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < 8; k++ {
			buf := m.EncodeAppend(framebuf.Get())
			framebuf.Put(buf)
		}
	}
}

func BenchmarkWireDecodeBatched(b *testing.B) {
	enc := appendBatch(nil, sampleMsgs()...)
	b.SetBytes(int64(len(enc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBatch(enc); err != nil {
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
