package wire

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

// Frame compression: Compress/Expand wrap a complete encoded frame in a
// KCompressed frame. The sender-side gate (strictly smaller or nothing)
// and the receiver-side hostility bounds (claimed length capped, exact
// inflation, no nesting) are the contract the outbox and dispatch loop
// rely on.

func compressibleFrame() []byte {
	return (&Msg{Kind: KPageResp, Seq: 5, A: 2, Data: make([]byte, 4096)}).EncodeAppend(nil)
}

// TestCompressRoundTrip: a compressible frame shrinks and expands back
// to the identical bytes.
func TestCompressRoundTrip(t *testing.T) {
	frame := compressibleFrame()
	z, ok := Compress(frame)
	if !ok {
		t.Fatal("zero-page frame did not compress")
	}
	if len(z) >= len(frame) {
		t.Fatalf("compressed frame is %d bytes, original %d — not strictly smaller", len(z), len(frame))
	}
	if !IsCompressed(z) {
		t.Fatal("Compress output is not a compressed frame")
	}
	out, err := Expand(z)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, frame) {
		t.Fatal("expanded frame differs from the original")
	}
}

// TestCompressIncompressibleSkipped: dense (random) page data cannot
// shrink, so Compress emits nothing — the frame rides uncompressed, and
// no sender ever pays inflation on the wire.
func TestCompressIncompressibleSkipped(t *testing.T) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(42)).Read(data)
	frame := (&Msg{Kind: KPageResp, Seq: 5, A: 2, Data: data}).EncodeAppend(nil)
	if z, ok := Compress(frame); ok {
		t.Fatalf("random page data compressed from %d to %d bytes", len(frame), len(z))
	}
}

// TestCompressBatchRoundTrip: a batch frame survives the compression
// wrapper too — the whole physical frame is the unit, not the messages.
func TestCompressBatchRoundTrip(t *testing.T) {
	batch := appendBatch(nil, sampleMsgs()[1], sampleMsgs()[4])
	z, ok := Compress(batch)
	if !ok {
		t.Fatal("batch frame did not compress")
	}
	out, err := Expand(z)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, batch) {
		t.Fatal("expanded batch differs from the original")
	}
	if _, err := DecodeBatch(out); err != nil {
		t.Fatalf("expanded batch does not decode: %v", err)
	}
}

// TestExpandRejectsHostile: every way a compressed frame can lie must
// fail with a descriptive error before any allocation sized by the lie.
func TestExpandRejectsHostile(t *testing.T) {
	frame := compressibleFrame()
	z, ok := Compress(frame)
	if !ok {
		t.Fatal("sample frame did not compress")
	}
	// The compressed frame after its kind byte and inner length, for
	// splicing a different length in.
	stream := z[1+len(uv(uint64(len(frame)))):]
	claim := func(inner uint64) []byte { return cat([]byte{byte(KCompressed)}, uv(inner), stream) }
	cases := []struct {
		name string
		in   []byte
		want string
	}{
		{"short header", z[:1], "shorter than header"},
		{"not compressed", frame, "is not compressed"},
		{"non-minimal inner length", cat([]byte{byte(KCompressed), 0x88, 0x00}, stream), "non-minimal varint"},
		{"inner length below header", claim(minMsgBytes - 1), "implausible compressed frame inner length"},
		{"inner length bomb", claim(MaxExpandedBytes + 1), "implausible compressed frame inner length"},
		{"inner length undershoots stream", claim(minMsgBytes), "inflates past its claimed"},
		{"garbage stream", cat([]byte{byte(KCompressed)}, uv(uint64(len(frame))), []byte{0xff, 0xff, 0xff, 0xff}), "compressed frame"},
		{"truncated stream", z[:len(z)-4], "compressed frame"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := Expand(tc.in)
			if err == nil {
				t.Fatalf("expanded %d bytes from hostile input", len(out))
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestExpandRejectsNested: a compressed frame whose inner frame is
// itself compressed is hostile by construction (the sender never nests)
// and must be rejected, not recursed into.
func TestExpandRejectsNested(t *testing.T) {
	inner, ok := Compress(compressibleFrame())
	if !ok {
		t.Fatal("sample frame did not compress")
	}
	// Force the outer wrapper even though the inner frame is dense:
	// build it by hand the way Compress would.
	padded := append(append([]byte(nil), inner...), make([]byte, 4096)...)
	outer, ok := Compress(padded)
	if !ok {
		t.Fatal("padded nested frame did not compress")
	}
	if _, err := Expand(outer); err == nil || !strings.Contains(err.Error(), "nested compressed frame") {
		t.Fatalf("err = %v, want nested-compressed-frame rejection", err)
	}
}
