package framebuf

import (
	"bytes"
	"testing"
)

// drain empties the free list so a test sees only its own buffers.
func drain() {
	for {
		select {
		case <-free:
		default:
			return
		}
	}
}

func TestBufPoolRecycles(t *testing.T) {
	drain()
	b := Get()
	if len(b) != 0 {
		t.Fatalf("Get returned %d-byte buffer, want empty", len(b))
	}
	b = append(b, 1, 2, 3)
	Put(b)
	// Oversized and zero-capacity buffers must be dropped, not pooled.
	Put(nil)
	Put(make([]byte, maxPooled+1))
	got := Get()
	if len(got) != 0 || &got[:1][0] != &b[0] {
		t.Fatalf("Get after Put returned a %d-byte buffer that is not the recycled one", len(got))
	}
	if len(free) != 0 {
		t.Fatalf("free list kept %d buffers it should have dropped", len(free))
	}
}

// GetLen hands a receive path a buffer of exactly the frame's length,
// recycled when the listed buffer fits and fresh when it does not.
func TestGetLen(t *testing.T) {
	drain()
	big := make([]byte, 0, 4096)
	Put(big)
	if got := GetLen(1000); len(got) != 1000 || &got[0] != &big[:1][0] {
		t.Fatalf("GetLen(1000) = %d bytes, recycled=%t; want the listed 4 KiB buffer cut to 1000", len(got), &got[0] == &big[:1][0])
	}
	Put(make([]byte, 0, 64))
	if got := GetLen(1000); len(got) != 1000 || cap(got) < 1000 {
		t.Fatalf("GetLen(1000) over a 64-byte buffer = len %d cap %d", len(got), cap(got))
	}
	if got := GetLen(0); len(got) != 0 {
		t.Fatalf("GetLen(0) = %d bytes", len(got))
	}
}

// Poison-on-release overwrites the whole buffer, not just its length,
// before it re-enters the list; off, the bytes are left alone.
func TestPoisonOnRelease(t *testing.T) {
	drain()
	buf := append(make([]byte, 0, 32), 1, 2, 3, 4)
	Put(buf)
	if got := Get(); !bytes.Equal(got[:4], []byte{1, 2, 3, 4}) {
		t.Fatalf("release without poison changed the bytes: % x", got[:4])
	}
	SetPoison(true)
	defer SetPoison(false)
	if !Poisoned() {
		t.Fatal("Poisoned() = false after SetPoison(true)")
	}
	Put(buf)
	if got := Get(); !bytes.Equal(got[:cap(got)], bytes.Repeat([]byte{PoisonByte}, 32)) {
		t.Fatalf("poisoned release left bytes behind: % x", got[:cap(got)])
	}
}
