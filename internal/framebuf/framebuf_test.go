package framebuf

import (
	"bytes"
	"testing"

	"repro/internal/testenv"
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

// A Ref recycles its frame at the last release and not before; a nil Ref
// is inert; one release too many is a bug that must not pass silently.
func TestRefCounts(t *testing.T) {
	drain()
	buf := append(make([]byte, 0, 128), "frame"...)
	r := NewRef(buf, 2)
	r.Retain()
	r.Release()
	r.Release()
	if len(free) != 0 {
		t.Fatal("frame recycled while a reference was still held")
	}
	r.Release()
	if len(free) != 1 {
		t.Fatal("last release did not recycle the frame")
	}
	var none *Ref
	none.Retain()
	none.Release()
	defer func() {
		if recover() == nil {
			t.Error("releasing more often than retained did not panic")
		}
	}()
	r.Release()
}

// TestRefIsRecycled: the last release puts the Ref itself on its free list
// and the next NewRef hands it out again; a recycled Ref released once too
// often still panics.
func TestRefIsRecycled(t *testing.T) {
	drain()
	for len(freeRefs) > 0 {
		<-freeRefs
	}
	r := NewRef(Get(), 1)
	r.Release()
	again := NewRef(Get(), 2)
	if again != r {
		t.Fatal("NewRef after a last release did not reuse the released Ref")
	}
	again.Release()
	again.Release()
	recycled := NewRef(Get(), 1)
	recycled.Release()
	defer func() {
		if recover() == nil {
			t.Error("releasing a recycled Ref once too often did not panic")
		}
	}()
	recycled.Release()
}

// TestRefAllocatesNothingGate: a steady stream of received frames, each
// taking a Ref and releasing it, allocates no Ref.
func TestRefAllocatesNothingGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	if a := testing.AllocsPerRun(100, func() { NewRef(Get(), 1).Release() }); a != 0 {
		t.Errorf("a frame's Ref allocates %v objects, want 0", a)
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
