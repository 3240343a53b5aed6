package framebuf

import (
	"testing"

	"repro/internal/testenv"
)

// A class is a stack: Get returns the item Put listed last, and an empty
// class reports so.
func TestPoolReusesLastIn(t *testing.T) {
	var p Pool[*int]
	a, b := new(int), new(int)
	p.Put(3, a, 8)
	p.Put(3, b, 8)
	if got, ok := p.Get(2); ok {
		t.Fatalf("class 2 handed out %p, want nothing: only class 3 was put to", got)
	}
	for i, want := range []*int{b, a} {
		if got, ok := p.Get(3); !ok || got != want {
			t.Fatalf("get %d from class 3 = %p (%t), want %p", i, got, ok, want)
		}
	}
	if got, ok := p.Get(3); ok {
		t.Fatalf("an emptied class handed out %p", got)
	}
}

// A class's stack starts with room for freeStart items: a fresh class
// allocates once for its first freeStart items, where a stack grown by
// append reallocates at every power of two.
func TestPoolStackStartsWithRoomGate(t *testing.T) {
	testenv.SkipAllocGate(t)
	x := new(int)
	pools := make([]Pool[*int], 2)
	run := 0
	if allocs := testing.AllocsPerRun(1, func() {
		p := &pools[run]
		run++
		for range freeStart {
			p.Put(0, x, 8)
		}
	}); allocs != 1 {
		t.Errorf("a fresh class allocates %.0f times for its first %d items, want 1", allocs, freeStart)
	}
}

// A class lists items while it then holds at most PoolBytes of them: the
// last that fits exactly is listed, the next one dropped.
func TestPoolBoundsEachClass(t *testing.T) {
	var p Pool[int]
	const size = 64 << 10
	for i := range PoolBytes / size {
		p.Put(0, i, size)
	}
	p.Put(0, -1, size)
	p.Put(1, -2, PoolBytes) // one item of PoolBytes fits an empty class
	p.Put(2, -3, PoolBytes+1)
	n := 0
	for x, ok := p.Get(0); ok; x, ok = p.Get(0) {
		if x < 0 {
			t.Fatal("class 0 listed the item past its bound")
		}
		n++
	}
	if n != PoolBytes/size {
		t.Errorf("class 0 kept %d items of %d bytes, want %d", n, size, PoolBytes/size)
	}
	if _, ok := p.Get(1); !ok {
		t.Error("an empty class dropped an item of PoolBytes")
	}
	if _, ok := p.Get(2); ok {
		t.Error("an empty class listed an item larger than PoolBytes")
	}
}

// GetSlab cuts a slab of its class's capacity to the length asked for, and
// recycles the one PutSlab listed; a slab of no class's capacity, or past
// the last class, is left to the garbage collector.
func TestPoolSlabs(t *testing.T) {
	var p Pool[[]int32]
	s := GetSlab(&p, 5)
	if len(s) != 5 || cap(s) != 8 {
		t.Fatalf("GetSlab(5) = len %d cap %d, want 5 of class 8", len(s), cap(s))
	}
	PutSlab(&p, s)
	if got := GetSlab(&p, 7); len(got) != 7 || &got[0] != &s[0] {
		t.Fatal("GetSlab after PutSlab did not recycle the slab")
	}
	PutSlab(&p, make([]int32, 5, 12))
	PutSlab(&p, nil)
	if got, ok := p.Get(4); ok {
		t.Fatalf("a slab of capacity 12 was listed in class 4: cap %d", cap(got))
	}
	if _, ok := p.Get(0); ok {
		t.Fatal("a nil slab was listed")
	}
	const past = 1<<(Classes-1) + 1 // one element more than the last class holds
	if big := GetSlab(&p, past); len(big) != past || cap(big) != past {
		t.Fatalf("GetSlab past the last class = len %d cap %d, want exactly %d", len(big), cap(big), past)
	}
}

// Put scrubs what it takes back, or poisons it under poison-on-release; a
// pool with neither hook leaves it alone.
func TestPoolScrubAndPoison(t *testing.T) {
	fill := func(x int32) func([]int32) {
		return func(s []int32) {
			for i := range s {
				s[i] = x
			}
		}
	}
	scrubbed := Pool[[]int32]{Scrub: fill(0), Poison: fill(-1)}
	var plain Pool[[]int32]
	defer SetPoison(false)
	for _, poisoned := range []bool{false, true} {
		SetPoison(poisoned)
		want := int32(0)
		if poisoned {
			want = -1
		}
		for _, c := range []struct {
			name string
			p    *Pool[[]int32]
			want int32
		}{{"scrubbed", &scrubbed, want}, {"plain", &plain, 7}} {
			s := GetSlab(c.p, 4)
			for i := range s {
				s[i] = 7
			}
			PutSlab(c.p, s[:2]) // the whole slab goes back, not its length
			for i, v := range GetSlab(c.p, 4) {
				if v != c.want {
					t.Errorf("poison %t: %s pool's recycled slab reads %d at %d, want %d", poisoned, c.name, v, i, c.want)
				}
			}
		}
	}
}
