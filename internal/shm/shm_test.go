package shm

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/dsm"
	"repro/internal/mem"
	"repro/internal/page"
)

// flatMem is a single-process Mem over a plain byte slice, for testing
// the handle arithmetic and encoding without a runtime.
type flatMem struct {
	b    []byte
	fail error
}

func (f *flatMem) Read(buf []byte, addr mem.Addr) error {
	if f.fail != nil {
		return f.fail
	}
	copy(buf, f.b[addr:])
	return nil
}

func (f *flatMem) Write(addr mem.Addr, data []byte) error {
	if f.fail != nil {
		return f.fail
	}
	copy(f.b[addr:], data)
	return nil
}

func (f *flatMem) Acquire(mem.LockID) error    { return f.fail }
func (f *flatMem) Release(mem.LockID) error    { return f.fail }
func (f *flatMem) Barrier(mem.BarrierID) error { return f.fail }

func testArena(t *testing.T, space mem.Addr, page int) *Arena {
	t.Helper()
	return NewArena(mem.MustLayout(space, page))
}

func TestVarRoundTrip(t *testing.T) {
	a := testArena(t, 4096, 512)
	m := &flatMem{b: make([]byte, 4096)}
	u := NewVar[uint64](a)
	bt := NewVar[byte](a)
	if err := u.Store(m, 0xdeadbeefcafe); err != nil {
		t.Fatal(err)
	}
	if err := bt.Store(m, 0x7f); err != nil {
		t.Fatal(err)
	}
	if v, err := u.Load(m); err != nil || v != 0xdeadbeefcafe {
		t.Fatalf("uint64 = %#x, %v", v, err)
	}
	if v, err := bt.Load(m); err != nil || v != 0x7f {
		t.Fatalf("byte = %#x, %v", v, err)
	}
	if old, err := u.Add(m, 2); err != nil || old != 0xdeadbeefcafe {
		t.Fatalf("Add = %#x, %v", old, err)
	}
	if v, _ := u.Load(m); v != 0xdeadbeefcafe+2 {
		t.Fatalf("after Add = %#x", v)
	}
	// The byte var must not have been clobbered by its 8-byte neighbor.
	if v, _ := bt.Load(m); v != 0x7f {
		t.Fatalf("byte neighbor clobbered: %#x", v)
	}
}

func TestArenaLayout(t *testing.T) {
	a := testArena(t, 8192, 1024)
	v1 := NewVar[byte](a)
	v2 := NewVar[uint64](a) // must skip to 8-byte alignment
	if v1.Addr() != 0 {
		t.Errorf("first alloc at %d", v1.Addr())
	}
	if v2.Addr() != 8 {
		t.Errorf("uint64 after byte at %d, want aligned 8", v2.Addr())
	}
	arr := NewArray[uint64](a, 4)
	if arr.Base() != 16 || arr.Len() != 4 || arr.Stride() != 8 {
		t.Errorf("array = base %d len %d stride %d", arr.Base(), arr.Len(), arr.Stride())
	}
	if got := arr.At(3).Addr(); got != 16+24 {
		t.Errorf("At(3) = %d", got)
	}
	a.PageAlign()
	padded := NewStridedArray[uint64](a, 3, 1024)
	if padded.Base() != 1024 {
		t.Errorf("page-aligned array at %d", padded.Base())
	}
	if got := padded.At(2).Addr(); got != 1024+2048 {
		t.Errorf("strided At(2) = %d", got)
	}
	if a.Used() != 1024+2*1024+8 {
		t.Errorf("Used = %d", a.Used())
	}
	// Deterministic replay: an identical construction sequence yields
	// identical addresses — the property cross-process schemas rely on.
	b := testArena(t, 8192, 1024)
	NewVar[byte](b)
	if got := NewVar[uint64](b); got != v2 {
		t.Errorf("replayed schema diverged: %v vs %v", got, v2)
	}
}

// TestHandlesNeverShareADiffWord: the runtime merges concurrent writers of
// a page word by word, so two handles in one word — a byte array's tail and
// the unaligned blob behind it, say — can overwrite each other under
// different locks. Over a mixed schema, whatever alignment the handle asks
// for, no two handles' byte ranges fall in one word.
func TestHandlesNeverShareADiffWord(t *testing.T) {
	a := testArena(t, 8192, 1024)
	type span struct {
		name      string
		base, end mem.Addr // [base, end)
	}
	var spans []span
	add := func(name string, base mem.Addr, size int) {
		spans = append(spans, span{name, base, base + mem.Addr(size)})
	}
	add("total", NewVar[uint64](a).Addr(), 8)
	flags := NewArray[byte](a, 3)
	add("flags", flags.Base(), 3)
	add("blob", NewBytes(a, 16).Addr(), 16)
	add("flag", NewVar[byte](a).Addr(), 1)
	add("odd blob", NewBytes(a, 5).Addr(), 5)
	strided := NewStridedArray[byte](a, 3, 3)
	add("strided bytes", strided.Base(), 2*3+1)
	regions := NewBytesArray(a, 3, 2, 5)
	add("regions", regions.At(0).Addr(), 2*5+2)
	add("raw", a.Alloc(1, 1), 1)
	add("raw pair", a.Alloc(2, 2), 2)
	add("counter", NewVar[uint64](a).Addr(), 8)

	word := func(addr mem.Addr) mem.Addr { return addr / page.WordSize }
	for i, s := range spans {
		if s.base%page.WordSize != 0 {
			t.Errorf("%s starts at %d, inside a diff word", s.name, s.base)
		}
		if i > 0 {
			if prev := spans[i-1]; word(prev.end-1) >= word(s.base) {
				t.Errorf("%s [%d,%d) and %s [%d,%d) share diff word %d", prev.name, prev.base, prev.end, s.name, s.base, s.end, word(s.base))
			}
		}
	}
}

func TestArenaIDs(t *testing.T) {
	a := testArena(t, 4096, 512)
	if l := a.NewLock(); l.ID() != 0 {
		t.Errorf("first lock id %d", l.ID())
	}
	if l := a.NewLock(); l.ID() != 1 {
		t.Errorf("second lock id %d", l.ID())
	}
	if b := a.NewBarrier(); b.ID() != 0 {
		t.Errorf("first barrier id %d", b.ID())
	}
}

func TestArenaPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"exhausted": func() { testArena(t, 1024, 512).Alloc(2048, 1) },
		"bad align": func() { testArena(t, 1024, 512).Alloc(8, 3) },
		"zero size": func() { testArena(t, 1024, 512).Alloc(0, 1) },
		"thin stride": func() {
			NewStridedArray[uint64](testArena(t, 1024, 512), 2, 4)
		},
		"index oob": func() {
			a := testArena(t, 1024, 512)
			NewArray[uint64](a, 2).At(2)
		},
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			f()
		})
	}
}

func TestErrorsPropagate(t *testing.T) {
	boom := errors.New("boom")
	m := &flatMem{b: make([]byte, 64), fail: boom}
	v := VarAt[uint64](0)
	if err := v.Store(m, 1); !errors.Is(err, boom) {
		t.Errorf("Store = %v", err)
	}
	if _, err := v.Load(m); !errors.Is(err, boom) {
		t.Errorf("Load = %v", err)
	}
	if _, err := v.Add(m, 1); !errors.Is(err, boom) {
		t.Errorf("Add = %v", err)
	}
	if err := LockAt(0).Acquire(m); !errors.Is(err, boom) {
		t.Errorf("Acquire = %v", err)
	}
	if err := BarrierAt(0).Wait(m); !errors.Is(err, boom) {
		t.Errorf("Wait = %v", err)
	}
	if err := Locked(m, LockAt(0), func() error { return nil }); !errors.Is(err, boom) {
		t.Errorf("Locked = %v", err)
	}
}

func TestLockedReleasesOnBodyError(t *testing.T) {
	m := &flatMem{b: make([]byte, 64)}
	bodyErr := errors.New("body failed")
	if err := Locked(m, LockAt(0), func() error { return bodyErr }); !errors.Is(err, bodyErr) {
		t.Errorf("Locked = %v, want the body's error", err)
	}
}

// TestFacadeOnLiveRuntime drives the typed handles against a real DSM
// under every protocol engine: a lock-arbitrated counter plus a
// barrier-phased per-node array, with the handles shared across nodes.
func TestFacadeOnLiveRuntime(t *testing.T) {
	for _, mode := range dsm.Modes {
		t.Run(mode.String(), func(t *testing.T) {
			const procs, iters = 4, 20
			sys, err := dsm.New(dsm.Config{
				Procs: procs, SpaceSize: 64 * 1024, PageSize: 1024, Mode: mode,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer sys.Close()

			a := NewArena(sys.Layout())
			counter := NewVar[uint64](a)
			a.PageAlign()
			slots := NewStridedArray[uint64](a, procs, 1024)
			lock := a.NewLock()
			phase := a.NewBarrier()

			var wg sync.WaitGroup
			errs := make([]error, procs)
			for i := 0; i < procs; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					n := sys.Node(i)
					for k := 0; k < iters; k++ {
						errs[i] = Locked(n, lock, func() error {
							_, err := counter.Add(n, 1)
							return err
						})
						if errs[i] != nil {
							return
						}
					}
					if errs[i] = slots.At(i).Store(n, uint64(100+i)); errs[i] != nil {
						return
					}
					errs[i] = phase.Wait(n)
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("node %d: %v", i, err)
				}
			}

			n := sys.Node(0)
			var total uint64
			if err := Locked(n, lock, func() error {
				v, err := counter.Load(n)
				total = v
				return err
			}); err != nil {
				t.Fatal(err)
			}
			if total != procs*iters {
				t.Fatalf("counter = %d, want %d", total, procs*iters)
			}
			for i := 0; i < procs; i++ {
				if v, err := slots.At(i).Load(n); err != nil || v != uint64(100+i) {
					t.Fatalf("slot %d = %d, %v", i, v, err)
				}
			}
		})
	}
}
