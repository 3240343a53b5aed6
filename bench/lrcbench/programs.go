package main

import (
	"bytes"
	"encoding/binary"
	"math/rand"

	"repro/internal/mem"
)

const (
	nodes    = 4 // smallest cluster where lock manager, last holder and requester differ
	pageSize = 4096
)

// stepProgram is a synthetic workload: every node runs the same steps
// s = 0, 1, 2, ..., each a sequence of phases with a cluster barrier
// after every phase, so the cluster is quiescent between any two steps
// and the expected memory contents after any step count are known
// analytically. Within a phase the nodes' accesses are independent of
// one another's order (disjoint, or under a lock with one taker), which
// is what lets the model recorder run the nodes one after another.
type stepProgram interface {
	// space is the shared address space the program needs.
	space() mem.Addr
	// opsPerStep is how many ops one step of the whole cluster performs.
	opsPerStep() int64
	// checksPerStep is how many verified ops one node performs per step;
	// an aborted node fails that many for every step it did not run.
	checksPerStep() int64
	// phases is the number of barrier-separated phases of a step.
	phases() int
	// phase runs phase ph of step s on w's node, counting each verified
	// op on w. The caller then takes the node to barrier ph.
	phase(w *worker, s, ph int) error
	// image is the expected address space after steps complete steps.
	image(steps int) []byte
}

// --- hit-private ---

const (
	hpSlab   = 64 << 10    // bytes per node, 16 pages
	hpWords  = hpSlab / 8  // 8192
	hpWrites = hpWords / 2 // per round: 4096 writes alternating with 4096 reads
	hpLag    = hpWrites / 2
)

// hitPrivate has every node read and write only its own slab: nothing is
// shared, so apart from the closing barrier a round is pure access layer.
// Node i's slab is the 16 pages with page id = i mod 4, the pages the
// default block placement homes at node i: were the home elsewhere, it
// would pull every diff of its copy at each GC and the workload would
// measure diff flattening instead of the access path.
// Access 2j writes word addr[j]; access 2j+1 reads back the word written
// hpLag writes earlier (this round's value for j >= hpLag, last round's
// otherwise), so every read is checked against a known value.
type hitPrivate struct {
	addr    [nodes][]mem.Addr // write address sequence, a seeded odd stride over the slab
	touches [nodes][]bool     // touches[i][j]: write j is the first to its page in a round
}

func newHitPrivate(seed int64) *hitPrivate {
	p := &hitPrivate{}
	for i := range p.addr {
		p.addr[i], p.touches[i] = strideSequence(seed, i)
	}
	return p
}

// strideSequence returns node i's write addresses for one round — start
// + j*stride over the slab's words with a seeded start and odd stride,
// so no word repeats — and marks each write that is the first to touch
// its page.
func strideSequence(seed int64, node int) ([]mem.Addr, []bool) {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(node)))
	start, stride := rng.Intn(hpWords), 2*rng.Intn(hpWords/2)+1
	addr := make([]mem.Addr, hpWrites)
	touches := make([]bool, hpWrites)
	var seen [hpSlab / pageSize]bool
	for j := range addr {
		word := (start + j*stride) % hpWords
		pg, off := word*8/pageSize, word*8%pageSize
		addr[j] = mem.Addr((pg*nodes+node)*pageSize + off)
		if !seen[pg] {
			seen[pg], touches[j] = true, true
		}
	}
	return addr, touches
}

func hpValue(node, round, j int) uint64 {
	return uint64(round+1)<<32 | uint64(node)<<16 | uint64(j)
}

func (p *hitPrivate) space() mem.Addr      { return nodes * hpSlab }
func (p *hitPrivate) opsPerStep() int64    { return nodes * 2 * hpWrites }
func (p *hitPrivate) checksPerStep() int64 { return 2 * hpWrites }
func (p *hitPrivate) phases() int          { return 1 }

func (p *hitPrivate) phase(w *worker, round, _ int) error {
	addr, touches := p.addr[w.id], p.touches[w.id]
	for j := range addr {
		tag := repeat
		if touches[j] {
			tag = missed // first write to the page since the barrier: twin capture
		}
		w.beginOp()
		err := w.write64(addr[j], hpValue(w.id, round, j), tag)
		w.endOp()
		if err != nil {
			return err
		}
		w.check(true)

		back, want := (j+hpLag)%hpWrites, uint64(0)
		if back <= j {
			want = hpValue(w.id, round, back)
		} else if round > 0 {
			want = hpValue(w.id, round-1, back)
		}
		w.beginOp()
		got, err := w.read64(addr[back], repeat)
		w.endOp()
		if err != nil {
			return err
		}
		w.check(got == want)
	}
	return nil
}

func (p *hitPrivate) image(rounds int) []byte {
	img := make([]byte, p.space())
	if rounds == 0 {
		return img
	}
	for i := range p.addr {
		for j, a := range p.addr[i] {
			binary.LittleEndian.PutUint64(img[a:], hpValue(i, rounds-1, j))
		}
	}
	return img
}

// --- lock-ring ---

const (
	lrLocks      = 32
	lrGroups     = lrLocks / nodes // critical sections per node per step
	lrRecord     = 64              // bytes read and rewritten under each lock
	lrSpacing    = 1024            // record r lives at r*lrSpacing: four records, four writers per page
	lrPrivate    = 16              // private read-modify-writes after each critical section
	lrPrivBase   = lrLocks * lrSpacing
	lrPrivWords  = pageSize / 8
	lrPrivStride = 37 // odd, so successive private words spread over the page
)

// lockRing passes 32 locks around the ring: in step s node i takes lock
// ringLock(i, s, m) for m = 0..7, so every lock has exactly one taker
// per step, its holder rotates, and the barrier ending the step makes
// the happened-before order — and with it the message count —
// independent of scheduling. Every acquire is remote and uncontended.
type lockRing struct {
	salt [lrLocks][lrRecord]byte // seeded record fill
}

func newLockRing(seed int64) *lockRing {
	p := &lockRing{}
	rng := rand.New(rand.NewSource(seed))
	for l := range p.salt {
		rng.Read(p.salt[l][:])
	}
	return p
}

// ringLock is the m-th lock node takes in step s.
func ringLock(node, s, m int) int { return (node+s)%nodes + nodes*m }

// record fills buf with record l's contents after k updates: the counter
// k, then bytes that all change with every update (each advances by its
// own odd, seeded stride) and are zero, like fresh memory, before the
// first.
func (p *lockRing) record(buf []byte, l, k int) {
	binary.LittleEndian.PutUint64(buf, uint64(k))
	for b := 8; b < lrRecord; b++ {
		buf[b] = byte(k) * (p.salt[l][b] | 1)
	}
}

func lrPrivAddr(node, word int) mem.Addr {
	return mem.Addr(lrPrivBase + node*pageSize + word*8)
}

// lrPrivWord is the t-th private word node touches in its n-th critical
// section overall.
func lrPrivWord(n, t int) int { return (n*lrPrivate + t) * lrPrivStride % lrPrivWords }

func (p *lockRing) space() mem.Addr      { return lrPrivBase + nodes*pageSize }
func (p *lockRing) opsPerStep() int64    { return nodes * lrGroups }
func (p *lockRing) checksPerStep() int64 { return lrGroups }
func (p *lockRing) phases() int          { return 1 }

func (p *lockRing) phase(w *worker, s, _ int) error {
	var got, want, next [lrRecord]byte
	for m := 0; m < lrGroups; m++ {
		l := ringLock(w.id, s, m)
		addr := mem.Addr(l * lrSpacing)
		p.record(want[:], l, s)
		p.record(next[:], l, s+1)
		w.beginOp()
		if err := w.acquire(l); err != nil {
			return err
		}
		if err := w.read(got[:], addr, missed); err != nil {
			return err
		}
		ok := got == want
		if err := w.write(addr, next[:], first); err != nil {
			return err
		}
		if err := w.release(l); err != nil {
			return err
		}
		// Each private word holds how often it has been incremented. The
		// sequence visits words with an odd stride over a power-of-two
		// page, so it returns to a word every lrPrivWords accesses.
		n := s*lrGroups + m
		for t := 0; t < lrPrivate; t++ {
			tag := repeat
			if t == 0 {
				tag = first
			}
			word := lrPrivWord(n, t)
			a := lrPrivAddr(w.id, word)
			v, err := w.read64(a, tag)
			if err != nil {
				return err
			}
			ok = ok && v == uint64((n*lrPrivate+t)/lrPrivWords)
			if err := w.write64(a, v+1, tag); err != nil {
				return err
			}
		}
		w.endOp()
		w.check(ok)
	}
	return nil
}

func (p *lockRing) image(steps int) []byte {
	img := make([]byte, p.space())
	for l := 0; l < lrLocks; l++ {
		p.record(img[l*lrSpacing:l*lrSpacing+lrRecord], l, steps)
	}
	accesses := steps * lrGroups * lrPrivate
	for i := 0; i < nodes; i++ {
		for k := 0; k < lrPrivWords; k++ {
			// The word first visited at sequence position k, then every
			// lrPrivWords positions after it.
			word := k * lrPrivStride % lrPrivWords
			count := (accesses - k + lrPrivWords - 1) / lrPrivWords
			if k >= accesses {
				count = 0
			}
			binary.LittleEndian.PutUint64(img[lrPrivAddr(i, word):], uint64(count))
		}
	}
	return img
}

// --- barrier-slab ---

const (
	bsSlabPages = 4
	bsPages     = nodes * bsSlabPages
)

// barrierSlab has every node rewrite its own four pages — every byte
// changes — and, after a barrier, read and verify the twelve pages the
// others wrote, one page per Read. Under LI each of those reads is a
// miss that pulls a whole-page diff; under EU the barrier has already
// pushed the updates and the reads are hits.
type barrierSlab struct {
	base [bsPages][pageSize]byte // seeded page contents
}

func newBarrierSlab(seed int64) *barrierSlab {
	p := &barrierSlab{}
	rng := rand.New(rand.NewSource(seed))
	for pg := range p.base {
		rng.Read(p.base[pg][:])
	}
	return p
}

// contents fills buf with page pg as written in step s: the seeded base
// XOR a byte that differs between consecutive steps, so a rewrite
// changes every byte of the page.
func (p *barrierSlab) contents(buf []byte, pg, s int) {
	mask := uint64(byte(s+1)) * 0x0101010101010101
	base := p.base[pg][:]
	for o := 0; o < pageSize; o += 8 {
		binary.LittleEndian.PutUint64(buf[o:], binary.LittleEndian.Uint64(base[o:])^mask)
	}
}

func (p *barrierSlab) space() mem.Addr      { return bsPages * pageSize }
func (p *barrierSlab) opsPerStep() int64    { return 1 }
func (p *barrierSlab) checksPerStep() int64 { return 1 }
func (p *barrierSlab) phases() int          { return 2 }

// phase 0 rewrites the node's slab; phase 1, after the barrier, reads
// and verifies everyone else's. The op is the whole step.
func (p *barrierSlab) phase(w *worker, s, ph int) error {
	if w.scratch == nil {
		w.scratch = make([]byte, 2*pageSize)
	}
	want, got := w.scratch[:pageSize], w.scratch[pageSize:]
	if ph == 0 {
		w.beginOp()
		for k := 0; k < bsSlabPages; k++ {
			pg := w.id*bsSlabPages + k
			p.contents(want, pg, s)
			if err := w.write(mem.Addr(pg*pageSize), want, first); err != nil {
				return err
			}
		}
		return nil
	}
	ok := true
	// Start with the next node's slab so the four nodes do not all pull
	// from the same writer at once.
	for k := bsSlabPages; k < bsPages; k++ {
		pg := (w.id*bsSlabPages + k) % bsPages
		if err := w.read(got, mem.Addr(pg*pageSize), missed); err != nil {
			return err
		}
		p.contents(want, pg, s)
		ok = ok && bytes.Equal(got, want)
	}
	w.check(ok)
	return nil
}

func (p *barrierSlab) image(steps int) []byte {
	img := make([]byte, p.space())
	if steps == 0 {
		return img
	}
	for pg := 0; pg < bsPages; pg++ {
		p.contents(img[pg*pageSize:(pg+1)*pageSize], pg, steps-1)
	}
	return img
}
