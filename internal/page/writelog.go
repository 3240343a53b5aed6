package page

import (
	"encoding/binary"
	"math/bits"
	"slices"

	"repro/internal/framebuf"
)

// WriteLog captures a page copy's writes word by word, as Midway's software
// write detection does (Bershad, Zekauskas and Sawdon, COMPCON 1993), in
// place of a twin: every store reaches the copy through Write, so the words
// a window of writes — a lazy interval, an eager flush window — touched are
// known, and the first write of each saves that word's old value. A repeat
// write is a plain copy. Cut then makes the window's diff out of the logged
// words alone, byte-identical to MakeDiff(NewTwin(before), after); Swap
// exchanges the saved words with the page's, which turns the page into its
// contents before the window and back.
//
// A short final word (a page size that is not a multiple of WordSize) is
// logged like any other: its old value is its few bytes.
//
// The zero value is an empty log. A log holds storage only while its window
// is open: the first write takes it off the log storage pool (logBufs, a
// framebuf.Pool of word slabs), which Reset gives it back to, so a page that
// is not being written costs a pointer and a steady-state window allocates
// nothing.
type WriteLog struct {
	// buf is the window's storage, nil while it is empty: the bitmap of
	// logged words (bit w of buf[w/64]), then one entry per logged word in
	// first-write order until Cut sorts them — the word's index in the high
	// half, its value before the window's first write of it in the low half
	// (little-endian; a short final word's bytes in the low end), so that
	// entries sort by word.
	buf   []uint64
	marks int // bitmap words at the front of buf
}

// Empty reports whether the window has logged no word.
func (w *WriteLog) Empty() bool { return w.buf == nil }

// Bytes returns the bytes of old values the log holds, WordSize per word.
func (w *WriteLog) Bytes() int { return len(w.ents()) * WordSize }

// ents returns the log's entries.
func (w *WriteLog) ents() []uint64 {
	if w.buf == nil {
		return nil
	}
	return w.buf[w.marks:]
}

// Write copies src into data at off, first logging every word the write
// touches that the window has not logged yet. It returns the bytes of old
// values it logged (WordSize per new word).
func (w *WriteLog) Write(data []byte, off int, src []byte) (logged int) {
	if len(src) == 0 {
		return 0
	}
	first, last := uint(off)/WordSize, uint(off+len(src)-1)/WordSize
	if w.buf == nil {
		w.marks = (len(data) + 64*WordSize - 1) / (64 * WordSize)
		w.buf = framebuf.GetSlab(&logBufs, w.marks+8)[:w.marks]
		clear(w.buf)
	} else if n := last - first + 1; first/64 == last/64 && n < 64 {
		// A write within one bitmap word whose words are all logged: a
		// plain copy.
		if mask := (uint64(1)<<n - 1) << (first % 64); w.buf[first/64]&mask == mask {
			copy(data[off:], src)
			return 0
		}
	}
	for k := first; k <= last; k++ {
		if m, bit := &w.buf[k/64], uint64(1)<<(k%64); *m&bit == 0 {
			*m |= bit
			if len(w.buf) == cap(w.buf) {
				grown := framebuf.GetSlab(&logBufs, 2*len(w.buf))[:len(w.buf)]
				copy(grown, w.buf)
				framebuf.PutSlab(&logBufs, w.buf)
				w.buf = grown
			}
			w.buf = append(w.buf, uint64(k)<<32|uint64(wordAt(data, int(k)*WordSize)))
			logged += WordSize
		}
	}
	copy(data[off:], src)
	return logged
}

// wordAt returns the word of data at off: a short final word's bytes in
// the low end.
func wordAt(data []byte, off int) uint32 {
	if off+WordSize <= len(data) {
		return binary.LittleEndian.Uint32(data[off:])
	}
	var v uint32
	for i, b := range data[off:] {
		v |= uint32(b) << (8 * i)
	}
	return v
}

// putWord stores v as the word of data at off, the inverse of wordAt.
func putWord(data []byte, off int, v uint32) {
	if off+WordSize <= len(data) {
		binary.LittleEndian.PutUint32(data[off:], v)
		return
	}
	for i := range data[off:] {
		data[off+i] = byte(v >> (8 * i))
	}
}

// Swap exchanges every logged word's saved value with its value in data.
// After one Swap data holds its contents before the window, and the log the
// window's writes; a second Swap restores both.
func (w *WriteLog) Swap(data []byte) {
	ents := w.ents()
	for i, e := range ents {
		off := int(e>>32) * WordSize
		v := wordAt(data, off)
		putWord(data, off, uint32(e))
		ents[i] = e&^(1<<32-1) | uint64(v)
	}
}

// Cut appends to runs the diff the window's writes made of data, the page
// they were logged against: the logged words whose value changed, adjacent
// ones coalesced into a run, in ascending order — the runs MakeDiff finds
// between the page before the window and data. The window stays open.
func (w *WriteLog) Cut(runs []Run, data []byte) []Run {
	w.sort()
	for _, e := range w.ents() {
		off := int(e>>32) * WordSize
		if wordAt(data, off) == uint32(e) {
			continue
		}
		end := int32(min(off+WordSize, len(data)))
		if last := len(runs) - 1; last >= 0 && runs[last].End() == int32(off) {
			runs[last].Len = end - runs[last].Off
			continue
		}
		runs = append(runs, Run{Off: int32(off), Len: end - int32(off)})
	}
	return runs
}

// sort puts the entries in word order. A log that holds more than a
// sixteenth of its page's words scatters them by word into scratch off the
// pool and gathers them back in the bitmap's order, which costs the page's
// bitmap and the entries where a comparison sort costs a logarithm more
// per entry.
func (w *WriteLog) sort() {
	ents := w.ents()
	switch {
	case slices.IsSorted(ents):
	case 16*len(ents) < 64*w.marks:
		slices.Sort(ents)
	default:
		byWord := framebuf.GetSlab(&logBufs, 64*w.marks)
		for _, e := range ents {
			byWord[e>>32] = e
		}
		i := 0
		for b, m := range w.buf[:w.marks] {
			for ; m != 0; m &= m - 1 {
				ents[i] = byWord[64*b+bits.TrailingZeros64(m)]
				i++
			}
		}
		framebuf.PutSlab(&logBufs, byWord)
	}
}

// Reset ends the window: data's contents are now the committed ones, and
// the log forgets its words and gives its storage back.
func (w *WriteLog) Reset() {
	if w.buf != nil {
		framebuf.PutSlab(&logBufs, w.buf)
		w.buf = nil
	}
}

// logBufs is the log storage pool, classed by capacity in words: a log's
// buffers hold its page's bitmap and at least eight entries, so the
// smallest class a log takes is 16 words. A buffer goes back as it is, its
// stale words overwritten before it is read again, and under
// poison-on-release reads PoisonByte in every byte.
var logBufs = framebuf.Pool[[]uint64]{Poison: func(b []uint64) {
	for i := range b {
		b[i] = uint64(framebuf.PoisonByte) * 0x0101010101010101
	}
}}
