package page

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzDiffApply feeds Apply hostile wire bodies — negative offsets,
// negative lengths, out-of-page spans, int32-overflowing Off+Len — as a
// forged peer could deliver them. Per the hostile-peer policy the diff
// must be applied whole or rejected whole: no panic, and on error the page
// is untouched (no torn partial apply). A body ParseBody refuses is never
// applied; one it accepts applies exactly when every run fits the page,
// borrowed (SetWire, as the wire decoder builds it) or parsed alike.
func FuzzDiffApply(f *testing.F) {
	// Seeds: benign, off-end, negative offset, negative length, an
	// Off+Len past int32, and overlapping runs, which are legal. Each
	// (offset, length) pair travels as the body spells it, followed by its
	// payload when the length is small enough to have one.
	seed := func(pairs ...uint64) []byte {
		b := binary.AppendUvarint(nil, uint64(len(pairs)/2))
		for i := 0; i < len(pairs); i += 2 {
			b = binary.AppendUvarint(binary.AppendUvarint(b, pairs[i]), pairs[i+1])
			if pairs[i+1] < 1<<12 {
				b = append(b, bytes.Repeat([]byte{0xAB}, int(pairs[i+1]))...)
			}
		}
		return b
	}
	f.Add(seed(0, 4, 8, 4), byte(64))
	f.Add(seed(60, 8), byte(64))
	f.Add(seed(0xFFFFFFFC, 4), byte(64)) // -4 in a 32-bit field
	f.Add(seed(4, 0xFFFFFFFC), byte(64))
	f.Add(seed(1<<31-1, 4), byte(64))
	f.Add(seed(0, 8, 4, 8), byte(16))

	f.Fuzz(func(t *testing.T, body []byte, pageSize byte) {
		size := int(pageSize)
		page := make([]byte, size)
		for i := range page {
			page[i] = byte(i)
		}
		before := bytes.Clone(page)
		parsed, err := ParseBody(body)
		if err != nil {
			return
		}
		defer parsed.Release()
		// The page the body makes, if every run fits it.
		want, fits := bytes.Clone(before), true
		runs := parsed.AppendRuns(nil)
		pos := uvarintLen(uint64(len(runs)))
		for _, r := range runs {
			if r.Off < 0 || r.Len < 0 {
				t.Fatalf("ParseBody accepted the run %+v", r)
			}
			pos += uvarintLen(uint64(r.Off)) + uvarintLen(uint64(r.Len))
			if int(r.Off)+int(r.Len) > size {
				fits = false
				break
			}
			copy(want[r.Off:], body[pos:pos+int(r.Len)])
			pos += int(r.Len)
		}
		borrowed := new(Diff)
		borrowed.SetWire(body)
		for _, d := range []*Diff{parsed, borrowed} {
			copy(page, before)
			err := d.Apply(page)
			switch {
			case err != nil && fits:
				t.Fatalf("a body whose runs fit a %d-byte page was refused: %v", size, err)
			case err != nil && !bytes.Equal(page, before):
				t.Fatalf("rejected diff tore the page: %x -> %x", before, page)
			case err == nil && !fits:
				t.Fatalf("a run past a %d-byte page was applied", size)
			case err == nil && !bytes.Equal(page, want):
				t.Fatalf("applied diff made %x, want %x", page, want)
			}
		}
	})
}
