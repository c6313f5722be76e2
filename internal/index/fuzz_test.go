package index

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzReadIndex hammers the parser with corrupt inputs: it must return
// an error or an index that is safe to use — every block of every
// accepted input is read through select, the serial decode and both
// frequency lookups, none of which may panic — and whose serialization
// is the input again. The seed corpus includes genuine serialized
// indexes plus truncations, bit flips and a zeroed high-bits word (which
// version 2 accepted, and Get then panicked on).
func FuzzReadIndex(f *testing.F) {
	b := NewBuilder(CodecEF)
	_ = b.AddDocument(0, []string{"alpha", "beta"})
	_ = b.AddDocument(1, []string{"beta", "gamma", "beta"})
	ix, err := b.Build()
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:8])
	f.Add([]byte("GRIF"))
	flipped := append([]byte(nil), valid...)
	if len(flipped) > 20 {
		flipped[20] ^= 0xff
	}
	f.Add(flipped)
	_, blocks := fileOf(f, rejectIndex(f))
	f.Add(blocks)
	zeroed := append([]byte(nil), blocks...)
	binary.LittleEndian.PutUint64(zeroed[layoutOf(f, blocks).words:], 0)
	f.Add(zeroed)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			return
		}
		ix, err := ReadIndex(bytes.NewReader(data))
		if err != nil {
			return // rejection is the expected outcome for garbage
		}
		var ids [BlockSize]uint32
		for _, term := range ix.Terms() {
			pl, ok := ix.Lookup(term)
			if !ok || pl.N < 0 || pl.Freqs.Len() != pl.N {
				t.Fatalf("inconsistent parsed index: term %q", term)
			}
			for bi := range pl.EF.NumBlocks() {
				blk := pl.EF.Block(bi)
				n := pl.EF.DecompressBlock(bi, ids[:])
				if last := pl.EF.Get(bi, blk.N-1); n != blk.N || last != ids[n-1] {
					t.Fatalf("term %q block %d: decoded %d of %d, last %d vs Get %d", term, bi, n, blk.N, ids[n-1], last)
				}
				for i, id := range ids[:n] {
					pl.Freqs.At(bi*BlockSize + i)
					pl.FreqForDoc(id)
				}
			}
		}
		var out bytes.Buffer
		if _, err := ix.WriteTo(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatalf("accepted input (%d bytes) serializes to different bytes (%d)", len(data), out.Len())
		}
	})
}
