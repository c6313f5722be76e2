package index

import (
	"griffin/internal/bitutil"
	"griffin/internal/ef"
)

// FreqStore holds a posting list's within-document term frequencies in
// bit-packed 128-entry blocks: each block stores its values at the fixed
// width of its largest value. Frequencies are tiny and highly skewed
// (mostly 1-4), so packing cuts their footprint by ~8x versus raw u32 —
// §2.1.1's "each entry in the inverted list contains a document
// frequency" implies they travel with the index and must be compressed
// like the docIDs they annotate.
type FreqStore struct {
	n int
	// pages is the table of frequency blocks, paged like the Elias-Fano
	// block table beside it (ef.PageShift) and spliced with it.
	pages []ef.Page[freqRow]
}

// freqRow is a frequency block's entry in its table: where its words
// start in its page, its width and its word count — 4 bytes, no pointer.
type freqRow struct {
	off      uint16
	b, words uint8
}

// spliceFreqs is ef.List.Splice for frequencies: old's blocks [0, k),
// whole pages shared and the rows and words of the page k falls in
// copied, then the encoding of tail. With k == 0, old may be nil, and the
// result packs tail alone. Like ef.Compress it sizes each page of blocks
// first (a block's width is that of the OR of its values) and packs every
// block, a word at a time, into that page's one allocation: nothing is
// allocated per block.
func spliceFreqs(old *FreqStore, k int, tail []uint32) *FreqStore {
	var e freqEncoder
	if k > 0 {
		last := &old.pages[(k-1)>>ef.PageShift].Rows[(k-1)&(1<<ef.PageShift-1)]
		e.pager.Seed(old.pages, k, int(last.off)+int(last.words))
		e.n = k * BlockSize
	}
	e.pager.Fill((len(tail)+BlockSize-1)/BlockSize,
		func(j int) int { _, w := freqShape(freqBlockOf(tail, j)); return w },
		func(j int) { e.append(freqBlockOf(tail, j)) })
	return e.finish()
}

// freqBlockOf returns the frequencies of block k of a list.
func freqBlockOf(freqs []uint32, k int) []uint32 {
	return freqs[k*BlockSize : min((k+1)*BlockSize, len(freqs))]
}

// freqShape returns the width of the block chunk and its word count.
func freqShape(chunk []uint32) (b, words int) {
	var or uint32
	for _, f := range chunk {
		or |= f
	}
	b = bitutil.BitsFor(uint64(or))
	return b, bitutil.WordsFor(len(chunk) * b)
}

// freqEncoder is spliceFreqs for lists that arrive a block at a time, the
// frequency half of what ef.Encoder is for docIDs.
type freqEncoder struct {
	n     int
	pager ef.Pager[freqRow]
}

// append packs chunk as the list's next block.
func (e *freqEncoder) append(chunk []uint32) {
	b, n := freqShape(chunk)
	off, w := e.pager.Alloc(n)
	bitutil.Pack(w, chunk, b)
	e.pager.Add(freqRow{off: uint16(off), b: uint8(b), words: uint8(n)})
	e.n += len(chunk)
}

// finish returns the store of the blocks appended since the last finish
// and readies the encoder for the next list.
func (e *freqEncoder) finish() *FreqStore {
	fs := &FreqStore{n: e.n, pages: e.pager.Finish()}
	e.n = 0
	return fs
}

// Len returns the number of stored frequencies.
func (fs *FreqStore) Len() int { return fs.n }

// At returns the i-th frequency.
func (fs *FreqStore) At(i int) uint32 { return fs.inBlock(i/BlockSize, i%BlockSize) }

// inBlock returns the frequency of posting i of block k.
func (fs *FreqStore) inBlock(k, i int) uint32 {
	pg := &fs.pages[k>>ef.PageShift]
	r := pg.Rows[k&(1<<ef.PageShift-1)]
	return uint32(bitutil.GetBits(pg.Words[r.off:], i*int(r.b), int(r.b)))
}

// DecodeBlock unpacks the frequencies of block k — those of the postings
// ef block k holds — into dst, which must have capacity for them, and
// returns their count.
func (fs *FreqStore) DecodeBlock(k int, dst []uint32) int {
	n := min(BlockSize, fs.n-k*BlockSize)
	pg := &fs.pages[k>>ef.PageShift]
	r := pg.Rows[k&(1<<ef.PageShift-1)]
	bitutil.Unpack(dst[:n], pg.Words[r.off:int(r.off)+int(r.words)], int(r.b))
	return n
}

// Decode returns all frequencies as a fresh slice.
func (fs *FreqStore) Decode() []uint32 {
	out := make([]uint32, fs.n)
	for k := 0; k*BlockSize < fs.n; k++ {
		fs.DecodeBlock(k, out[k*BlockSize:])
	}
	return out
}
