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
	// base is the row of the first page that holds block 0, as
	// ef.List.Base is for the docIDs: 0 but for a view.
	base int
	// pages is the table of frequency blocks, paged like the Elias-Fano
	// block table beside it (ef.PageShift) and spliced with it.
	pages []ef.Page[freqRow]
}

// freqRow is a frequency block's entry in its table: where its words
// start in its page's run (ef.Page.Span), its width and its word count —
// 4 bytes, no pointer.
type freqRow struct {
	off      uint16
	b, words uint8
}

// spliceFreqs is ef.List.Splice for frequencies: old's blocks [0, k),
// whole pages shared, and of the page k falls in the rows before k copied
// and their words shared as ef.Pager.Seed shares them, then the encoding
// of tail into words of its own; a view's splice keeps its base. With
// k == 0, old may be nil, and the result packs tail alone. Like
// ef.Compress it sizes each page of blocks first (a block's width is that
// of the OR of its values) and packs every block, a word at a time, into
// that page's one allocation: nothing is allocated per block.
func spliceFreqs(old *FreqStore, k int, tail []uint32) *FreqStore {
	var e freqEncoder
	base := 0
	if k > 0 {
		last, _ := old.row(k - 1)
		base = old.base
		e.pager.Seed(old.pages, base+k, int(last.off)+int(last.words))
		e.n = k * BlockSize
	}
	e.pager.Fill((len(tail)+BlockSize-1)/BlockSize,
		func(j int) int { _, w := freqShape(freqBlockOf(tail, j)); return w },
		func(j int) { e.append(freqBlockOf(tail, j)) })
	fs := e.finish()
	fs.base = base
	return fs
}

// view returns the store of fs's blocks [k, end), k < end, sharing its
// pages, as ef.List.View does.
func (fs *FreqStore) view(k, end int) *FreqStore {
	n := min(end*BlockSize, fs.n) - k*BlockSize
	first, last := fs.base+k, fs.base+end-1
	return &FreqStore{n: n, base: first & (1<<ef.PageShift - 1), pages: fs.pages[first>>ef.PageShift : last>>ef.PageShift+1]}
}

// row returns block k's row and the page it lies in.
func (fs *FreqStore) row(k int) (freqRow, *ef.Page[freqRow]) {
	k += fs.base
	pg := &fs.pages[k>>ef.PageShift]
	return pg.Rows[k&(1<<ef.PageShift-1)], pg
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

// freqEncoder packs the blocks spliceFreqs hands it, a block at a time.
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

// finish returns the store of the blocks appended.
func (e *freqEncoder) finish() *FreqStore {
	return &FreqStore{n: e.n, pages: e.pager.Finish()}
}

// Len returns the number of stored frequencies.
func (fs *FreqStore) Len() int { return fs.n }

// At returns the i-th frequency.
func (fs *FreqStore) At(i int) uint32 { return fs.inBlock(i/BlockSize, i%BlockSize) }

// inBlock returns the frequency of posting i of block k.
func (fs *FreqStore) inBlock(k, i int) uint32 {
	r, pg := fs.row(k)
	return uint32(bitutil.GetBits(pg.Span(int(r.off), int(r.words)), i*int(r.b), int(r.b)))
}

// DecodeBlock unpacks the frequencies of block k — those of the postings
// ef block k holds — into dst, which must have capacity for them, and
// returns their count.
func (fs *FreqStore) DecodeBlock(k int, dst []uint32) int {
	n := min(BlockSize, fs.n-k*BlockSize)
	r, pg := fs.row(k)
	bitutil.Unpack(dst[:n], pg.Span(int(r.off), int(r.words)), int(r.b))
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
