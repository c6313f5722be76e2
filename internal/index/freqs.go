package index

import (
	"slices"

	"griffin/internal/bitutil"
	"griffin/internal/ef"
	"griffin/internal/pvec"
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
	// blocks is the table of frequency blocks, paged like the Elias-Fano
	// block table beside it (ef.PageShift) and spliced with it.
	blocks pvec.Vec[freqBlock]
}

// block returns frequency block k.
func (fs *FreqStore) block(k int) *freqBlock {
	return &fs.blocks.Pages()[k>>ef.PageShift][k&(1<<ef.PageShift-1)]
}

type freqBlock struct {
	b     uint8
	words []uint64
}

// PackFreqs compresses a frequency array. Like ef.Compress it sizes the
// list first (a block's width is that of the OR of its values) and packs
// every block, a word at a time, into slabs of at most ef.ChunkWords
// words: nothing is allocated per block.
func PackFreqs(freqs []uint32) *FreqStore {
	nb := (len(freqs) + BlockSize - 1) / BlockSize
	fs := &FreqStore{n: len(freqs), blocks: pvec.Make[freqBlock](ef.PageShift, nb)}
	left := 0
	for k := range nb {
		left += fs.block(k).shape(freqBlockOf(freqs, k))
	}
	var slab []uint64
	for k := range nb {
		chunk, fb := freqBlockOf(freqs, k), fs.block(k)
		need := bitutil.WordsFor(len(chunk) * int(fb.b))
		slab = ef.Slab(slab, need, left)
		left -= need
		slab = fb.pack(chunk, slab)
	}
	return fs
}

// freqBlockOf returns the frequencies of block k of a list.
func freqBlockOf(freqs []uint32, k int) []uint32 {
	return freqs[k*BlockSize : min((k+1)*BlockSize, len(freqs))]
}

// shape sets the block's width for chunk and returns its word count.
func (fb *freqBlock) shape(chunk []uint32) int {
	var or uint32
	for _, f := range chunk {
		or |= f
	}
	fb.b = uint8(bitutil.BitsFor(uint64(or)))
	return bitutil.WordsFor(len(chunk) * int(fb.b))
}

// pack packs chunk at the block's width into the first words of slab,
// which become the block's words, and returns the rest of slab.
func (fb *freqBlock) pack(chunk []uint32, slab []uint64) (rest []uint64) {
	n := bitutil.WordsFor(len(chunk) * int(fb.b))
	fb.words, rest = slab[:n:n], slab[n:]
	bitutil.Pack(fb.words, chunk, int(fb.b))
	return rest
}

// freqEncoder is PackFreqs for lists that arrive a block at a time; like
// ef.Encoder, which see, it cuts every slab at ef.ChunkWords words and
// carries a partly used one over to its next list.
type freqEncoder struct {
	n      int
	blocks []freqBlock // the current list's, copied out by finish
	slab   []uint64    // the words of the current slab no block has been given
}

// append packs chunk as the list's next block.
func (e *freqEncoder) append(chunk []uint32) {
	var fb freqBlock
	e.slab = ef.Slab(e.slab, fb.shape(chunk), ef.ChunkWords)
	e.slab = fb.pack(chunk, e.slab)
	if len(e.blocks) == cap(e.blocks) {
		e.blocks = slices.Grow(e.blocks, max(16, len(e.blocks))) // doubling, as in ef.Encoder
	}
	e.blocks = append(e.blocks, fb)
	e.n += len(chunk)
}

// finish returns the store of the blocks appended since the last finish
// and readies the encoder for the next list.
func (e *freqEncoder) finish() *FreqStore {
	fs := &FreqStore{n: e.n, blocks: pvec.Of(ef.PageShift, slices.Clone(e.blocks))}
	e.n, e.blocks = 0, e.blocks[:0]
	return fs
}

// Len returns the number of stored frequencies.
func (fs *FreqStore) Len() int { return fs.n }

// At returns the i-th frequency.
func (fs *FreqStore) At(i int) uint32 { return fs.inBlock(i/BlockSize, i%BlockSize) }

// inBlock returns the frequency of posting i of block k.
func (fs *FreqStore) inBlock(k, i int) uint32 {
	blk := fs.block(k)
	return uint32(bitutil.GetBits(blk.words, i*int(blk.b), int(blk.b)))
}

// DecodeBlock unpacks the frequencies of block k — those of the postings
// ef block k holds — into dst, which must have capacity for them, and
// returns their count.
func (fs *FreqStore) DecodeBlock(k int, dst []uint32) int {
	n := min(BlockSize, fs.n-k*BlockSize)
	blk := fs.block(k)
	bitutil.Unpack(dst[:n], blk.words, int(blk.b))
	return n
}

// Decode returns all frequencies as a fresh slice.
func (fs *FreqStore) Decode() []uint32 {
	out := make([]uint32, fs.n)
	for k := 0; k < fs.blocks.Len(); k++ {
		fs.DecodeBlock(k, out[k*BlockSize:])
	}
	return out
}

// CompressedBits returns the packed size in bits including per-block
// width bytes.
func (fs *FreqStore) CompressedBits() int64 {
	var bits int64
	for _, pg := range fs.blocks.Pages() {
		for i := range pg {
			bits += int64(len(pg[i].words))*64 + 8
		}
	}
	return bits
}
