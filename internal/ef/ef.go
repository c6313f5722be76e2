// Package ef implements Elias-Fano encoding of monotone integer sequences
// (Elias 1974; Vigna's quasi-succinct indices, WSDM 2013), the codec
// Griffin-GPU adopts for its parallel decompression path.
//
// For a sequence of n non-decreasing integers with upper bound U, each
// value is split into b = floor(log2(U/n)) low bits, stored contiguously in
// the low-bits array, and the remaining high bits, stored as unary-coded
// d-gaps in the high-bits array (Figure 4 of the paper). Total space is
// close to the information-theoretic optimum, and decompression of element
// i needs only a select operation on the high-bits array plus one low-bits
// fetch — independent per element, which is what makes the scheme
// parallelizable on the (simulated) GPU.
//
// Like the PForDelta baseline, lists are partitioned into fixed 128-element
// blocks ("fixed-length partitioned EF", §3.1.1) so skip pointers can
// address and decompress blocks independently.
package ef

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"griffin/internal/bitutil"
	"griffin/internal/pvec"
)

// BlockSize is the number of docIDs per partitioned-EF block.
const BlockSize = 128

// ErrNotAscending is returned when input docIDs are not strictly ascending.
var ErrNotAscending = errors.New("ef: docIDs not strictly ascending")

// Block is one Elias-Fano-encoded block of up to BlockSize docIDs.
//
// Values are encoded relative to FirstDocID (the block's first value):
// element i stores v_i = docID_i - FirstDocID, so v_0 = 0 and the local
// universe is LastDocID - FirstDocID.
type Block struct {
	// FirstDocID is the first docID in the block, stored uncompressed.
	FirstDocID uint32
	// N is the number of encoded values.
	N int
	// B is the number of low bits per element.
	B int
	// HighBits is the unary-coded high-bits array: for each element a run
	// of zeros (the d-gap of its high part) terminated by a one. It
	// contains exactly N one-bits.
	HighBits []uint64
	// HighLen is the length of HighBits in bits.
	HighLen int
	// LowBits stores N contiguous B-bit low parts.
	LowBits []uint64
}

// PageShift sizes the pages a list's block table is held in: 64 blocks,
// 8 192 postings. A list re-encoded from block k on shares the pages
// below k with the list it was made from (pvec.Vec.Splice) and copies at
// most the one page k falls in — 5 KB of table, whatever the list's
// length. It is a constant, not a setting: the accessors below, which
// every probe of a skip pointer goes through, index with it.
const PageShift = 6

// List is a partitioned Elias-Fano compressed posting list.
type List struct {
	// N is the total number of docIDs.
	N int
	// Blocks are the encoded blocks in docID order, in pages of
	// 1<<PageShift.
	Blocks pvec.Vec[Block]
}

// Block returns block i of the list.
func (l *List) Block(i int) *Block {
	return &l.Blocks.Pages()[i>>PageShift][i&(1<<PageShift-1)]
}

// Compress encodes a strictly ascending docID list. Nothing is allocated
// per block: the list's words — per block the high-bits words, then the
// low-bits words, the layout index.Parse gives a list opened from a file
// — are sized before anything is encoded and cut from slabs of at most
// ChunkWords words, the last one exact. A list of up to ChunkWords words
// (some 3 500 postings) is the list header, the block table's one page
// and one slab.
func Compress(docIDs []uint32) (*List, error) {
	for i := 1; i < len(docIDs); i++ {
		if docIDs[i] <= docIDs[i-1] {
			return nil, fmt.Errorf("%w: ids[%d]=%d ids[%d]=%d",
				ErrNotAscending, i-1, docIDs[i-1], i, docIDs[i])
		}
	}
	nb := (len(docIDs) + BlockSize - 1) / BlockSize
	l := &List{N: len(docIDs), Blocks: pvec.Make[Block](PageShift, nb)}
	// A block's shape follows from its first and last docID alone, so
	// sizing the list reads two values per block.
	left := 0
	for k := range nb {
		left += l.Block(k).shape(blockOf(docIDs, k))
	}
	var slab []uint64
	for k := range nb {
		blk := l.Block(k)
		slab = Slab(slab, blk.words(), left)
		left -= blk.words()
		slab = blk.encode(blockOf(docIDs, k), slab)
	}
	return l, nil
}

// ChunkWords is the most words one slab of an encoded list holds: 4 KB,
// some 3 500 postings' worth. A list longer than that is cut from several
// slabs rather than one, because a list spliced from it
// (index.SpliceList) shares its leading blocks by reference and so keeps
// alive every slab one of them lies in, dead tail included: with slabs
// of bounded size a merged segment holds on to a few KB per list it
// shares, not to a copy of the list per merge.
const ChunkWords = 512

// Slab returns zeroed words to cut a block of need words from: slab
// itself if it has that many left, else a new slab of ChunkWords words —
// fewer when fewer than that, left, are still to be cut in all, more when
// the one block needs more.
func Slab(slab []uint64, need, left int) []uint64 {
	if need <= len(slab) {
		return slab
	}
	return make([]uint64, max(need, min(ChunkWords, left)))
}

// blockOf returns the docIDs of block k of a list.
func blockOf(docIDs []uint32, k int) []uint32 {
	return docIDs[k*BlockSize : min((k+1)*BlockSize, len(docIDs))]
}

// shape fills in the block's header for ids (1 to BlockSize ascending
// docIDs) and returns how many words its two arrays take.
func (b *Block) shape(ids []uint32) int {
	n := len(ids)
	u := uint64(ids[n-1] - ids[0]) // local universe (v_{n-1})
	b.FirstDocID, b.N = ids[0], n
	// b = floor(log2(U/n)) per the paper; 0 when U < n (dense runs).
	b.B = 0
	if u/uint64(n) >= 1 {
		b.B = bitutil.Log2Floor(u / uint64(n))
	}
	// Element i's one-bit sits at (v_i >> b) + i, so the last element
	// ends the array.
	b.HighLen = int(u>>uint(b.B)) + n
	return b.words()
}

// words returns how many words the block's two arrays take, from its header.
func (b *Block) words() int {
	return bitutil.WordsFor(b.HighLen) + bitutil.WordsFor(b.N*b.B)
}

// encode writes ids into the first words of slab, which must be zero and
// which become the block's HighBits and LowBits (shape has sized them),
// and returns the rest of slab. Each high bit is set where it belongs and
// the low parts are packed a word at a time; no bit is appended to
// anything.
func (b *Block) encode(ids []uint32, slab []uint64) (rest []uint64) {
	hw, lw := bitutil.WordsFor(b.HighLen), bitutil.WordsFor(b.N*b.B)
	b.HighBits, b.LowBits, rest = slab[:hw:hw], slab[hw:hw+lw:hw+lw], slab[hw+lw:]
	var vs [BlockSize]uint32
	for i, id := range ids {
		v := id - b.FirstDocID
		vs[i] = v
		h := uint(v>>uint(b.B)) + uint(i)
		b.HighBits[h/bitutil.WordBits] |= 1 << (h % bitutil.WordBits)
	}
	bitutil.Pack(b.LowBits, vs[:len(ids)], b.B) // no-op when B == 0
	return rest
}

// Encoder builds Lists from blocks handed over one at a time, for a
// caller that produces a list's docIDs in block-sized pieces and never
// holds them all (a shard split): Append every block, then Finish. The
// lists are the ones Compress returns, except that an Encoder cannot size
// a list's last slab before the list ends: every slab has ChunkWords
// words, and the unused part of one carries over to the Encoder's next
// list. The zero value is ready for use.
type Encoder struct {
	n      int
	last   uint32   // the last docID appended
	blocks []Block  // the current list's, copied out by Finish
	slab   []uint64 // the words of the current slab no block has been given
}

// Append encodes ids as the list's next block: BlockSize docIDs — fewer
// only in a list's last block — strictly ascending and above every docID
// appended before.
func (e *Encoder) Append(ids []uint32) error {
	if len(ids) == 0 || len(ids) > BlockSize || e.n%BlockSize != 0 {
		return fmt.Errorf("ef: block of %d docIDs appended after %d", len(ids), e.n)
	}
	prev, hasPrev := e.last, e.n > 0
	for i, id := range ids {
		if hasPrev && id <= prev {
			return fmt.Errorf("%w: ids[%d]=%d after %d", ErrNotAscending, e.n+i, id, prev)
		}
		prev, hasPrev = id, true
	}
	var blk Block
	e.slab = Slab(e.slab, blk.shape(ids), ChunkWords)
	e.slab = blk.encode(ids, e.slab)
	if len(e.blocks) == cap(e.blocks) {
		// Doubling: the table is reused from list to list, and settles at
		// its longest having allocated less than twice that.
		e.blocks = slices.Grow(e.blocks, max(16, len(e.blocks)))
	}
	e.blocks = append(e.blocks, blk)
	e.n, e.last = e.n+len(ids), prev
	return nil
}

// Finish returns the list of the blocks appended since the last Finish
// and readies the Encoder for the next list.
func (e *Encoder) Finish() *List {
	// One array cut into pages, like the table of an opened list: the
	// lists of a shard split start a lineage (see pvec on retention).
	l := &List{N: e.n, Blocks: pvec.Of(PageShift, slices.Clone(e.blocks))}
	e.n, e.blocks = 0, e.blocks[:0]
	return l
}

// DecompressInto decodes the block's docIDs into dst, which must have
// capacity for Block.N values, and returns the count. This is the serial
// CPU decode, a block at a time: the low parts are unpacked in one run,
// then the set bits of the high words are walked with a trailing-zeros
// count — element i's one-bit at position p gives its high part p - i.
func (b *Block) DecompressInto(dst []uint32) int {
	dst = dst[:b.N]
	bitutil.Unpack(dst, b.LowBits, b.B)
	first, shift := b.FirstDocID, uint(b.B)&63 // B <= 32; the mask spares the loop a range check
	i := 0
	for wi, w := range b.HighBits {
		for base := wi * bitutil.WordBits; w != 0 && i < len(dst); w &= w - 1 {
			high := uint64(base + bits.TrailingZeros64(w) - i)
			dst[i] = first + (uint32(high<<shift) | dst[i])
			i++
		}
	}
	return b.N
}

// Get returns the i-th docID of the block (0-based) using select on the
// high-bits array — the random-access path skip-pointer searches use.
func (b *Block) Get(i int) uint32 {
	// Select the (i+1)-th one-bit in HighBits.
	seen := 0
	for wi, w := range b.HighBits {
		pc := bitutil.Popcount(w)
		if seen+pc > i {
			pos := wi*bitutil.WordBits + bitutil.SelectInWord(w, i-seen)
			high := uint64(pos - i) // zeros before the element's one-bit
			var low uint64
			if b.B > 0 {
				low = bitutil.GetBits(b.LowBits, i*b.B, b.B)
			}
			return b.FirstDocID + uint32(high<<uint(b.B)|low)
		}
		seen += pc
	}
	panic("ef: Get index out of range")
}

// Decompress decodes the whole list into a fresh slice of docIDs.
func (l *List) Decompress() []uint32 {
	out := make([]uint32, l.N)
	off := 0
	for _, pg := range l.Blocks.Pages() {
		for i := range pg {
			off += pg[i].DecompressInto(out[off:])
		}
	}
	return out
}

// CompressedBits returns the total compressed size in bits: high-bits
// array, low-bits array, and the per-block header (first docID 32b,
// count 8b, width 6b).
func (l *List) CompressedBits() int64 {
	var bits int64
	for _, pg := range l.Blocks.Pages() {
		for i := range pg {
			b := &pg[i]
			bits += int64(b.HighLen) + int64(b.N*b.B) + blockHeaderBits
		}
	}
	return bits
}

const blockHeaderBits = 32 + 8 + 6

// Ratio returns the compression ratio relative to raw 32-bit docIDs.
func (l *List) Ratio() float64 {
	if l.N == 0 {
		return 0
	}
	return float64(int64(l.N)*32) / float64(l.CompressedBits())
}

// CompressedBytes returns the compressed size in bytes, rounded up; this is
// what the scheduler charges for PCIe transfer of a compressed list.
func (l *List) CompressedBytes() int64 {
	return (l.CompressedBits() + 7) / 8
}
