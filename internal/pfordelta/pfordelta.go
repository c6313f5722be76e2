// Package pfordelta implements the PForDelta inverted-list compression
// scheme (Zukowski et al., ICDE 2006), the CPU-side baseline codec in
// Griffin.
//
// Lists of ascending docIDs are first turned into d-gaps, then packed into
// fixed-size blocks of BlockSize gaps. Within a block a bit width b is
// chosen so that roughly 90% of gaps (the "regular values") fit in b bits;
// the remainder ("exceptions") keep their slot in the packed array but the
// slot instead stores the forward distance to the next exception, forming a
// linked list, while the exception values themselves are stored
// uncompressed after the packed array. This layout is exactly the one the
// paper's Figure 3 shows, and its sequential exception chain is the reason
// the paper deems PForDelta a poor fit for GPU decompression.
package pfordelta

import (
	"errors"
	"fmt"

	"griffin/internal/bitutil"
	"griffin/internal/pvec"
)

// BlockSize is the number of d-gaps per compressed block. Both codecs in
// Griffin use 128-element blocks; the paper's crossover analysis (§3.2)
// ties the GPU/CPU switch threshold to this value.
const BlockSize = 128

// regularFraction is the target fraction of in-block values encoded at the
// regular bit width; the paper quotes "a majority of elements (e.g., 90%)".
const regularFraction = 0.9

// Block is one compressed block of up to BlockSize d-gaps.
type Block struct {
	// FirstDocID is the first docID of the block, stored uncompressed so
	// skip pointers can binary-search blocks without decompressing them.
	FirstDocID uint32
	// N is the number of values encoded in the block.
	N int
	// B is the regular-value bit width.
	B int
	// FirstException is the index of the first exception slot, or N if the
	// block has no exceptions.
	FirstException int
	// Packed holds N fields of B bits each: regular d-gaps, or for
	// exception slots the distance-1 to the next exception.
	Packed []uint64
	// Exceptions holds the uncompressed exception d-gaps in slot order.
	Exceptions []uint32
}

// PageShift sizes the pages a list's block table is held in, as
// ef.PageShift does for the Elias-Fano form: 64 blocks.
const PageShift = 6

// List is a PForDelta-compressed posting list.
type List struct {
	// N is the total number of docIDs.
	N int
	// Blocks are the compressed blocks in docID order, in pages of
	// 1<<PageShift.
	Blocks pvec.Vec[Block]
}

// Block returns block i of the list.
func (l *List) Block(i int) *Block {
	return &l.Blocks.Pages()[i>>PageShift][i&(1<<PageShift-1)]
}

// ErrNotAscending is returned when input docIDs are not strictly ascending.
var ErrNotAscending = errors.New("pfordelta: docIDs not strictly ascending")

// Compress encodes a strictly ascending docID list.
func Compress(docIDs []uint32) (*List, error) {
	for i := 1; i < len(docIDs); i++ {
		if docIDs[i] <= docIDs[i-1] {
			return nil, fmt.Errorf("%w: ids[%d]=%d ids[%d]=%d",
				ErrNotAscending, i-1, docIDs[i-1], i, docIDs[i])
		}
	}
	nb := (len(docIDs) + BlockSize - 1) / BlockSize
	l := &List{N: len(docIDs), Blocks: pvec.Make[Block](PageShift, nb)}
	for k := range nb {
		*l.Block(k) = compressBlock(docIDs[k*BlockSize : min((k+1)*BlockSize, len(docIDs))])
	}
	return l, nil
}

// compressBlock encodes one block. Each block is independently
// decompressible: gaps are taken relative to the block's own first docID
// (which is stored uncompressed in the header), with gaps[0] = 0.
func compressBlock(ids []uint32) Block {
	gaps := make([]uint32, len(ids))
	gaps[0] = 0
	p := ids[0]
	for i := 1; i < len(ids); i++ {
		gaps[i] = ids[i] - p
		p = ids[i]
	}
	return packBlock(ids[0], gaps)
}

// chooseB picks the regular bit width: the smallest b such that at least
// regularFraction of gaps fit in b bits, and such that b can also encode
// the in-block exception-chain distances (at most BlockSize-1, needing 7
// bits at most; smaller b is still legal because chain distances are capped
// by re-linking: a distance that overflows b bits forces the intermediate
// slot to become an exception too — we sidestep that classical complication
// by enforcing b >= bits needed for the max chain distance actually used).
func chooseB(gaps []uint32) int {
	maxBits := 1
	var widths [33]int
	for _, g := range gaps {
		w := bitutil.BitsFor(uint64(g))
		widths[w]++
		if w > maxBits {
			maxBits = w
		}
	}
	need := int(float64(len(gaps))*regularFraction + 0.999999)
	cum := 0
	for b := 1; b <= maxBits; b++ {
		cum += widths[b]
		if cum >= need {
			return b
		}
	}
	return maxBits
}

// packBlock bit-packs the gap array with exception chaining.
func packBlock(firstDocID uint32, gaps []uint32) Block {
	b := chooseB(gaps)
	n := len(gaps)

	for {
		limit := uint32(1)<<uint(b) - 1
		// Identify exceptions (gaps that need more than b bits).
		var excIdx []int
		for i, g := range gaps {
			if g > limit {
				excIdx = append(excIdx, i)
			}
		}
		// Chain distances must fit in b bits: distance to next exception
		// minus 1 must be <= limit. If any hop is too long, widen b and
		// retry (simple, always terminates: at 32 bits nothing is an
		// exception).
		ok := true
		for k := 0; k+1 < len(excIdx); k++ {
			if uint32(excIdx[k+1]-excIdx[k]-1) > limit {
				ok = false
				break
			}
		}
		if !ok {
			b++
			continue
		}

		w := bitutil.NewWriter(n * b)
		blk := Block{
			FirstDocID:     firstDocID,
			N:              n,
			B:              b,
			FirstException: n,
		}
		if len(excIdx) > 0 {
			blk.FirstException = excIdx[0]
		}
		next := 0 // index into excIdx
		for i, g := range gaps {
			if next < len(excIdx) && i == excIdx[next] {
				// Exception slot stores distance-1 to the next exception
				// (or 0 if it is the last one; the decoder stops via count).
				d := uint32(0)
				if next+1 < len(excIdx) {
					d = uint32(excIdx[next+1] - i - 1)
				}
				w.WriteBits(uint64(d), b)
				blk.Exceptions = append(blk.Exceptions, g)
				next++
			} else {
				w.WriteBits(uint64(g), b)
			}
		}
		blk.Packed = w.Words()
		return blk
	}
}

// Decompress decodes the whole list into a fresh slice of docIDs.
func (l *List) Decompress() []uint32 {
	out := make([]uint32, 0, l.N)
	buf := make([]uint32, BlockSize)
	for _, pg := range l.Blocks.Pages() {
		for i := range pg {
			n := pg[i].DecompressInto(buf)
			out = append(out, buf[:n]...)
		}
	}
	return out
}

// DecompressInto decodes the block's docIDs into dst, which must have
// capacity for Block.N values, and returns the count. This is the
// sequential CPU path whose cost model anchors Figure 12: unpack b-bit
// slots, walk the exception chain patching values, then prefix-sum the
// gaps.
func (b *Block) DecompressInto(dst []uint32) int {
	r := bitutil.NewReader(b.Packed)
	// Phase 1: unpack raw slots.
	for i := 0; i < b.N; i++ {
		dst[i] = uint32(r.ReadBits(b.B))
	}
	// Phase 2: walk the exception linked list, replacing chain pointers
	// with real gap values. This walk is inherently sequential — the
	// property the paper calls out as hostile to GPUs.
	idx := b.FirstException
	for k := 0; k < len(b.Exceptions); k++ {
		d := int(dst[idx])
		dst[idx] = b.Exceptions[k]
		idx += d + 1
	}
	// Phase 3: prefix sum gaps into docIDs.
	acc := b.FirstDocID
	dst[0] = acc
	for i := 1; i < b.N; i++ {
		acc += dst[i]
		dst[i] = acc
	}
	return b.N
}

// LastDocID returns the final docID of the block, by decompression.
// Intended for verification, not hot paths (skip pointers store bounds).
func (b *Block) LastDocID() uint32 {
	buf := make([]uint32, b.N)
	b.DecompressInto(buf)
	return buf[b.N-1]
}

// CompressedBits returns the total size of the compressed representation
// in bits: packed slots, uncompressed 32-bit exceptions, and the per-block
// header (first docID 32b, count 8b, width 6b, first-exception 8b). Used
// for Table 1's compression-ratio comparison.
func (l *List) CompressedBits() int64 {
	var bits int64
	for _, pg := range l.Blocks.Pages() {
		for i := range pg {
			b := &pg[i]
			bits += int64(b.N*b.B) + int64(len(b.Exceptions))*32 + blockHeaderBits
		}
	}
	return bits
}

const blockHeaderBits = 32 + 8 + 6 + 8

// Ratio returns the compression ratio relative to raw 32-bit docIDs.
func (l *List) Ratio() float64 {
	if l.N == 0 {
		return 0
	}
	return float64(int64(l.N)*32) / float64(l.CompressedBits())
}

// NumExceptions returns the total exception count across blocks.
func (l *List) NumExceptions() int {
	n := 0
	for _, pg := range l.Blocks.Pages() {
		for i := range pg {
			n += len(pg[i].Exceptions)
		}
	}
	return n
}
