// Package pfordelta implements the PForDelta inverted-list compression
// scheme (Zukowski et al., ICDE 2006), the CPU-side baseline that Table 1
// and Figure 12 compare Elias-Fano against. It is not an index form: the
// index holds Elias-Fano only, and those experiments compress their lists
// here directly.
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

// List is a PForDelta-compressed posting list.
type List struct {
	// N is the total number of docIDs.
	N int
	// Blocks are the compressed blocks in docID order.
	Blocks []Block
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
	l := &List{N: len(docIDs), Blocks: make([]Block, nb)}
	for k := range nb {
		l.Blocks[k] = compressBlock(docIDs[k*BlockSize : min((k+1)*BlockSize, len(docIDs))])
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

// packBlock bit-packs the gap array with exception chaining, overwriting
// the exception slots of gaps with their chain links.
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

		blk := Block{
			FirstDocID:     firstDocID,
			N:              n,
			B:              b,
			FirstException: n,
			Packed:         make([]uint64, bitutil.WordsFor(n*b)),
		}
		if len(excIdx) > 0 {
			blk.FirstException = excIdx[0]
		}
		// Each exception slot stores distance-1 to the next exception (0
		// for the last one; the decoder stops by count).
		for k, i := range excIdx {
			blk.Exceptions = append(blk.Exceptions, gaps[i])
			gaps[i] = 0
			if k+1 < len(excIdx) {
				gaps[i] = uint32(excIdx[k+1] - i - 1)
			}
		}
		bitutil.Pack(blk.Packed, gaps, b)
		return blk
	}
}

// Decompress decodes the whole list into a fresh slice of docIDs.
func (l *List) Decompress() []uint32 {
	out := make([]uint32, 0, l.N)
	buf := make([]uint32, BlockSize)
	for i := range l.Blocks {
		n := l.Blocks[i].DecompressInto(buf)
		out = append(out, buf[:n]...)
	}
	return out
}

// DecompressInto decodes the block's docIDs into dst, which must have
// capacity for Block.N values, and returns the count. This is the
// sequential CPU path whose cost model anchors Figure 12: unpack b-bit
// slots, walk the exception chain patching values, then prefix-sum the
// gaps.
func (b *Block) DecompressInto(dst []uint32) int {
	// Phase 1: unpack raw slots.
	bitutil.Unpack(dst[:b.N], b.Packed, b.B)
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

// CompressedBits returns the total size of the compressed representation
// in bits: packed slots, uncompressed 32-bit exceptions, and the per-block
// header (first docID 32b, count 8b, width 6b, first-exception 8b). Used
// for Table 1's compression-ratio comparison.
func (l *List) CompressedBits() int64 {
	var bits int64
	for i := range l.Blocks {
		b := &l.Blocks[i]
		bits += int64(b.N*b.B) + int64(len(b.Exceptions))*32 + blockHeaderBits
	}
	return bits
}

const blockHeaderBits = 32 + 8 + 6 + 8
