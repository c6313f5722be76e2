// Package vbyte implements variable-byte (VByte) d-gap compression, the
// classic byte-aligned posting-list codec (Zobel & Moffat's survey, CSUR
// 2006, covers it as the baseline scheme). It is not part of Griffin's
// design — the paper compares PForDelta and Elias-Fano — but it is the
// codec most production systems historically shipped, so the Table 1
// experiment reports it as a reference point: VByte decodes fast but
// compresses worse than either bit-packed scheme on dense lists, whose
// gaps fit in far fewer than 7 bits.
//
// Encoding: each d-gap is emitted as a little-endian base-128 sequence;
// the high bit of every byte is a continuation flag (0 = last byte).
// Like the other codecs, lists are partitioned into 128-element blocks
// with an uncompressed first docID per block so skip pointers work.
package vbyte

import (
	"errors"
	"fmt"
)

// BlockSize matches the other codecs' 128-element blocks.
const BlockSize = 128

// ErrNotAscending is returned when input docIDs are not strictly ascending.
var ErrNotAscending = errors.New("vbyte: docIDs not strictly ascending")

// ErrCorrupt is returned when a decode runs off the end of a block.
var ErrCorrupt = errors.New("vbyte: corrupt block")

// Block is one VByte-compressed block of up to BlockSize docIDs.
type Block struct {
	// FirstDocID is the block's first value, stored uncompressed.
	FirstDocID uint32
	// N is the number of encoded values.
	N int
	// Data holds the byte stream of N-1 encoded gaps (the first value
	// lives in the header; within the block gaps are relative).
	Data []byte
}

// List is a VByte-compressed posting list.
type List struct {
	// N is the total number of docIDs.
	N int
	// Blocks are the compressed blocks in docID order.
	Blocks []Block
}

// Compress encodes a strictly ascending docID list.
func Compress(docIDs []uint32) (*List, error) {
	for i := 1; i < len(docIDs); i++ {
		if docIDs[i] <= docIDs[i-1] {
			return nil, fmt.Errorf("%w: ids[%d]=%d ids[%d]=%d",
				ErrNotAscending, i-1, docIDs[i-1], i, docIDs[i])
		}
	}
	l := &List{N: len(docIDs)}
	for start := 0; start < len(docIDs); start += BlockSize {
		end := start + BlockSize
		if end > len(docIDs) {
			end = len(docIDs)
		}
		chunk := docIDs[start:end]
		blk := Block{FirstDocID: chunk[0], N: len(chunk)}
		prev := chunk[0]
		for _, v := range chunk[1:] {
			blk.Data = appendUvarint(blk.Data, v-prev)
			prev = v
		}
		l.Blocks = append(l.Blocks, blk)
	}
	return l, nil
}

// appendUvarint emits v as base-128 little-endian with continuation bits.
func appendUvarint(dst []byte, v uint32) []byte {
	for v >= 0x80 {
		dst = append(dst, byte(v)|0x80)
		v >>= 7
	}
	return append(dst, byte(v))
}

// DecompressInto decodes the block into dst (capacity >= Block.N) and
// returns the count.
func (b *Block) DecompressInto(dst []uint32) (int, error) {
	dst[0] = b.FirstDocID
	cur := b.FirstDocID
	pos := 0
	for i := 1; i < b.N; i++ {
		var gap uint32
		shift := uint(0)
		for {
			if pos >= len(b.Data) {
				return 0, fmt.Errorf("%w: value %d", ErrCorrupt, i)
			}
			c := b.Data[pos]
			pos++
			gap |= uint32(c&0x7f) << shift
			if c < 0x80 {
				break
			}
			shift += 7
			if shift > 28 {
				return 0, fmt.Errorf("%w: overlong varint at value %d", ErrCorrupt, i)
			}
		}
		cur += gap
		dst[i] = cur
	}
	return b.N, nil
}

// Decompress decodes the whole list.
func (l *List) Decompress() ([]uint32, error) {
	out := make([]uint32, 0, l.N)
	var buf [BlockSize]uint32
	for i := range l.Blocks {
		n, err := l.Blocks[i].DecompressInto(buf[:])
		if err != nil {
			return nil, err
		}
		out = append(out, buf[:n]...)
	}
	return out, nil
}

// CompressedBits returns the total size in bits: payload bytes plus the
// per-block header (first docID 32b, count 8b).
func (l *List) CompressedBits() int64 {
	var bits int64
	for i := range l.Blocks {
		bits += int64(len(l.Blocks[i].Data))*8 + 40
	}
	return bits
}
