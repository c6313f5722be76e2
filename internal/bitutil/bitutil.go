// Package bitutil provides low-level bit manipulation primitives shared by
// the compression codecs and GPU kernels: word-at-a-time packing of
// fixed-width fields, random access to one field, and popcount/select
// lookup tables.
//
// All multi-word layouts are little-endian within a []uint64 word stream:
// bit i of the stream is bit (i % 64) of word (i / 64).
package bitutil

import "math/bits"

// WordBits is the number of bits in a bit-stream word.
const WordBits = 64

// WordsFor returns the number of 64-bit words needed to hold n bits.
func WordsFor(n int) int {
	return (n + WordBits - 1) / WordBits
}

// GetBits reads width bits at absolute bit position p without moving any
// cursor. It is safe for concurrent readers, which the GPU kernels rely on.
func GetBits(words []uint64, p, width int) uint64 {
	if width == 0 {
		return 0
	}
	wi, off := p/WordBits, p%WordBits
	v := words[wi] >> uint(off)
	if rem := WordBits - off; width > rem {
		v |= words[wi+1] << uint(rem)
	}
	if width < 64 {
		v &= (1 << uint(width)) - 1
	}
	return v
}

// Pack stores the low width bits of every src value as contiguous
// width-bit fields from bit 0 of words, a word at a time: fields gather in
// a register and each word of words is stored once. words must hold
// len(src)*width bits; every word the fields touch is overwritten, none
// is read. width must be in [0, 32].
func Pack(words []uint64, src []uint32, width int) {
	if width == 0 {
		return
	}
	w, mask := uint(width), uint64(1)<<uint(width)-1
	var acc uint64
	fill, wi := uint(0), 0
	for _, s := range src {
		v := uint64(s) & mask
		acc |= v << fill
		if fill += w; fill >= WordBits {
			words[wi] = acc
			wi++
			fill -= WordBits
			acc = v >> (w - fill) // the bits of v the stored word had no room for
		}
	}
	if fill > 0 {
		words[wi] = acc
	}
}

// Unpack reads len(dst) contiguous width-bit fields from bit 0 of words
// into dst: GetBits(words, i*width, width) for every i, a word at a time
// — the fields that lie inside one word are shifted out of a register,
// and only the field that straddles two words reads both. width must be
// in [0, 32].
func Unpack(dst []uint32, words []uint64, width int) {
	if width == 0 {
		clear(dst)
		return
	}
	w, mask := uint(width), uint64(1)<<uint(width)-1
	i, off := 0, uint(0) // off: bit position in words[wi] of field i
	for wi := 0; i < len(dst); wi++ {
		word := words[wi] >> off
		for ; off+w <= WordBits && i < len(dst); off += w {
			dst[i] = uint32(word & mask)
			word >>= w
			i++
		}
		if off < WordBits && i < len(dst) {
			dst[i] = uint32((word | words[wi+1]<<(WordBits-off)) & mask)
			i++
			off += w
		}
		off -= WordBits
	}
}

// Popcount returns the number of set bits in w.
func Popcount(w uint64) int { return bits.OnesCount64(w) }

// SelectInWord returns the bit index (0-based, from LSB) of the (k+1)-th set
// bit of w. k must be less than Popcount(w). It mirrors the lookup-table
// select used in the paper's CUDA implementation (via __popc and shared
// memory tables), using a branch-free byte-table walk.
func SelectInWord(w uint64, k int) int {
	base := 0
	for {
		b := w & 0xff
		c := int(byteCount[b])
		if k < c {
			return base + int(byteSelect[b][k])
		}
		k -= c
		w >>= 8
		base += 8
	}
}

// byteCount[b] is the popcount of byte b; byteSelect[b][k] is the position
// of the (k+1)-th set bit of byte b. Built at init; resident table mirrors
// the shared-memory lookup table of the CUDA kernel.
var (
	byteCount  [256]uint8
	byteSelect [256][8]uint8
)

func init() {
	for b := 0; b < 256; b++ {
		k := 0
		for i := 0; i < 8; i++ {
			if b&(1<<uint(i)) != 0 {
				byteSelect[b][k] = uint8(i)
				k++
			}
		}
		byteCount[b] = uint8(k)
	}
}

// BitsFor returns the minimum number of bits needed to represent v
// (at least 1 for v == 0 so that fixed-width fields are never empty).
func BitsFor(v uint64) int {
	if v == 0 {
		return 1
	}
	return bits.Len64(v)
}

// Log2Floor returns floor(log2(v)) for v >= 1.
func Log2Floor(v uint64) int {
	return bits.Len64(v) - 1
}
