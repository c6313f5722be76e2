// Package bitutil provides low-level bit manipulation primitives shared by
// the compression codecs and GPU kernels: word-at-a-time packing of
// fixed-width fields, bit-granular readers and writers, unary coding,
// popcount/select lookup tables, and prefix sums.
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

// Writer appends bit fields to a growing []uint64 stream.
// The zero value is an empty writer ready for use.
type Writer struct {
	words []uint64
	n     int // number of bits written
}

// NewWriter returns a writer with capacity preallocated for sizeBits bits.
func NewWriter(sizeBits int) *Writer {
	return &Writer{words: make([]uint64, 0, WordsFor(sizeBits))}
}

// Len returns the number of bits written so far.
func (w *Writer) Len() int { return w.n }

// Words returns the underlying word stream. The final word is zero-padded.
func (w *Writer) Words() []uint64 { return w.words }

// WriteBits appends the low width bits of v. width must be in [0, 64].
func (w *Writer) WriteBits(v uint64, width int) {
	if width == 0 {
		return
	}
	if width < 64 {
		v &= (1 << uint(width)) - 1
	}
	off := w.n % WordBits
	if off == 0 {
		w.words = append(w.words, v)
	} else {
		w.words[len(w.words)-1] |= v << uint(off)
		if rem := WordBits - off; width > rem {
			w.words = append(w.words, v>>uint(rem))
		}
	}
	w.n += width
}

// WriteUnary appends v zeros followed by a terminating one bit, the unary
// code used by the Elias-Fano high-bits array.
func (w *Writer) WriteUnary(v int) {
	for v >= WordBits {
		w.WriteBits(0, WordBits)
		v -= WordBits
	}
	// v zeros then a 1: the value 1<<v in v+1 bits.
	w.WriteBits(1<<uint(v), v+1)
}

// Reader consumes bit fields from a []uint64 stream.
type Reader struct {
	words []uint64
	pos   int // bit cursor
}

// NewReader returns a reader over the given word stream.
func NewReader(words []uint64) *Reader {
	return &Reader{words: words}
}

// Pos returns the current bit cursor.
func (r *Reader) Pos() int { return r.pos }

// Seek moves the bit cursor to the absolute position p.
func (r *Reader) Seek(p int) { r.pos = p }

// ReadBits consumes and returns the next width bits. width must be in
// [0, 64] and the stream must contain that many remaining bits.
func (r *Reader) ReadBits(width int) uint64 {
	if width == 0 {
		return 0
	}
	wi, off := r.pos/WordBits, r.pos%WordBits
	v := r.words[wi] >> uint(off)
	if rem := WordBits - off; width > rem {
		v |= r.words[wi+1] << uint(rem)
	}
	r.pos += width
	if width < 64 {
		v &= (1 << uint(width)) - 1
	}
	return v
}

// ReadUnary consumes a unary code (run of zeros terminated by a one) and
// returns the run length.
func (r *Reader) ReadUnary() int {
	n := 0
	for {
		wi, off := r.pos/WordBits, r.pos%WordBits
		w := r.words[wi] >> uint(off)
		if w == 0 {
			n += WordBits - off
			r.pos += WordBits - off
			continue
		}
		tz := bits.TrailingZeros64(w)
		n += tz
		r.pos += tz + 1
		return n
	}
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
// width-bit fields from bit 0 of words — the stream a Writer produces from
// one WriteBits(v, width) per value — a word at a time: fields gather in a
// register and each word of words is stored once. words must hold
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

// PrefixSum computes the inclusive prefix sum of src into dst and returns
// the total. dst and src may alias. len(dst) must equal len(src).
func PrefixSum(dst, src []int32) int64 {
	var sum int64
	for i, v := range src {
		sum += int64(v)
		dst[i] = int32(sum)
	}
	return sum
}

// ExclusivePrefixSum computes the exclusive prefix sum of src into dst and
// returns the total. dst and src may alias.
func ExclusivePrefixSum(dst, src []int32) int64 {
	var sum int64
	for i, v := range src {
		dst[i] = int32(sum)
		sum += int64(v)
	}
	return sum
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
