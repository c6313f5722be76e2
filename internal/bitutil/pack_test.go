package bitutil

import (
	"math/rand"
	"reflect"
	"testing"
)

// writeBits and readBits are the bit-at-a-time writer and reader every
// packed layout is held to: bit i of the stream is bit i%64 of word i/64.
func writeBits(words []uint64, p int, v uint64, width int) {
	for j := 0; j < width; j++ {
		words[(p+j)/WordBits] |= v >> uint(j) & 1 << uint((p+j)%WordBits)
	}
}

func readBits(words []uint64, p, width int) uint64 {
	var v uint64
	for j := 0; j < width; j++ {
		v |= words[(p+j)/WordBits] >> uint((p+j)%WordBits) & 1 << uint(j)
	}
	return v
}

// Pack writes the stream the bit-at-a-time writer builds field by field,
// and Unpack reads what GetBits reads field by field, at every width and
// at lengths that end inside, on and just past a word boundary.
func TestPackUnpackMatchWriterAndGetBits(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for width := 0; width <= 32; width++ {
		for _, n := range []int{0, 1, 2, 3, 63, 64, 65, 127, 128, 129} {
			src := make([]uint32, n)
			for i := range src {
				src[i] = r.Uint32() // excess high bits must be masked off
			}
			want := make([]uint64, WordsFor(n*width))
			for i, v := range src {
				writeBits(want, i*width, uint64(v), width)
			}
			// Stale words: Pack must overwrite every word it owns.
			words := make([]uint64, len(want))
			for i := range words {
				words[i] = ^uint64(0)
			}
			Pack(words, src, width)
			if !reflect.DeepEqual(words, want) {
				t.Fatalf("width %d n=%d: Pack = %x, bit by bit %x", width, n, words, want)
			}
			got := make([]uint32, n)
			for i := range got {
				got[i] = ^uint32(0)
			}
			Unpack(got, words, width)
			for i := range got {
				if want := src[i] & (1<<uint(width) - 1); got[i] != want || uint32(GetBits(words, i*width, width)) != want {
					t.Fatalf("width %d n=%d: field %d: Unpack %x, GetBits %x, want %x", width, n, i, got[i], GetBits(words, i*width, width), want)
				}
			}
		}
	}
}

// GetBits reads any field of up to 64 bits at any position as the
// bit-at-a-time reader does.
func TestGetBitsMatchesReader(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	words := make([]uint64, 100)
	for i := range words {
		words[i] = rng.Uint64()
	}
	for i := 0; i < 1000; i++ {
		width := rng.Intn(64) + 1
		p := rng.Intn(100*WordBits - width)
		if got, want := GetBits(words, p, width), readBits(words, p, width); got != want {
			t.Fatalf("GetBits(%d,%d) = %x, want %x", p, width, got, want)
		}
	}
}
