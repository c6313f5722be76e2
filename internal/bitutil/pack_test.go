package bitutil

import (
	"fmt"
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

// FuzzPackUnpack holds Pack and Unpack to the bit-at-a-time writer and
// reader at every width from 0 to 32 and every length up to 300, across
// 64-field group boundaries, with values carrying bits above the width
// and destination words and fields holding stale bits.
func FuzzPackUnpack(f *testing.F) {
	for _, width := range []uint8{0, 1, 3, 7, 16, 31, 32} {
		for _, n := range []uint16{0, 1, 63, 64, 65, 128, 191, 300} {
			f.Add(width, n, int64(width)*1000+int64(n), ^uint64(0))
		}
	}
	f.Fuzz(func(t *testing.T, width uint8, n uint16, seed int64, stale uint64) {
		w, r := int(width%33), rand.New(rand.NewSource(seed))
		src := make([]uint32, int(n%301))
		for i := range src {
			src[i] = r.Uint32()
		}
		want := make([]uint64, WordsFor(len(src)*w))
		for i, v := range src {
			writeBits(want, i*w, uint64(v), w)
		}
		words := make([]uint64, len(want))
		for i := range words {
			words[i] = stale
		}
		Pack(words, src, w)
		if !reflect.DeepEqual(words, want) {
			t.Fatalf("width %d n=%d: Pack = %x, bit by bit %x", w, len(src), words, want)
		}
		got := make([]uint32, len(src))
		for i := range got {
			got[i] = uint32(stale)
		}
		Unpack(got, words, w)
		for i := range got {
			if want := uint32(readBits(words, i*w, w)); got[i] != want || uint32(GetBits(words, i*w, w)) != want ||
				want != src[i]&uint32(1<<uint(w)-1) {
				t.Fatalf("width %d n=%d: field %d: Unpack %x, GetBits %x, bit by bit %x", w, len(src), i, got[i], GetBits(words, i*w, w), want)
			}
		}
	})
}

// Pack and Unpack allocate nothing: the generated routines take the
// caller's slices as they are, so arrays on the caller's stack stay there.
// A dispatch through a table of functions would move them to the heap, an
// allocation every call.
func TestPackUnpackAllocateNothing(t *testing.T) {
	for _, w := range []int{0, 1, 5, 17, 32} {
		if a := testing.AllocsPerRun(100, func() {
			var src, dst [2 * 64]uint32
			var words [2 * 32]uint64
			for i := range src {
				src[i] = uint32(i) * 2654435761
			}
			Pack(words[:], src[:], w)
			Unpack(dst[:], words[:], w)
		}); a != 0 {
			t.Errorf("width %d: Pack and Unpack allocated %.0f times, want 0", w, a)
		}
	}
}

// benchWidths are the widths BenchmarkPack and BenchmarkUnpack report:
// the narrow ones of frequencies and dense lists, the middle ones of
// Elias–Fano low bits and doc lengths, and 32.
var benchWidths = []int{1, 2, 3, 5, 7, 9, 12, 16, 24, 32}

// benchFields returns 4 096 fields of up to width bits and the words
// they pack into.
func benchFields(width int) ([]uint32, []uint64) {
	r := rand.New(rand.NewSource(int64(width)))
	src := make([]uint32, 4096)
	for i := range src {
		src[i] = r.Uint32() & uint32(1<<uint(width)-1)
	}
	words := make([]uint64, WordsFor(len(src)*width))
	Pack(words, src, width)
	return src, words
}

func BenchmarkPack(b *testing.B) {
	for _, w := range benchWidths {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			src, words := benchFields(w)
			for i := 0; i < b.N; i++ {
				Pack(words, src, w)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/value")
		})
	}
}

func BenchmarkUnpack(b *testing.B) {
	for _, w := range benchWidths {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			src, words := benchFields(w)
			for i := 0; i < b.N; i++ {
				Unpack(src, words, w)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(src)), "ns/value")
		})
	}
}
