package bitutil

import (
	"math/rand"
	"reflect"
	"testing"
)

// Pack writes the stream a Writer builds field by field, and Unpack reads
// what GetBits reads field by field, at every width and at lengths that
// end inside, on and just past a word boundary.
func TestPackUnpackMatchWriterAndGetBits(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for width := 0; width <= 32; width++ {
		for _, n := range []int{0, 1, 2, 3, 63, 64, 65, 127, 128, 129} {
			src := make([]uint32, n)
			for i := range src {
				src[i] = r.Uint32() // excess high bits must be masked off
			}
			w := NewWriter(n * width)
			for _, v := range src {
				w.WriteBits(uint64(v), width)
			}
			// Stale words: Pack must overwrite every word it owns.
			words := make([]uint64, WordsFor(n*width))
			for i := range words {
				words[i] = ^uint64(0)
			}
			Pack(words, src, width)
			if want := w.Words(); len(words) > 0 && !reflect.DeepEqual(words, want) {
				t.Fatalf("width %d n=%d: Pack = %x, Writer = %x", width, n, words, want)
			}
			got := make([]uint32, n)
			for i := range got {
				got[i] = ^uint32(0)
			}
			Unpack(got, words, width)
			for i := range got {
				if want := uint32(GetBits(words, i*width, width)); got[i] != want {
					t.Fatalf("width %d n=%d: Unpack[%d] = %x, GetBits = %x", width, n, i, got[i], want)
				}
			}
		}
	}
}
