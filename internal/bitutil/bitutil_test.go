package bitutil

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// Fields packed at one width come back unpacked at it, across runs of
// fields of random widths and lengths.
func TestWriteReadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		width := rng.Intn(33)
		src := make([]uint32, rng.Intn(300))
		for j := range src {
			src[j] = rng.Uint32() & (1<<uint(width) - 1)
		}
		words := make([]uint64, WordsFor(len(src)*width))
		Pack(words, src, width)
		got := make([]uint32, len(src))
		Unpack(got, words, width)
		for j := range src {
			if got[j] != src[j] {
				t.Fatalf("width %d n=%d: field %d = %x, want %x", width, len(src), j, got[j], src[j])
			}
		}
	}
}

func TestSelectInWord(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 10000; i++ {
		w := rng.Uint64()
		if w == 0 {
			continue
		}
		pc := bits.OnesCount64(w)
		k := rng.Intn(pc)
		pos := SelectInWord(w, k)
		// The k+1-th set bit: verify by counting.
		if w&(1<<uint(pos)) == 0 {
			t.Fatalf("select(%x,%d)=%d is not set", w, k, pos)
		}
		below := bits.OnesCount64(w & ((1 << uint(pos)) - 1))
		if below != k {
			t.Fatalf("select(%x,%d)=%d has %d ones below", w, k, pos, below)
		}
	}
}

func TestSelectInWordProperty(t *testing.T) {
	f := func(w uint64, kRaw uint8) bool {
		if w == 0 {
			return true
		}
		k := int(kRaw) % bits.OnesCount64(w)
		pos := SelectInWord(w, k)
		return w&(1<<uint(pos)) != 0 &&
			bits.OnesCount64(w&((1<<uint(pos))-1)) == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBitsFor(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{{0, 1}, {1, 1}, {2, 2}, {3, 2}, {4, 3}, {255, 8}, {256, 9}, {1 << 63, 64}}
	for _, c := range cases {
		if got := BitsFor(c.v); got != c.want {
			t.Errorf("BitsFor(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestLog2Floor(t *testing.T) {
	cases := []struct {
		v    uint64
		want int
	}{{1, 0}, {2, 1}, {3, 1}, {4, 2}, {1023, 9}, {1024, 10}}
	for _, c := range cases {
		if got := Log2Floor(c.v); got != c.want {
			t.Errorf("Log2Floor(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestWordsFor(t *testing.T) {
	cases := []struct{ n, want int }{{0, 0}, {1, 1}, {64, 1}, {65, 2}, {128, 2}, {129, 3}}
	for _, c := range cases {
		if got := WordsFor(c.n); got != c.want {
			t.Errorf("WordsFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func BenchmarkSelectInWord(b *testing.B) {
	for i := 0; i < b.N; i++ {
		SelectInWord(0xdeadbeefcafebabe, i%bits.OnesCount64(0xdeadbeefcafebabe))
	}
}
