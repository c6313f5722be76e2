package index

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestPackFreqsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(75))
	for _, n := range []int{1, 127, 128, 129, 1000, 5000} {
		freqs := make([]uint32, n)
		for i := range freqs {
			freqs[i] = 1 + uint32(rng.Intn(8))
		}
		// Sprinkle outliers to force wide blocks.
		for i := 0; i < n; i += 97 {
			freqs[i] = uint32(1 << uint(rng.Intn(20)))
		}
		fs := PackFreqs(freqs)
		if fs.Len() != n {
			t.Fatalf("n=%d: Len = %d", n, fs.Len())
		}
		if !reflect.DeepEqual(fs.Decode(), freqs) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
		for _, i := range []int{0, n / 2, n - 1} {
			if fs.At(i) != freqs[i] {
				t.Fatalf("n=%d: At(%d) = %d, want %d", n, i, fs.At(i), freqs[i])
			}
		}
	}
}

func TestPackFreqsQuick(t *testing.T) {
	f := func(raw []uint32) bool {
		if len(raw) == 0 {
			return true
		}
		fs := PackFreqs(raw)
		return reflect.DeepEqual(fs.Decode(), raw)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPackFreqsCompresses(t *testing.T) {
	// Typical skewed frequencies (1-4) must pack far below 32 bits/entry.
	freqs := make([]uint32, 10_000)
	rng := rand.New(rand.NewSource(76))
	for i := range freqs {
		freqs[i] = 1 + uint32(rng.Intn(4))
	}
	fs := PackFreqs(freqs)
	bitsPer := float64(fs.CompressedBits()) / float64(len(freqs))
	if bitsPer > 4 {
		t.Fatalf("%.1f bits/freq for values <= 4, expected <= 4", bitsPer)
	}
	if !reflect.DeepEqual(fs.Decode(), freqs) {
		t.Fatal("round trip mismatch")
	}
}

func TestPackFreqsBlockIsolation(t *testing.T) {
	// One huge value in block 1 must not widen block 0.
	freqs := make([]uint32, 256)
	for i := range freqs {
		freqs[i] = 1
	}
	freqs[200] = 1 << 30
	fs := PackFreqs(freqs)
	if fs.pages[0].Rows[0].b != 1 {
		t.Fatalf("block 0 width %d, want 1", fs.pages[0].Rows[0].b)
	}
	if fs.pages[0].Rows[1].b < 31 {
		t.Fatalf("block 1 width %d, want >= 31", fs.pages[0].Rows[1].b)
	}
	if !reflect.DeepEqual(fs.Decode(), freqs) {
		t.Fatal("round trip mismatch")
	}
}

func TestPackFreqsZeroValues(t *testing.T) {
	freqs := []uint32{0, 0, 5, 0}
	fs := PackFreqs(freqs)
	if !reflect.DeepEqual(fs.Decode(), freqs) {
		t.Fatal("zeros mishandled")
	}
}
