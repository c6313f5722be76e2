package pfordelta

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// genAscending builds a strictly ascending docID list with the given gap
// profile: mostly small gaps with a fraction of large outliers, the shape
// PForDelta's exception machinery exists for.
func genAscending(rng *rand.Rand, n int, smallMax, bigMax uint32, bigFrac float64) []uint32 {
	ids := make([]uint32, n)
	cur := uint32(rng.Intn(100))
	for i := 0; i < n; i++ {
		var gap uint32
		if rng.Float64() < bigFrac {
			gap = 1 + uint32(rng.Intn(int(bigMax)))
		} else {
			gap = 1 + uint32(rng.Intn(int(smallMax)))
		}
		cur += gap
		ids[i] = cur
	}
	return ids
}

func TestRoundTripSmall(t *testing.T) {
	cases := [][]uint32{
		{0},
		{5},
		{0, 1, 2, 3},
		{100, 121, 163, 172, 185, 214, 282, 300, 347}, // the paper's Figure 3 example
		{1, 1 << 30},
	}
	for i, ids := range cases {
		l, err := Compress(ids)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		got := l.Decompress()
		if !reflect.DeepEqual(got, ids) {
			t.Fatalf("case %d: got %v want %v", i, got, ids)
		}
	}
}

func TestRoundTripLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 127, 128, 129, 1000, 4096, 100000} {
		ids := genAscending(rng, n, 30, 1<<20, 0.08)
		l, err := Compress(ids)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		got := l.Decompress()
		if !reflect.DeepEqual(got, ids) {
			t.Fatalf("n=%d: round trip mismatch", n)
		}
	}
}

func TestRoundTripNoExceptions(t *testing.T) {
	// Uniform small gaps: chooseB should cover everything, zero exceptions.
	ids := make([]uint32, 1024)
	for i := range ids {
		ids[i] = uint32(i * 3)
	}
	l, err := Compress(ids)
	if err != nil {
		t.Fatal(err)
	}
	if l.NumExceptions() != 0 {
		t.Fatalf("expected 0 exceptions, got %d", l.NumExceptions())
	}
	if !reflect.DeepEqual(l.Decompress(), ids) {
		t.Fatal("round trip mismatch")
	}
}

func TestRoundTripManyExceptions(t *testing.T) {
	// Alternating tiny/huge gaps: ~50% exceptions stress the chain.
	rng := rand.New(rand.NewSource(8))
	ids := make([]uint32, 2000)
	cur := uint32(0)
	for i := range ids {
		if i%2 == 0 {
			cur += 1
		} else {
			cur += 1 << uint(10+rng.Intn(10))
		}
		ids[i] = cur
	}
	l, err := Compress(ids)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l.Decompress(), ids) {
		t.Fatal("round trip mismatch")
	}
}

func TestLongExceptionHopsWidenB(t *testing.T) {
	// Two exceptions separated by > 2^b positions at the natural b force
	// packBlock to widen b. Construct: gaps of 1 everywhere except slots 0
	// and 120 which are huge; natural b = 1, hop distance 119 needs 7 bits.
	ids := make([]uint32, 128)
	cur := uint32(0)
	for i := range ids {
		gap := uint32(1)
		if i == 1 || i == 121 {
			gap = 1 << 25
		}
		cur += gap
		ids[i] = cur
	}
	l, err := Compress(ids)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l.Decompress(), ids) {
		t.Fatal("round trip mismatch")
	}
	if b := l.Block(0).B; b < 7 {
		t.Fatalf("expected widened b >= 7, got %d", b)
	}
}

func TestNotAscending(t *testing.T) {
	for _, ids := range [][]uint32{{3, 3}, {5, 4}, {1, 2, 2}} {
		if _, err := Compress(ids); !errors.Is(err, ErrNotAscending) {
			t.Fatalf("Compress(%v): err = %v, want ErrNotAscending", ids, err)
		}
	}
}

func TestEmptyList(t *testing.T) {
	l, err := Compress(nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.N != 0 || l.Blocks.Len() != 0 {
		t.Fatalf("empty list: N=%d blocks=%d", l.N, l.Blocks.Len())
	}
	if got := l.Decompress(); len(got) != 0 {
		t.Fatalf("decompress empty: %v", got)
	}
}

func TestBlockIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ids := genAscending(rng, 1000, 50, 1<<18, 0.05)
	l, err := Compress(ids)
	if err != nil {
		t.Fatal(err)
	}
	// Decompress blocks out of order; results must stitch together.
	out := make([]uint32, len(ids))
	buf := make([]uint32, BlockSize)
	for i := l.Blocks.Len() - 1; i >= 0; i-- {
		n := l.Block(i).DecompressInto(buf)
		copy(out[i*BlockSize:], buf[:n])
	}
	if !reflect.DeepEqual(out, ids) {
		t.Fatal("out-of-order block decompression mismatch")
	}
}

func TestFirstDocIDAndLast(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ids := genAscending(rng, 600, 40, 1<<16, 0.1)
	l, _ := Compress(ids)
	for i := range l.Blocks.Len() {
		start := i * BlockSize
		if l.Block(i).FirstDocID != ids[start] {
			t.Fatalf("block %d FirstDocID = %d, want %d", i, l.Block(i).FirstDocID, ids[start])
		}
		end := start + l.Block(i).N - 1
		if got := l.Block(i).LastDocID(); got != ids[end] {
			t.Fatalf("block %d LastDocID = %d, want %d", i, got, ids[end])
		}
	}
}

func TestCompressionRatioSanity(t *testing.T) {
	// Dense lists (small gaps) must compress well below 32 bits/entry.
	rng := rand.New(rand.NewSource(11))
	ids := genAscending(rng, 50000, 12, 1<<14, 0.02)
	l, _ := Compress(ids)
	if r := l.Ratio(); r < 2 {
		t.Fatalf("ratio = %.2f, expected > 2 for dense list", r)
	}
	bits := float64(l.CompressedBits()) / float64(l.N)
	if bits > 16 {
		t.Fatalf("bits/entry = %.1f, expected < 16", bits)
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(gaps []uint16, seed int64) bool {
		if len(gaps) == 0 {
			return true
		}
		ids := make([]uint32, len(gaps))
		cur := uint32(0)
		for i, g := range gaps {
			cur += uint32(g) + 1
			ids[i] = cur
		}
		l, err := Compress(ids)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(l.Decompress(), ids)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecompressPreservesSortedness(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ids := genAscending(rng, 10000, 100, 1<<22, 0.1)
	l, _ := Compress(ids)
	out := l.Decompress()
	if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i] < out[j] }) {
		t.Fatal("decompressed list not sorted")
	}
}

func BenchmarkCompress(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	ids := genAscending(rng, 1<<17, 30, 1<<20, 0.08)
	b.SetBytes(int64(len(ids) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(ids); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompress(b *testing.B) {
	rng := rand.New(rand.NewSource(14))
	ids := genAscending(rng, 1<<17, 30, 1<<20, 0.08)
	l, _ := Compress(ids)
	b.SetBytes(int64(len(ids) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Decompress()
	}
}
