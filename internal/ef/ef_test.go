package ef

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func genAscending(rng *rand.Rand, n int, maxGap uint32) []uint32 {
	ids := make([]uint32, n)
	cur := uint32(rng.Intn(1000))
	for i := 0; i < n; i++ {
		cur += 1 + uint32(rng.Intn(int(maxGap)))
		ids[i] = cur
	}
	return ids
}

func TestPaperExample(t *testing.T) {
	// Figure 4 of the paper: sequence (5,6,8,15,18,33).
	ids := []uint32{5, 6, 8, 15, 18, 33}
	l, err := Compress(ids)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Decompress(); !reflect.DeepEqual(got, ids) {
		t.Fatalf("got %v want %v", got, ids)
	}
}

func TestRoundTripSmall(t *testing.T) {
	cases := [][]uint32{
		{0},
		{7},
		{0, 1, 2, 3, 4, 5},
		{1, 1000000},
		{10, 20, 30, 1 << 30},
	}
	for i, ids := range cases {
		l, err := Compress(ids)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got := l.Decompress(); !reflect.DeepEqual(got, ids) {
			t.Fatalf("case %d: got %v want %v", i, got, ids)
		}
	}
}

func TestRoundTripSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for _, n := range []int{1, 2, 127, 128, 129, 255, 256, 1000, 65536} {
		for _, maxGap := range []uint32{1, 2, 16, 1000, 1 << 20} {
			if uint64(n)*uint64(maxGap) > 1<<31 {
				continue // would overflow the uint32 docID space
			}
			ids := genAscending(rng, n, maxGap)
			l, err := Compress(ids)
			if err != nil {
				t.Fatalf("n=%d gap=%d: %v", n, maxGap, err)
			}
			if got := l.Decompress(); !reflect.DeepEqual(got, ids) {
				t.Fatalf("n=%d gap=%d: round trip mismatch", n, maxGap)
			}
		}
	}
}

func TestDenseRunZeroLowBits(t *testing.T) {
	// Consecutive integers: U == n-1 < n, so b == 0 and everything lives
	// in the unary high-bits array.
	ids := make([]uint32, 200)
	for i := range ids {
		ids[i] = uint32(i + 42)
	}
	l, err := Compress(ids)
	if err != nil {
		t.Fatal(err)
	}
	if b := l.Block(0).B; b != 0 {
		t.Fatalf("dense block B = %d, want 0", b)
	}
	if got := l.Decompress(); !reflect.DeepEqual(got, ids) {
		t.Fatal("round trip mismatch")
	}
}

func TestGetRandomAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	ids := genAscending(rng, 1000, 5000)
	l, _ := Compress(ids)
	for trial := 0; trial < 2000; trial++ {
		i := rng.Intn(len(ids))
		if got := l.Get(i/BlockSize, i%BlockSize); got != ids[i] {
			t.Fatalf("Get(%d) = %d, want %d", i, got, ids[i])
		}
	}
}

func TestGetSequentialAllElements(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	ids := genAscending(rng, 300, 1<<16)
	l, _ := Compress(ids)
	for i, want := range ids {
		if got := l.Get(i/BlockSize, i%BlockSize); got != want {
			t.Fatalf("Get(%d) = %d, want %d", i, got, want)
		}
	}
}

func TestNotAscending(t *testing.T) {
	for _, ids := range [][]uint32{{3, 3}, {5, 4}, {1, 2, 2, 9}} {
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
	if l.N != 0 || l.NumBlocks() != 0 {
		t.Fatalf("empty: N=%d blocks=%d", l.N, l.NumBlocks())
	}
	if got := l.Decompress(); len(got) != 0 {
		t.Fatalf("decompress empty: %v", got)
	}
}

func TestBlockIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ids := genAscending(rng, 1000, 300)
	l, _ := Compress(ids)
	out := make([]uint32, len(ids))
	buf := make([]uint32, BlockSize)
	for i := l.NumBlocks() - 1; i >= 0; i-- {
		n := l.DecompressBlock(i, buf)
		copy(out[i*BlockSize:], buf[:n])
	}
	if !reflect.DeepEqual(out, ids) {
		t.Fatal("out-of-order block decompression mismatch")
	}
}

func TestHighBitsOnesCount(t *testing.T) {
	// Invariant: the high-bits array contains exactly N one-bits.
	rng := rand.New(rand.NewSource(24))
	ids := genAscending(rng, 777, 9999)
	l, _ := Compress(ids)
	for bi := range l.NumBlocks() {
		b := l.Block(bi)
		ones := 0
		for _, w := range b.HighBits {
			for k := 0; k < 64; k++ {
				if w&(1<<uint(k)) != 0 {
					ones++
				}
			}
		}
		if ones != b.N {
			t.Fatalf("block %d: %d one-bits, want %d", bi, ones, b.N)
		}
	}
}

func TestCompressionBeatsPforDeltaOnClusteredData(t *testing.T) {
	// The paper's Table 1: EF ratio 4.6 vs PForDelta 3.3 on the real
	// corpus. Property checked here: EF space is within 2n + n*b bits +
	// headers (quasi-succinct bound).
	rng := rand.New(rand.NewSource(25))
	ids := genAscending(rng, 100000, 40)
	l, _ := Compress(ids)
	bound := int64(2*l.N) + int64(l.N)*int64(l.Block(0).B+1) + int64(l.NumBlocks())*64
	if got := l.CompressedBits(); got > bound {
		t.Fatalf("compressed bits %d exceed quasi-succinct bound %d", got, bound)
	}
	if r := l.Ratio(); r < 3 {
		t.Fatalf("ratio %.2f unexpectedly low for dense list", r)
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(gaps []uint16) bool {
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
		if !reflect.DeepEqual(l.Decompress(), ids) {
			return false
		}
		// Random access agrees with sequential decode.
		for i := 0; i < len(ids); i += 1 + len(ids)/7 {
			if l.Get(i/BlockSize, i%BlockSize) != ids[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCompressedBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	ids := genAscending(rng, 500, 100)
	l, _ := Compress(ids)
	if got, bits := l.CompressedBytes(), l.CompressedBits(); got != (bits+7)/8 {
		t.Fatalf("CompressedBytes = %d, bits = %d", got, bits)
	}
}

func BenchmarkCompress(b *testing.B) {
	rng := rand.New(rand.NewSource(27))
	ids := genAscending(rng, 1<<17, 40)
	b.SetBytes(int64(len(ids) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Compress(ids); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompress(b *testing.B) {
	rng := rand.New(rand.NewSource(28))
	ids := genAscending(rng, 1<<17, 40)
	l, _ := Compress(ids)
	b.SetBytes(int64(len(ids) * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Decompress()
	}
}

func BenchmarkGet(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	ids := genAscending(rng, 1<<16, 40)
	l, _ := Compress(ids)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(ids)
		l.Get(j/BlockSize, j%BlockSize)
	}
}
