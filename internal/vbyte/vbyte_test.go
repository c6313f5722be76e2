package vbyte

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func genAscending(rng *rand.Rand, n int, maxGap uint32) []uint32 {
	ids := make([]uint32, n)
	cur := uint32(rng.Intn(100))
	for i := 0; i < n; i++ {
		cur += 1 + uint32(rng.Intn(int(maxGap)))
		ids[i] = cur
	}
	return ids
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 127, 128, 129, 1000, 50000} {
		for _, maxGap := range []uint32{1, 100, 100000} {
			ids := genAscending(rng, n, maxGap)
			l, err := Compress(ids)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			got, err := l.Decompress()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, ids) {
				t.Fatalf("n=%d gap=%d: round trip mismatch", n, maxGap)
			}
		}
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
		got, err := l.Decompress()
		return err == nil && reflect.DeepEqual(got, ids)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNotAscending(t *testing.T) {
	if _, err := Compress([]uint32{5, 5}); !errors.Is(err, ErrNotAscending) {
		t.Fatalf("err = %v", err)
	}
	if _, err := Compress([]uint32{9, 3}); !errors.Is(err, ErrNotAscending) {
		t.Fatalf("err = %v", err)
	}
}

func TestEmpty(t *testing.T) {
	l, err := Compress(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := l.Decompress()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestCorruptBlockDetected(t *testing.T) {
	ids := genAscending(rand.New(rand.NewSource(2)), 100, 50)
	l, _ := Compress(ids)
	// Truncate the payload: decode must fail, not panic or fabricate.
	l.Blocks[0].Data = l.Blocks[0].Data[:len(l.Blocks[0].Data)/2]
	if _, err := l.Decompress(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestOverlongVarintDetected(t *testing.T) {
	l := &List{N: 2, Blocks: []Block{{
		FirstDocID: 0, N: 2,
		Data: []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	}}}
	if _, err := l.Decompress(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestDenseGapsOneBytePerEntry(t *testing.T) {
	// Gaps < 128 take exactly one byte each.
	ids := make([]uint32, 1000)
	for i := range ids {
		ids[i] = uint32(i * 100)
	}
	l, _ := Compress(ids)
	bitsPer := float64(l.CompressedBits()) / float64(l.N)
	if bitsPer < 8 || bitsPer > 9 {
		t.Fatalf("bits/entry = %.2f, want ~8.3 (1 byte + headers)", bitsPer)
	}
	if r := 32 / bitsPer; r < 3.5 || r > 4.1 {
		t.Fatalf("ratio = %.2f, want ~3.9", r)
	}
}

func TestVByteWorseThanBitPackedOnVeryDenseLists(t *testing.T) {
	// Gaps of ~2 need ~2 bits bit-packed but a full byte in VByte: the
	// byte-alignment penalty Table 1's reference column shows.
	ids := make([]uint32, 10000)
	cur := uint32(0)
	rng := rand.New(rand.NewSource(3))
	for i := range ids {
		cur += 1 + uint32(rng.Intn(3))
		ids[i] = cur
	}
	l, _ := Compress(ids)
	if r := 32 * float64(l.N) / float64(l.CompressedBits()); r > 4.1 {
		t.Fatalf("VByte ratio %.2f too good for dense list (byte floor)", r)
	}
}

func BenchmarkDecompress(b *testing.B) {
	ids := genAscending(rand.New(rand.NewSource(4)), 1<<17, 30)
	l, _ := Compress(ids)
	b.SetBytes(int64(len(ids)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Decompress(); err != nil {
			b.Fatal(err)
		}
	}
}
