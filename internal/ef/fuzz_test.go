package ef

import (
	"reflect"
	"slices"
	"testing"
)

// FuzzRoundTrip feeds arbitrary gap bytes through compress/decompress and
// checks the identity, plus random-access agreement, and holds the
// encoding and both decoders to the reference codec (reference_test.go).
// The first byte also draws a run of blocks, whose view must read as the
// postings of those blocks and share the list's pages. Run with
// `go test -fuzz=FuzzRoundTrip ./internal/ef/` for continuous fuzzing;
// the seed corpus runs as a normal test.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0})
	f.Add([]byte{255, 255, 255, 255, 0, 0, 1})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Add(append([]byte{2}, make([]byte, 300)...))           // three blocks
	f.Add(append([]byte{70}, make([]byte, 70*BlockSize)...)) // two pages
	f.Fuzz(func(t *testing.T, gapBytes []byte) {
		if len(gapBytes) == 0 || len(gapBytes) > 10_000 {
			return
		}
		ids := make([]uint32, len(gapBytes))
		cur := uint32(0)
		for i, g := range gapBytes {
			cur += uint32(g) + 1
			ids[i] = cur
		}
		l, err := Compress(ids)
		if err != nil {
			t.Fatalf("compress: %v", err)
		}
		got := l.Decompress()
		if !reflect.DeepEqual(got, ids) {
			t.Fatalf("round trip mismatch: %v vs %v", got, ids)
		}
		for i := 0; i < len(ids); i += 1 + len(ids)/13 {
			if v := l.Get(i/BlockSize, i%BlockSize); v != ids[i] {
				t.Fatalf("Get(%d) = %d, want %d", i, v, ids[i])
			}
		}
		// The same bytes as the bit-at-a-time reference encoder, and the
		// same docIDs from both decoders and from Get at every position.
		checkAgainstReference(t, ids)
		// The gaps again, 2^20 times as wide: low-bit fields of 20 bits
		// and more, docIDs up to the top of the 32-bit space.
		wide := make([]uint32, 0, len(ids))
		for _, id := range ids {
			if uint64(id)<<20 >= 1<<32 {
				break
			}
			wide = append(wide, id<<20|id&0xfffff)
		}
		checkAgainstReference(t, wide)

		// A view of blocks [k, end), and a view of that view.
		nb := l.NumBlocks()
		k := int(gapBytes[0]) % nb
		end := k + 1 + int(gapBytes[len(gapBytes)-1])%(nb-k)
		v := l.View(k, end)
		want := ids[k*BlockSize : min(end*BlockSize, len(ids))]
		if !slices.Equal(v.Decompress(), want) || v.NumBlocks() != end-k {
			t.Fatalf("view [%d, %d) of %d blocks does not read as its postings", k, end, nb)
		}
		if r, _ := v.Row(0); r != &l.Pages[k>>PageShift].Rows[k&(1<<PageShift-1)] {
			t.Fatalf("view [%d, %d) does not share the list's rows", k, end)
		}
		for b := range v.NumBlocks() {
			if v.First(b) != want[b*BlockSize] || v.Get(b, 0) != want[b*BlockSize] {
				t.Fatalf("view [%d, %d): block %d's skip pointer is off", k, end, b)
			}
		}
		if vv := v.View(end-k-1, end-k); !slices.Equal(vv.Decompress(), ids[(end-1)*BlockSize:min(end*BlockSize, len(ids))]) {
			t.Fatalf("the last block of view [%d, %d), viewed again, does not read as its postings", k, end)
		}
		if v.CompressedBytes() > l.CompressedBytes() || (k == 0 && end == nb && v.CompressedBytes() != l.CompressedBytes()) {
			t.Fatalf("view [%d, %d) prices %d bytes of the list's %d", k, end, v.CompressedBytes(), l.CompressedBytes())
		}
	})
}
