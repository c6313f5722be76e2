package ef

import (
	"reflect"
	"testing"
)

// FuzzRoundTrip feeds arbitrary gap bytes through compress/decompress and
// checks the identity, plus random-access agreement, and holds the
// encoding and both decoders to the reference codec (reference_test.go). Run with
// `go test -fuzz=FuzzRoundTrip ./internal/ef/` for continuous fuzzing;
// the seed corpus runs as a normal test.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0})
	f.Add([]byte{255, 255, 255, 255, 0, 0, 1})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Fuzz(func(t *testing.T, gapBytes []byte) {
		if len(gapBytes) == 0 || len(gapBytes) > 4096 {
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
	})
}
