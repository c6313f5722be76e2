package ef

import (
	"errors"
	"reflect"
	"slices"
	"testing"
)

// FuzzRoundTrip feeds arbitrary gap bytes through compress/decompress and
// checks the identity, plus random-access agreement, and holds the
// encoding and both decoders to the reference codec (reference_test.go).
// The first byte also draws a stride from 1 to 8: the gaps again, that
// many times as wide from an offset below it (a shard's docIDs), must
// encode at that stride to the reference's bytes and decode back, and a
// docID moved off the stride must be refused. Run with
// `go test -fuzz=FuzzRoundTrip ./internal/ef/` for continuous fuzzing;
// the seed corpus runs as a normal test.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{0})
	f.Add([]byte{255, 255, 255, 255, 0, 0, 1})
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7, 7})
	f.Add(append([]byte{2}, make([]byte, 300)...)) // stride 3, three blocks
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
		checkAgainstReference(t, ids, 1)
		// The gaps again, 2^20 times as wide: low-bit fields of 20 bits
		// and more, docIDs up to the top of the 32-bit space.
		wide := make([]uint32, 0, len(ids))
		for _, id := range ids {
			if uint64(id)<<20 >= 1<<32 {
				break
			}
			wide = append(wide, id<<20|id&0xfffff)
		}
		checkAgainstReference(t, wide, 1)

		stride := 1 + uint32(gapBytes[0]%8)
		strided := make([]uint32, len(ids))
		for i, id := range ids {
			strided[i] = uint32(gapBytes[0]/8)%stride + stride*id
		}
		checkAgainstReference(t, strided, stride)
		if sl, _ := compressAt(strided, stride); sl.NumBlocks() > 1 {
			// The stride argument is read at k == 0 only: a splice keeps
			// its list's.
			again, err := sl.Splice(1, 0, strided[BlockSize:])
			if err != nil || !sameList(again, sl) {
				t.Fatalf("stride %d: a splice at block 1 is not the list (%v)", stride, err)
			}
		}
		if stride > 1 && len(strided) > 1 {
			// A docID that does not start a block, moved to 1 past the
			// one before it: still ascending, since the next one is at
			// least stride past that, and off the stride.
			i := 1 + int(gapBytes[len(gapBytes)-1])%(len(strided)-1)
			if i%BlockSize == 0 {
				i++
			}
			if i < len(strided) {
				off := slices.Clone(strided)
				off[i] = off[i-1] + 1
				if _, err := compressAt(off, stride); !errors.Is(err, ErrOffStride) {
					t.Fatalf("stride %d, docID %d moved off it: %v, want ErrOffStride", stride, i, err)
				}
			}
		}
	})
}

// compressAt is Compress at stride.
func compressAt(ids []uint32, stride uint32) (*List, error) {
	return (*List)(nil).Splice(0, stride, ids)
}
