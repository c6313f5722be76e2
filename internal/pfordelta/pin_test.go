package pfordelta

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
)

// pinnedList builds a seeded list whose every block PForDelta encodes at
// width b, with exc exceptions (gaps wider than b) per block. Each block
// holds n values: its first, whose gap is always 0; n/8+1-min(exc,1)
// gaps exactly b bits wide, which makes b the smallest width that covers
// nine tenths of them; exc gaps one bit wider; and gaps of 1 for the rest.
// Blocks of 128 fit in 32-bit docIDs up to b = 26, one block of 10 up to
// b = 31, and at b = 32 only the two-value block {0, 2^31+r} does.
func pinnedList(rng *rand.Rand, b, exc int) []uint32 {
	blocks := []int{BlockSize, BlockSize, BlockSize, 17}
	switch {
	case b == 32:
		blocks = []int{2}
	case b > 26:
		blocks = []int{10}
	}
	wide := func(w int) uint32 { // a random value exactly w bits wide, low in its range
		lo := uint32(1) << uint(w-1)
		return lo + uint32(rng.Int63n(int64(lo)/4+1))
	}
	var ids []uint32
	cur := uint32(rng.Intn(100))
	for bi, size := range blocks {
		e := min(exc, 1+size/BlockSize) // two exceptions only in full blocks
		gaps := make([]uint32, size-1)
		for i := range gaps {
			gaps[i] = 1
		}
		slots := rng.Perm(len(gaps))
		for _, s := range slots[:size/8+1-min(e, 1)] {
			gaps[s] = wide(b)
		}
		for k, s := range slots[len(slots)-e:] {
			if k == 1 { // the second exception's chain hop must fit in b bits
				s = slots[len(slots)-e] + 1 + rng.Intn(min(1<<uint(b), 8))
				if s >= len(gaps) {
					s = slots[len(slots)-e] - 1
				}
			}
			gaps[s] = wide(b + 1)
		}
		if bi > 0 {
			cur += 1 + uint32(rng.Intn(16))
		}
		ids = append(ids, cur)
		for _, g := range gaps {
			cur += g
			ids = append(ids, cur)
		}
	}
	return ids
}

// TestPackedWordsPinned holds the packed words of seeded lists at every
// width b from 1 to 32, with no, one and two exceptions a block, to the
// checksums the bit-at-a-time writer produced for them (at 32 bits no gap
// is an exception). Table 1's PForDelta sizes are these words.
func TestPackedWordsPinned(t *testing.T) {
	got := map[string]uint64{}
	rng := rand.New(rand.NewSource(27))
	for b := 1; b <= 32; b++ {
		for exc := 0; exc <= 2 && (b < 32 || exc == 0); exc++ {
			ids := pinnedList(rng, b, exc)
			l, err := Compress(ids)
			if err != nil {
				t.Fatalf("b=%d exc=%d: %v", b, exc, err)
			}
			h := fnv.New64a()
			for k := range l.Blocks {
				blk := &l.Blocks[k]
				if want := min(exc, 1+blk.N/BlockSize); blk.B != b || len(blk.Exceptions) != want {
					t.Fatalf("b=%d exc=%d: block %d encodes at b=%d with %d exceptions, want b=%d with %d: the case does not test what it is named for",
						b, exc, k, blk.B, len(blk.Exceptions), b, want)
				}
				fmt.Fprint(h, blk.FirstDocID, blk.N, blk.B, blk.FirstException, blk.Packed, blk.Exceptions)
			}
			got[fmt.Sprintf("b=%d exc=%d", b, exc)] = h.Sum64()
		}
	}
	if !reflect.DeepEqual(got, pinnedWords) {
		for k, v := range got {
			if pinnedWords[k] != v {
				t.Errorf("%s: packed words hash to %#x, pinned %#x", k, v, pinnedWords[k])
			}
		}
		t.Fatalf("%d cases hashed, %d pinned", len(got), len(pinnedWords))
	}
}

// pinnedWords are the checksums of TestPackedWordsPinned's lists as the
// bit-at-a-time writer (bitutil.Writer, one WriteBits per slot) packed them.
var pinnedWords = map[string]uint64{
	"b=1 exc=0": 0x55295b51697b84cc, "b=1 exc=1": 0xd45d319a46711378, "b=1 exc=2": 0xe3376c1b93268234,
	"b=2 exc=0": 0x23274decb7030a61, "b=2 exc=1": 0xd4d602f4735f4643, "b=2 exc=2": 0x86045c65a9566ffb,
	"b=3 exc=0": 0x21fdbb62bda9c19e, "b=3 exc=1": 0xdad2ff4d7cde122c, "b=3 exc=2": 0xe06fb1c5c2c18368,
	"b=4 exc=0": 0xc6a6fb6464ebf976, "b=4 exc=1": 0xd966eff19bce5c1a, "b=4 exc=2": 0x4ba3581d8095b86c,
	"b=5 exc=0": 0x93a1c98c0bd7d194, "b=5 exc=1": 0x84f9f0f5e3bf654e, "b=5 exc=2": 0x295565859bdf149b,
	"b=6 exc=0": 0x8abd4b9c1ad922c2, "b=6 exc=1": 0x18db70c64e38cbb9, "b=6 exc=2": 0x14e47629021fc47e,
	"b=7 exc=0": 0xe6b88acb48baf2f2, "b=7 exc=1": 0x79f6cf5b8df7e943, "b=7 exc=2": 0x1d39330549cc69cb,
	"b=8 exc=0": 0x6c741f2d398f1528, "b=8 exc=1": 0x58c3ec84b39b46d5, "b=8 exc=2": 0x244cb5a18745a969,
	"b=9 exc=0": 0x1bfcfd0eb6980b3e, "b=9 exc=1": 0x16c62e75ea5b7d40, "b=9 exc=2": 0xecf8fbdf36fc91cb,
	"b=10 exc=0": 0x9d4aaaaa3d1526c9, "b=10 exc=1": 0xb48b7271ffa6ce26, "b=10 exc=2": 0x3368403758702e52,
	"b=11 exc=0": 0x90f6036d408da45e, "b=11 exc=1": 0xb2a82ddac18e39a3, "b=11 exc=2": 0xcf1db98c8b50e22e,
	"b=12 exc=0": 0xa0d91c4436ab8c0f, "b=12 exc=1": 0x7fea69839b5a6e01, "b=12 exc=2": 0xe31842bf4a9ef06b,
	"b=13 exc=0": 0xedba8d314205b9e, "b=13 exc=1": 0x909a481d751eea11, "b=13 exc=2": 0xb8e1fb94db7095e2,
	"b=14 exc=0": 0x4ef6cb150026e795, "b=14 exc=1": 0x106984d24d60ab26, "b=14 exc=2": 0xcc315249b9591aac,
	"b=15 exc=0": 0xa43f885d7b076c8b, "b=15 exc=1": 0x5e1a4425929afffd, "b=15 exc=2": 0xe7d7375a27d44f28,
	"b=16 exc=0": 0x3907fd5643e24d7c, "b=16 exc=1": 0x37bbf04716f44076, "b=16 exc=2": 0xb0463849ea7febef,
	"b=17 exc=0": 0xb4a0c3a9ceace423, "b=17 exc=1": 0xd7d01224158648db, "b=17 exc=2": 0x215e279c5a15277a,
	"b=18 exc=0": 0x59cd46d0f6ed8870, "b=18 exc=1": 0xc007dc75c17dea65, "b=18 exc=2": 0x633b8740c6e42876,
	"b=19 exc=0": 0x12f379ea61dc52f2, "b=19 exc=1": 0x882a63d240f1027f, "b=19 exc=2": 0xa33b7d60d8317d75,
	"b=20 exc=0": 0x7172c175c8fbb9b5, "b=20 exc=1": 0x532288a91d9a0758, "b=20 exc=2": 0xed924bff66a0e2de,
	"b=21 exc=0": 0xd7bad817eb737b6, "b=21 exc=1": 0x8a5d9d6f9b0c6086, "b=21 exc=2": 0x1cc34ef6b0090dff,
	"b=22 exc=0": 0x4be4ff665f37ab41, "b=22 exc=1": 0xd402b0e7eea1a3a0, "b=22 exc=2": 0xa89476660eca72da,
	"b=23 exc=0": 0x43ecd9447b147cd7, "b=23 exc=1": 0xe2e540fbfd0ad40c, "b=23 exc=2": 0xbc596af9c8a46e60,
	"b=24 exc=0": 0x6e22315f2d691bba, "b=24 exc=1": 0xc81f2bc1bdf60cad, "b=24 exc=2": 0x252cd151ad1db20d,
	"b=25 exc=0": 0x109668edbf524515, "b=25 exc=1": 0x51829f5cc850872b, "b=25 exc=2": 0x64074ab1f28267d4,
	"b=26 exc=0": 0x122e3fd8e859c6bd, "b=26 exc=1": 0x317018dc13454229, "b=26 exc=2": 0x2ef6f075f688da8c,
	"b=27 exc=0": 0x6494da26ff8b7ae1, "b=27 exc=1": 0x80e48c35af5da9b6, "b=27 exc=2": 0x2dd8902b87c0b89,
	"b=28 exc=0": 0x271d2878dd197979, "b=28 exc=1": 0xe69f214be1cd9037, "b=28 exc=2": 0x60f7df8107965c42,
	"b=29 exc=0": 0xde0be7c2bc142716, "b=29 exc=1": 0x2211aeaaabed87a9, "b=29 exc=2": 0x77c73250e9f744b7,
	"b=30 exc=0": 0x20ee51bc20640dff, "b=30 exc=1": 0x47a41cd36c57ed3, "b=30 exc=2": 0xcb962fe81542603c,
	"b=31 exc=0": 0x7cfb4af862781dc7, "b=31 exc=1": 0xb28ab614f38cf4f, "b=31 exc=2": 0xe862f5367116bcd,
	"b=32 exc=0": 0x2bf8dd7e74020389,
}
