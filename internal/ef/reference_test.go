package ef

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"griffin/internal/bitutil"
)

// A bit-at-a-time codec, written from the definition: posting i sets bit
// high_i+i of the high array and its b low bits at i*b of the low array,
// one bit at a time, and decodes by scanning for set bits. It stays here
// as the reference the block codec is held to — same bytes out, same
// docIDs back.

// putBits sets the width-bit field at bit p of words to v, one bit at a
// time; the field's bits must be clear.
func putBits(words []uint64, p, width int, v uint64) {
	for j := 0; j < width; j++ {
		words[(p+j)/bitutil.WordBits] |= v >> uint(j) & 1 << uint((p+j)%bitutil.WordBits)
	}
}

func refCompressBlock(ids []uint32) Block {
	n := len(ids)
	first := ids[0]
	u := uint64(ids[n-1] - first)
	b := 0
	if u/uint64(n) >= 1 {
		b = bitutil.Log2Floor(u / uint64(n))
	}
	highLen := int(u>>uint(b)) + n
	low, high := make([]uint64, bitutil.WordsFor(n*b)), make([]uint64, bitutil.WordsFor(highLen))
	for i, id := range ids {
		v := uint64(id - first)
		putBits(low, i*b, b, v)
		putBits(high, int(v>>uint(b))+i, 1, 1)
	}
	return Block{FirstDocID: first, N: n, B: b, HighBits: high, HighLen: highLen, LowBits: low}
}

// refCompress encodes ids a block at a time and lays the blocks out as a
// list holds them: 64 rows a page, each page's words its blocks' high
// then low words, back to back, each row's offset relative to its page.
func refCompress(ids []uint32) *List {
	l := &List{N: len(ids)}
	for start := 0; start < len(ids); start += BlockSize {
		b := refCompressBlock(ids[start:min(start+BlockSize, len(ids))])
		if start%(BlockSize<<PageShift) == 0 {
			l.Pages = append(l.Pages, Page[Row]{})
		}
		pg := &l.Pages[len(l.Pages)-1]
		pg.Rows = append(pg.Rows, Row{
			FirstDocID: b.FirstDocID, Off: uint16(len(pg.Words)), HighLen: uint16(b.HighLen),
			N: uint8(b.N), B: uint8(b.B), HighWords: uint8(len(b.HighBits)), LowWords: uint8(len(b.LowBits)),
		})
		pg.Words = append(append(pg.Words, b.HighBits...), b.LowBits...)
	}
	return l
}

func refDecompressInto(b Block, dst []uint32) int {
	pos := 0 // bit cursor in the high array
	lowPos := 0
	for i := 0; i < b.N; i++ {
		for bitutil.GetBits(b.HighBits, pos, 1) == 0 {
			pos++
		}
		high := uint64(pos - i)
		pos++
		var low uint64
		if b.B > 0 {
			low = bitutil.GetBits(b.LowBits, lowPos, b.B)
			lowPos += b.B
		}
		dst[i] = b.FirstDocID + uint32(high<<uint(b.B)|low)
	}
	return b.N
}

// checkAgainstReference holds Compress(ids) to the reference encoding,
// field by field (reflect.DeepEqual tells a nil slice from an empty one),
// and both decoders and Get to ids.
func checkAgainstReference(t testing.TB, ids []uint32) {
	t.Helper()
	l, err := Compress(ids)
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	want := refCompress(ids)
	if !reflect.DeepEqual(l, want) {
		t.Fatalf("N=%d blocks=%d: the list differs from the reference's rows and pages", l.N, l.NumBlocks())
	}
	var got, ref [BlockSize]uint32
	for k := range l.NumBlocks() {
		blk, wb := l.Block(k), refCompressBlock(ids[k*BlockSize:min((k+1)*BlockSize, len(ids))])
		if !reflect.DeepEqual(blk, wb) {
			t.Fatalf("block %d:\n got %+v\nwant %+v", k, blk, wb)
		}
		if cap(blk.HighBits) != len(blk.HighBits) || cap(blk.LowBits) != len(blk.LowBits) {
			t.Fatalf("block %d: an append to its words would reach the neighbour's", k)
		}
		n := l.DecompressBlock(k, got[:])
		refDecompressInto(blk, ref[:])
		src := ids[k*BlockSize:][:n]
		if !reflect.DeepEqual(got[:n], src) || !reflect.DeepEqual(ref[:n], src) {
			t.Fatalf("block %d: DecompressInto %v\nreference %v\nwant %v", k, got[:n], ref[:n], src)
		}
		for i, id := range src {
			if g := l.Get(k, i); g != id {
				t.Fatalf("block %d: Get(%d) = %d, want %d", k, i, g, id)
			}
		}
	}
}

// ascending returns n docIDs from first with gaps drawn by gap.
func ascending(n int, first uint32, gap func(i int) uint32) []uint32 {
	ids := make([]uint32, n)
	cur := first
	for i := range ids {
		if i > 0 {
			cur += gap(i)
		}
		ids[i] = cur
	}
	return ids
}

func TestCompressMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	uniform := func(maxGap int) func(int) uint32 {
		return func(int) uint32 { return 1 + uint32(rng.Intn(maxGap)) }
	}
	type testCase struct {
		name string
		ids  []uint32
		b    int // the first block's B, -1 = whatever it is
	}
	cases := []testCase{
		{"single", []uint32{7}, 0},
		{"single max", []uint32{1<<32 - 1}, 0},
		{"two far apart", []uint32{0, 1<<32 - 1}, 30},
		// 100 docIDs spread over the whole 32-bit space, the last 2^32-1.
		{"b=25 up to 2^32-1", ascending(100, 1<<32-1-99*43_000_000, func(int) uint32 { return 43_000_000 }), 25},
		{"b=24 full block", ascending(BlockSize, 3, func(int) uint32 { return 1<<24 + uint32(rng.Intn(1<<24)) }), 24},
		// Everything in the unary array: one set bit per position.
		{"dense run", ascending(3*BlockSize+5, 42, func(int) uint32 { return 1 }), 0},
		// A run with one hole: a zero inside the high bits.
		{"dense with hole", ascending(BlockSize, 0, func(i int) uint32 {
			if i == 70 {
				return 50
			}
			return 1
		}), 0},
		// One gap in a dense block that jumps over whole 64-bit words of
		// zeros in the high bits.
		{"gap straddles words", ascending(BlockSize, 9, func(i int) uint32 {
			if i == 64 {
				return 250
			}
			return 1
		}), 1},
		{"ends at 2^32-1", ascending(129, 1<<32-1-128*1000, func(int) uint32 { return 1000 }), -1},
	}
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 129, 255, 256, 257, 1000} {
		for _, maxGap := range []int{1, 2, 3, 40, 1000, 1 << 16, 1 << 20} {
			cases = append(cases, testCase{
				fmt.Sprintf("n=%d gap<=%d", n, maxGap),
				ascending(n, uint32(rng.Intn(1000)), uniform(maxGap)), -1,
			})
		}
	}
	// Low-bit fields of every width against every word boundary.
	for b := 1; b <= 24; b++ {
		ids := ascending(BlockSize, uint32(b), func(int) uint32 { return 1<<uint(b) + uint32(rng.Intn(1<<uint(b))) })
		cases = append(cases, testCase{fmt.Sprintf("width %d", b), ids, b})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkAgainstReference(t, c.ids)
			if got := refCompressBlock(c.ids[:min(BlockSize, len(c.ids))]).B; c.b >= 0 && got != c.b {
				t.Fatalf("the case encodes at b = %d, not the b = %d it is named for", got, c.b)
			}
		})
	}
}

// The shapes the bit-at-a-time encoder gave an empty list and an empty
// low-bits array, which index.Parse reproduces for an opened file and
// reflect.DeepEqual(Open(f), built) depends on: no blocks at all is a nil
// page table, no low bits is an empty slice.
func TestEncoderKeepsNilAndEmptyShapes(t *testing.T) {
	l, err := Compress(nil)
	if err != nil {
		t.Fatal(err)
	}
	if l.Pages != nil {
		t.Errorf("Compress(nil).Pages = %#v, want none", l.Pages)
	}
	if l, _ = Compress([]uint32{}); l.Pages != nil {
		t.Errorf("Compress(empty).Pages = %#v, want none", l.Pages)
	}
	var e Encoder
	if l = e.Finish(); l.Pages != nil || l.N != 0 {
		t.Errorf("Encoder.Finish() of nothing = %+v, want an empty list with no pages", l)
	}
	if !reflect.DeepEqual(l, refCompress(nil)) {
		t.Errorf("Encoder.Finish() of nothing = %+v, reference %+v", l, refCompress(nil))
	}

	dense := ascending(BlockSize, 10, func(int) uint32 { return 1 })
	l, _ = Compress(dense)
	blk, ref := l.Block(0), refCompressBlock(dense)
	if blk.B != 0 || blk.LowBits == nil || len(blk.LowBits) != 0 {
		t.Errorf("b == 0 block: B=%d LowBits=%#v, want B=0 and an empty, non-nil LowBits", blk.B, blk.LowBits)
	}
	if ref.LowBits == nil || len(ref.LowBits) != 0 {
		t.Fatalf("the reference's b == 0 LowBits is %#v: the test's premise is gone", ref.LowBits)
	}
}

// An Encoder fed a list block by block returns the list Compress builds
// from the whole of it, list after list, short lists sharing a chunk and
// long ones running over several.
func TestEncoderMatchesCompress(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var e Encoder
	for _, n := range []int{1000, 1, 127, 128, 129, 5000, 256, 3, 200_000, 77} {
		ids := genAscending(rng, n, 1+uint32(rng.Intn(5000)))
		for start := 0; start < n; start += BlockSize {
			if err := e.Append(ids[start:min(start+BlockSize, n)]); err != nil {
				t.Fatalf("n=%d: Append at %d: %v", n, start, err)
			}
		}
		got, want := e.Finish(), refCompress(ids)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("n=%d: the Encoder's list differs from the reference encoding", n)
		}
		for k := range got.NumBlocks() {
			if blk := got.Block(k); cap(blk.HighBits) != len(blk.HighBits) || cap(blk.LowBits) != len(blk.LowBits) {
				t.Fatalf("n=%d block %d: an append to its words would reach the neighbour's", n, k)
			}
		}
	}
}

func TestEncoderRejectsBadBlocks(t *testing.T) {
	full := ascending(BlockSize, 100, func(int) uint32 { return 2 })
	var e Encoder
	if err := e.Append(nil); err == nil {
		t.Error("empty block accepted")
	}
	if err := e.Append(make([]uint32, BlockSize+1)); err == nil {
		t.Error("oversized block accepted")
	}
	if err := e.Append([]uint32{5, 5}); !errors.Is(err, ErrNotAscending) {
		t.Errorf("repeated docID: err = %v, want ErrNotAscending", err)
	}
	if err := e.Append(full); err != nil {
		t.Fatal(err)
	}
	if err := e.Append([]uint32{full[BlockSize-1]}); !errors.Is(err, ErrNotAscending) {
		t.Errorf("docID not above the previous block's last: err = %v, want ErrNotAscending", err)
	}
	if err := e.Append([]uint32{1 << 30}); err != nil {
		t.Fatal(err)
	}
	if err := e.Append([]uint32{1<<30 + 1}); err == nil {
		t.Error("block accepted after a short block")
	}
	// The rejected blocks left nothing behind.
	if got, want := e.Finish(), refCompress(append(full, 1<<30)); !reflect.DeepEqual(got, want) {
		t.Error("list after rejected blocks differs from the encoding of the accepted ones")
	}
}

// Compress allocates the list header, its page array, and per page of 64
// blocks its rows and its words — each page's words sized before they are
// written, so they are one exact allocation — and nothing per block. The
// bit-at-a-time encoder allocated two writers and two word slices per
// block on top of a grown block table: 9 400 allocations for the longest
// list here, which now makes 76.
func TestCompressAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range []int{100, 3_000, 10_000, 300_000} {
		ids := genAscending(rng, n, 60)
		l, _ := Compress(ids)
		ceiling := float64(3 + 2*len(l.Pages)) // one more under -race, where Fill's closures escape
		if got := testing.AllocsPerRun(20, func() {
			if _, err := Compress(ids); err != nil {
				t.Fatal(err)
			}
		}); got > ceiling {
			t.Errorf("n=%d (%d pages): Compress made %v allocations, want <= %v", n, len(l.Pages), got, ceiling)
		}
		for _, pg := range l.Pages {
			if cap(pg.Rows) != len(pg.Rows) || cap(pg.Words) != len(pg.Words) {
				t.Fatalf("n=%d: a page holds %d/%d rows and %d/%d words, want exact allocations",
					n, len(pg.Rows), cap(pg.Rows), len(pg.Words), cap(pg.Words))
			}
		}
	}
}

// A splice shares the whole pages below k with the list it was made
// from, copies the rows and words of the page k falls in that come
// before k, and leaves the list it was made from as it was.
func TestSpliceSharesWholePages(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	ids := genAscending(rng, 200*BlockSize+17, 40)
	old, _ := Compress(ids)
	before := old.Decompress()
	for _, k := range []int{0, 1, 63, 64, 65, 128, 150, 200} {
		base := uint32(0)
		if k > 0 {
			base = ids[k*BlockSize-1]
		}
		tail := genAscending(rng, 300, 90) // every docID >= 1
		for i := range tail {
			tail[i] += base
		}
		got, err := old.Splice(k, tail)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		want, _ := Compress(append(append([]uint32(nil), ids[:k*BlockSize]...), tail...))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("k=%d: spliced list differs from the encoding of the whole", k)
		}
		for p := range k >> PageShift {
			if &got.Pages[p].Rows[0] != &old.Pages[p].Rows[0] || &got.Pages[p].Words[0] != &old.Pages[p].Words[0] {
				t.Fatalf("k=%d: page %d below the splice was copied, not shared", k, p)
			}
		}
		if p := k >> PageShift; k&(1<<PageShift-1) != 0 && &got.Pages[p].Words[0] == &old.Pages[p].Words[0] {
			t.Fatalf("k=%d: the page the splice falls in is shared, not copied", k)
		}
	}
	if !reflect.DeepEqual(old.Decompress(), before) {
		t.Fatal("splicing changed the list spliced from")
	}
	if _, err := old.Splice(3, []uint32{ids[3*BlockSize-1]}); !errors.Is(err, ErrNotAscending) {
		t.Errorf("tail at the prefix's last docID: err = %v, want ErrNotAscending", err)
	}
	if _, err := old.Splice(201, nil); err == nil {
		t.Error("splice behind the partial last block accepted")
	}
}
