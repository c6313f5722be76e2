package ef

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

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

// refCompressBlock encodes the block ids.
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

// checkAgainstReference holds Compress's encoding of ids to the
// reference encoding, field by field (reflect.DeepEqual tells a nil slice
// from an empty one), and both decoders and Get to ids.
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
	var e encoder
	if l = e.finish(); l.Pages != nil || l.N != 0 {
		t.Errorf("encoder.finish() of nothing = %+v, want an empty list with no pages", l)
	}
	if !reflect.DeepEqual(l, refCompress(nil)) {
		t.Errorf("encoder.finish() of nothing = %+v, reference %+v", l, refCompress(nil))
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

// run returns a page's run, Words and then its owned run, as one slice.
func run[R any](pg *Page[R]) []uint64 { return append(slices.Clip(pg.Words), pg.Owned()...) }

// sameList reports whether two lists hold the same rows and the same
// run in every page, wherever the runs' words lie, from the same row.
func sameList(a, b *List) bool {
	if a.N != b.N || a.Base != b.Base || len(a.Pages) != len(b.Pages) {
		return false
	}
	for p := range a.Pages {
		if !slices.Equal(a.Pages[p].Rows, b.Pages[p].Rows) || !slices.Equal(run(&a.Pages[p]), run(&b.Pages[p])) {
			return false
		}
	}
	return true
}

// A page is two slice headers and one pointer, 56 bytes, whatever it
// holds: a spliced page's owned run lies behind the pointer a page in a
// region uses for its region, so the page arrays a merge copies do not
// grow with it.
func TestPageDescriptorSize(t *testing.T) {
	if got, want := unsafe.Sizeof(Page[Row]{}), 2*unsafe.Sizeof([]uint64(nil))+unsafe.Sizeof(uintptr(0)); got != want {
		t.Errorf("a page is %d bytes, want %d", got, want)
	}
}

// sharesBefore reports whether a page cut at word end of from keeps the
// words before end as a view: whether what the view keeps alive past
// them, to its capacity, is at most maxDead words (Pager.Seed).
func sharesBefore(from *Page[Row], end int) bool { return cap(from.Words)-end <= maxDead }

// A splice shares the whole pages below k with the list it was made
// from. Of the page k falls in it copies the rows that come before k; it
// shares their words, the page's Words up to where they end, by address
// when that view keeps few dead words alive (a cut near the page's end),
// and copies them otherwise. Spliced again, a spliced page still shares
// the first page's words, and copies only what it owns. It leaves the
// list it was made from as it was.
func TestSpliceSharesWholePages(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	ids := genAscending(rng, 200*BlockSize+17, 40)
	old, _ := Compress(ids)
	before := old.Decompress()
	var shared, copied int
	for _, k := range []int{0, 1, 63, 64, 65, 127, 128, 150, 191, 200} {
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
		whole := append(append([]uint32(nil), ids[:k*BlockSize]...), tail...)
		want, _ := Compress(whole)
		if !sameList(got, want) {
			t.Fatalf("k=%d: spliced list differs from the encoding of the whole", k)
		}
		for p := range k >> PageShift {
			if &got.Pages[p].Rows[0] != &old.Pages[p].Rows[0] || &got.Pages[p].Words[0] != &old.Pages[p].Words[0] {
				t.Fatalf("k=%d: page %d below the splice was copied, not shared", k, p)
			}
		}
		p, r := k>>PageShift, k&(1<<PageShift-1)
		if r == 0 {
			continue
		}
		cut, from := &got.Pages[p], &old.Pages[p]
		end := int(from.Rows[r-1].Off) + from.Rows[r-1].words()
		if &cut.Rows[0] == &from.Rows[0] {
			t.Fatalf("k=%d: the rows of the page the splice falls in are shared, not copied", k)
		}
		if !sharesBefore(from, end) {
			copied++
			if &cut.Words[0] == &from.Words[0] || cut.Owned() != nil {
				t.Fatalf("k=%d: the page the splice falls in keeps a view of %d words alive for %d, want them copied", k, cap(from.Words), end)
			}
			continue
		}
		shared++
		if &cut.Words[0] != &from.Words[0] || len(cut.Words) != end || len(cut.Owned()) == 0 {
			t.Fatalf("k=%d: the page the splice falls in holds %d words before k, %d of its own; want the %d before k shared, the tail's owned",
				k, len(cut.Words), len(cut.Owned()), end)
		}

		// Spliced again: inside the owned run (one block past k) and
		// inside the shared run (one block before k). Neither reaches the
		// owned run of the page it is spliced from.
		for _, k2 := range []int{k + 1, k - 1} {
			if k2&(1<<PageShift-1) == 0 || k2 >= got.NumBlocks() {
				continue
			}
			again, err := got.Splice(k2, whole[k2*BlockSize:])
			if err != nil {
				t.Fatalf("k=%d k2=%d: %v", k, k2, err)
			}
			if !sameList(again, got) {
				t.Fatalf("k=%d k2=%d: splicing the spliced list again changed it", k, k2)
			}
			pg, last := &again.Pages[k2>>PageShift], &cut.Rows[k2&(1<<PageShift-1)-1]
			end2 := min(int(last.Off)+last.words(), end)
			if (&pg.Words[0] == &from.Words[0]) != sharesBefore(from, end2) {
				t.Fatalf("k=%d k2=%d: the twice-spliced page shares the first page's words: %v, want %v",
					k, k2, &pg.Words[0] == &from.Words[0], sharesBefore(from, end2))
			}
			if len(pg.Owned()) > 0 && &pg.Owned()[0] == &cut.Owned()[0] {
				t.Fatalf("k=%d k2=%d: the twice-spliced page shares the owned run it was spliced from", k, k2)
			}
		}
	}
	if shared == 0 || copied == 0 {
		t.Fatalf("%d cut pages shared their words, %d copied them: want both", shared, copied)
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
