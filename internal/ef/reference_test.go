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

// refCompressBlock encodes ids at stride, dividing each distance from the
// first docID by it with the division operator.
func refCompressBlock(ids []uint32, stride uint32) Block {
	n := len(ids)
	first := ids[0]
	u := uint64((ids[n-1] - first) / stride)
	b := 0
	if u/uint64(n) >= 1 {
		b = bitutil.Log2Floor(u / uint64(n))
	}
	highLen := int(u>>uint(b)) + n
	low, high := make([]uint64, bitutil.WordsFor(n*b)), make([]uint64, bitutil.WordsFor(highLen))
	for i, id := range ids {
		v := uint64((id - first) / stride)
		putBits(low, i*b, b, v)
		putBits(high, int(v>>uint(b))+i, 1, 1)
	}
	return Block{FirstDocID: first, Stride: stride, N: n, B: b, HighBits: high, HighLen: highLen, LowBits: low}
}

// refCompress encodes ids a block at a time at stride and lays the
// blocks out as a list holds them: 64 rows a page, each page's words its
// blocks' high then low words, back to back, each row's offset relative to
// its page.
func refCompress(ids []uint32, stride uint32) *List {
	l := &List{N: len(ids)}
	if stride > 1 {
		l.Stride = stride
	}
	for start := 0; start < len(ids); start += BlockSize {
		b := refCompressBlock(ids[start:min(start+BlockSize, len(ids))], stride)
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
		dst[i] = b.FirstDocID + uint32(high<<uint(b.B)|low)*b.Stride
	}
	return b.N
}

// checkAgainstReference holds the encoding of ids at stride (Compress's
// at stride 1) to the reference encoding, field by field
// (reflect.DeepEqual tells a nil slice from an empty one), and both
// decoders and Get to ids.
func checkAgainstReference(t testing.TB, ids []uint32, stride uint32) {
	t.Helper()
	l, err := Compress(ids)
	if stride > 1 {
		l, err = compressAt(ids, stride)
	}
	if err != nil {
		t.Fatalf("Compress: %v", err)
	}
	want := refCompress(ids, stride)
	if !reflect.DeepEqual(l, want) {
		t.Fatalf("N=%d blocks=%d: the list differs from the reference's rows and pages", l.N, l.NumBlocks())
	}
	var got, ref [BlockSize]uint32
	for k := range l.NumBlocks() {
		blk, wb := l.Block(k), refCompressBlock(ids[k*BlockSize:min((k+1)*BlockSize, len(ids))], stride)
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
			checkAgainstReference(t, c.ids, 1)
			if got := refCompressBlock(c.ids[:min(BlockSize, len(c.ids))], 1).B; c.b >= 0 && got != c.b {
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
	if !reflect.DeepEqual(l, refCompress(nil, 1)) {
		t.Errorf("Encoder.Finish() of nothing = %+v, reference %+v", l, refCompress(nil, 1))
	}

	dense := ascending(BlockSize, 10, func(int) uint32 { return 1 })
	l, _ = Compress(dense)
	blk, ref := l.Block(0), refCompressBlock(dense, 1)
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
			if err := e.Append(ids[start:min(start+BlockSize, n)], 0); err != nil {
				t.Fatalf("n=%d: Append at %d: %v", n, start, err)
			}
		}
		got, want := e.Finish(), refCompress(ids, 1)
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
	if err := e.Append(nil, 0); err == nil {
		t.Error("empty block accepted")
	}
	if err := e.Append(make([]uint32, BlockSize+1), 0); err == nil {
		t.Error("oversized block accepted")
	}
	if err := e.Append([]uint32{5, 5}, 0); !errors.Is(err, ErrNotAscending) {
		t.Errorf("repeated docID: err = %v, want ErrNotAscending", err)
	}
	if err := e.Append(full, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Append([]uint32{full[BlockSize-1]}, 0); !errors.Is(err, ErrNotAscending) {
		t.Errorf("docID not above the previous block's last: err = %v, want ErrNotAscending", err)
	}
	if err := e.Append([]uint32{1 << 30}, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Append([]uint32{1<<30 + 1}, 0); err == nil {
		t.Error("block accepted after a short block")
	}
	// The rejected blocks left nothing behind.
	if got, want := e.Finish(), refCompress(append(full, 1<<30), 1); !reflect.DeepEqual(got, want) {
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

// run returns a page's run, Words and then its owned run, as one slice.
func run[R any](pg *Page[R]) []uint64 { return append(slices.Clip(pg.Words), pg.Owned()...) }

// sameList reports whether two lists hold the same rows and the same
// run in every page, wherever the runs' words lie, at the same stride.
func sameList(a, b *List) bool {
	if a.N != b.N || a.Stride != b.Stride || len(a.Pages) != len(b.Pages) {
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
		got, err := old.Splice(k, 0, tail)
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
			again, err := got.Splice(k2, 0, whole[k2*BlockSize:])
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
	if _, err := old.Splice(3, 0, []uint32{ids[3*BlockSize-1]}); !errors.Is(err, ErrNotAscending) {
		t.Errorf("tail at the prefix's last docID: err = %v, want ErrNotAscending", err)
	}
	if _, err := old.Splice(201, 0, nil); err == nil {
		t.Error("splice behind the partial last block accepted")
	}
}
