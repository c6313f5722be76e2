package index

import (
	"bufio"
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"griffin/internal/bitutil"
	"griffin/internal/ef"
)

// refPackFreqs is a bit-at-a-time frequency encoder: each block's
// frequencies at the block's widest width, set one bit at a time, the
// blocks laid out 64 rows a page, each page's words its blocks' words
// back to back.
// The block codec is held to its bytes, and to FreqStore.At — the
// per-element decoder — for what comes back.
func refPackFreqs(freqs []uint32) *FreqStore {
	fs := &FreqStore{n: len(freqs)}
	for start := 0; start < len(freqs); start += BlockSize {
		chunk := freqs[start:min(start+BlockSize, len(freqs))]
		b := 1
		for _, f := range chunk {
			if w := bitutil.BitsFor(uint64(f)); w > b {
				b = w
			}
		}
		words := make([]uint64, bitutil.WordsFor(len(chunk)*b))
		for i, f := range chunk {
			for j := 0; j < b; j++ {
				words[(i*b+j)/bitutil.WordBits] |= uint64(f>>uint(j)&1) << uint((i*b+j)%bitutil.WordBits)
			}
		}
		if start%(BlockSize<<ef.PageShift) == 0 {
			fs.pages = append(fs.pages, ef.Page[freqRow]{})
		}
		pg := &fs.pages[len(fs.pages)-1]
		pg.Rows = append(pg.Rows, freqRow{off: uint16(len(pg.Words)), b: uint8(b), words: uint8(len(words))})
		pg.Words = append(pg.Words, words...)
	}
	return fs
}

// TestBlockRowsHoldNoPointers: a block table's rows are what a built or
// merged index keeps on the heap, one per 128 postings, and the collector
// never scans them — which holds only as long as no field of a row can
// hold a pointer. An opened index's rows are views of the file's bytes
// (rowsOf), which the collector does not scan: a pointer stored in one
// would not keep what it points to alive.
func TestBlockRowsHoldNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Struct:
			for i := range typ.NumField() {
				walk(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
			reflect.Map, reflect.Interface, reflect.Chan, reflect.Func:
			t.Errorf("%s is a %s: a row must hold no pointer", path, typ.Kind())
		}
	}
	for _, row := range []any{ef.Row{}, freqRow{}} {
		walk(reflect.TypeOf(row).String(), reflect.TypeOf(row))
	}
	if size := reflect.TypeOf(ef.Row{}).Size() + reflect.TypeOf(freqRow{}).Size(); size != 16 {
		t.Errorf("the two rows of a block take %d bytes, want 16", size)
	}
}

// TestRowLayoutIsTheFile: Parse views a file's block rows as ef.Row and
// freqRow values, so each type's size and every field's offset are the
// file's (the format above WriteTo) — a field reordered or resized fails
// here instead of misreading a mapped file — and the encoder's bytes and
// the copying decoder agree with the memory of the row.
func TestRowLayoutIsTheFile(t *testing.T) {
	var r ef.Row
	var fr freqRow
	for _, c := range []struct {
		field     string
		got, want uintptr
	}{
		{"sizeof(ef.Row)", unsafe.Sizeof(r), rowLen},
		{"ef.Row.FirstDocID", unsafe.Offsetof(r.FirstDocID), 0},
		{"ef.Row.Off", unsafe.Offsetof(r.Off), 4},
		{"ef.Row.HighLen", unsafe.Offsetof(r.HighLen), 6},
		{"ef.Row.N", unsafe.Offsetof(r.N), 8},
		{"ef.Row.B", unsafe.Offsetof(r.B), 9},
		{"ef.Row.HighWords", unsafe.Offsetof(r.HighWords), 10},
		{"ef.Row.LowWords", unsafe.Offsetof(r.LowWords), 11},
		{"sizeof(freqRow)", unsafe.Sizeof(fr), freqRowLen},
		{"freqRow.off", unsafe.Offsetof(fr.off), 0},
		{"freqRow.b", unsafe.Offsetof(fr.b), 2},
		{"freqRow.words", unsafe.Offsetof(fr.words), 3},
	} {
		if c.got != c.want {
			t.Errorf("%s at %d, the file has it at %d", c.field, c.got, c.want)
		}
	}

	r = ef.Row{FirstDocID: 0x04030201, Off: 0x0605, HighLen: 0x0807, N: 9, B: 10, HighWords: 11, LowWords: 12}
	fr = freqRow{off: 0x0201, b: 3, words: 4}
	var buf bytes.Buffer
	e := &encoder{w: bufio.NewWriter(&buf)}
	e.row(r)
	e.freqRow(fr)
	if err := e.w.Flush(); err != nil {
		t.Fatal(err)
	}
	want := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 1, 2, 3, 4}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("the encoder writes % x, want % x", buf.Bytes(), want)
	}
	if got := getRow(want); got != r {
		t.Errorf("getRow = %+v, want %+v", got, r)
	}
	if got := getFreqRow(want[rowLen:]); got != fr {
		t.Errorf("getFreqRow = %+v, want %+v", got, fr)
	}
	if hostLittleEndian {
		mem := append(slices.Clip(unsafe.Slice((*byte)(unsafe.Pointer(&r)), rowLen)),
			unsafe.Slice((*byte)(unsafe.Pointer(&fr)), freqRowLen)...)
		if !bytes.Equal(mem, want) {
			t.Errorf("the rows' memory is % x, the file's bytes % x", mem, want)
		}
	}
}

// freqsOfWidth draws n frequencies of at most width bits, the widest of
// them exactly width bits wide.
func freqsOfWidth(r *rand.Rand, n, width int) []uint32 {
	freqs := make([]uint32, n)
	for i := range freqs {
		freqs[i] = uint32(r.Uint64() & (1<<uint(width) - 1))
	}
	freqs[r.Intn(n)] |= 1 << uint(width-1)
	return freqs
}

func TestPackFreqsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 129, 256, 257, 1000} {
		for width := 1; width <= 32; width++ {
			freqs := freqsOfWidth(r, n, width)
			got, want := spliceFreqs(nil, 0, freqs), refPackFreqs(freqs)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d width=%d: the frequency encoder differs from the reference encoding", n, width)
			}
			var buf [BlockSize]uint32
			for k := 0; k*BlockSize < n; k++ {
				m := got.DecodeBlock(k, buf[:])
				if !reflect.DeepEqual(buf[:m], freqs[k*BlockSize:][:m]) || m != len(freqBlockOf(freqs, k)) {
					t.Fatalf("n=%d width=%d: DecodeBlock(%d) = %v", n, width, k, buf[:m])
				}
			}
			for i, f := range freqs {
				if got.At(i) != f {
					t.Fatalf("n=%d width=%d: At(%d) = %d, want %d", n, width, i, got.At(i), f)
				}
			}
			if !reflect.DeepEqual(got.Decode(), freqs) {
				t.Fatalf("n=%d width=%d: Decode differs", n, width)
			}
		}
	}
	// All zeros still takes one bit per value.
	if got, want := spliceFreqs(nil, 0, make([]uint32, 130)), refPackFreqs(make([]uint32, 130)); !reflect.DeepEqual(got, want) {
		t.Fatal("zero frequencies: the frequency encoder differs from the reference encoding")
	}
}

// No frequencies at all is a store with no pages of blocks — what the
// bit-at-a-time encoder returned and what Parse gives an empty list of an
// opened file, which reflect.DeepEqual(Open(f), built) compares.
func TestPackFreqsKeepsNilBlocks(t *testing.T) {
	if fs := spliceFreqs(nil, 0, nil); fs.pages != nil || fs.n != 0 {
		t.Errorf("spliceFreqs(nil, 0, nil) = %+v, want no pages", fs)
	}
	if fs := spliceFreqs(nil, 0, []uint32{}); fs.pages != nil {
		t.Errorf("spliceFreqs(nil, 0, empty).pages = %#v, want none", fs.pages)
	}
	if fs := refPackFreqs(nil); fs.pages != nil {
		t.Fatalf("the reference's empty store has pages %#v: the test's premise is gone", fs.pages)
	}
	var e freqEncoder
	if fs := e.finish(); !reflect.DeepEqual(fs, spliceFreqs(nil, 0, nil)) {
		t.Errorf("freqEncoder.finish() of nothing = %+v, want %+v", fs, spliceFreqs(nil, 0, nil))
	}
}

// Packing frequencies allocates the store, its page array, and per page of 64
// blocks its rows and its words, each one exact allocation; nothing per
// block. The bit-at-a-time encoders allocated per block.
func TestPackFreqsAllocations(t *testing.T) {
	r := rand.New(rand.NewSource(78))
	for _, n := range []int{100, 10_000, 300_000} {
		freqs := freqsOfWidth(r, n, 5)
		fs := spliceFreqs(nil, 0, freqs)
		ceiling := float64(3 + 2*len(fs.pages)) // one more under -race, where Fill's closures escape
		if got := testing.AllocsPerRun(20, func() { spliceFreqs(nil, 0, freqs) }); got > ceiling {
			t.Errorf("n=%d (%d pages): packing made %v allocations, want <= %v", n, len(fs.pages), got, ceiling)
		}
	}
}

// DecodeFrom goes through the block decoders; it must return what the
// per-element accessors return.
func TestDecodeFromMatchesElementAccess(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	ids, freqs := randomPostings(r, 3*BlockSize+17)
	pl, err := SpliceList("t", nil, 0, ids, freqs)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < pl.EF.NumBlocks(); k++ {
		gotIDs, gotFreqs := pl.DecodeFrom(k)
		skip := k * BlockSize
		if len(gotIDs) != len(ids)-skip || len(gotFreqs) != len(gotIDs) {
			t.Fatalf("k=%d: %d ids, %d freqs, want %d", k, len(gotIDs), len(gotFreqs), len(ids)-skip)
		}
		for i := range gotIDs {
			bi, in := (skip+i)/BlockSize, (skip+i)%BlockSize
			if gotIDs[i] != pl.EF.Get(bi, in) || gotFreqs[i] != pl.Freqs.At(skip+i) {
				t.Fatalf("k=%d: posting %d = (%d, %d), want (%d, %d)", k, i, gotIDs[i], gotFreqs[i],
					pl.EF.Get(bi, in), pl.Freqs.At(skip+i))
			}
		}
	}
}

func benchFreqs(n int) []uint32 {
	r := rand.New(rand.NewSource(82))
	freqs := make([]uint32, n)
	for i := range freqs {
		freqs[i] = 1 + uint32(r.Intn(1<<uint(r.Intn(6))))
	}
	return freqs
}

func BenchmarkPackFreqs(b *testing.B) {
	freqs := benchFreqs(1 << 17)
	b.SetBytes(int64(len(freqs) * 4))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spliceFreqs(nil, 0, freqs)
	}
}

func BenchmarkDecodeBlock(b *testing.B) {
	fs := spliceFreqs(nil, 0, benchFreqs(1<<17))
	var buf [BlockSize]uint32
	b.SetBytes(int64(fs.n * 4))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k*BlockSize < fs.n; k++ {
			fs.DecodeBlock(k, buf[:])
		}
	}
}

// A spliced list shares its untouched leading pages with the list it
// replaces, and a page keeps alive the allocations its rows and words lie
// in. Every page an encoder makes is exact allocations of its own, so a
// list merged again and again, each time a little further in, holds on
// to the pages it can reach and to nothing of its predecessors' dead
// tails. What a splice allocates is the tail's pages plus, per table, the
// rows of the page k falls in (those before k copied), the words that
// page owns and one small header: the words before k only where the page
// copies them rather than share them (ef.Pager.Seed: where a view would
// keep too much of the page they lie in alive, as every cut far back in
// a page does here). (With one slab per list, 40 splices of the list
// below kept 15 times the list alive.)
func TestSplicedListsDoNotPinDeadSlabs(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	r := rand.New(rand.NewSource(83))
	ids, freqs := randomPostings(r, 200_000)
	before := heap()
	pl, err := SpliceList("t", nil, 0, ids, freqs)
	if err != nil {
		t.Fatal(err)
	}
	fresh := heap() - before
	blocks := pl.EF.NumBlocks()
	for i := 1; i <= 40; i++ {
		k := i * blocks / 41
		old := pl
		var next *PostingList
		allocated := allocatedBy(func() {
			next, err = SpliceList("t", old, k, ids[k*BlockSize:], freqs[k*BlockSize:])
		})
		if err != nil {
			t.Fatal(err)
		}
		for p := range k >> ef.PageShift {
			if &next.EF.Pages[p].Rows[0] != &old.EF.Pages[p].Rows[0] || &next.EF.Pages[p].Words[0] != &old.EF.Pages[p].Words[0] ||
				&next.Freqs.pages[p].Rows[0] != &old.Freqs.pages[p].Rows[0] || &next.Freqs.pages[p].Words[0] != &old.Freqs.pages[p].Words[0] {
				t.Fatalf("splice %d at block %d: page %d below it was copied, not shared", i, k, p)
			}
		}
		if p := k >> ef.PageShift; k&(1<<ef.PageShift-1) != 0 &&
			(&next.EF.Pages[p].Rows[0] == &old.EF.Pages[p].Rows[0] || &next.Freqs.pages[p].Rows[0] == &old.Freqs.pages[p].Rows[0]) {
			t.Fatalf("splice %d at block %d: the rows of the page it falls in are shared, not copied", i, k)
		}
		// The tail's pages, from the page k falls in: every row of them is
		// new (the ones before k copies), and every word they own.
		tail := tableTail(next.EF.Pages, old.EF.Pages, k) + tableTail(next.Freqs.pages, old.Freqs.pages, k)
		// Size classes round an allocation up by at most 1/8; the rest is
		// the two page arrays' shared part, one page extension per table
		// (ef's: a region pointer and the owned run's slice header, 32 B)
		// and the lists' headers.
		if ceiling := tail*9/8 + uint64(k>>ef.PageShift)*2*uint64(unsafe.Sizeof(ef.Page[ef.Row]{})) + 2*32 + 2<<10; allocated > ceiling {
			t.Fatalf("splice %d at block %d allocated %d bytes, want <= %d: the tail's pages and the rows of the page it falls in", i, k, allocated, ceiling)
		}
		pl = next
	}
	spliced := heap() - before
	runtime.KeepAlive(pl)
	runtime.KeepAlive(ids) // in both measurements
	runtime.KeepAlive(freqs)
	t.Logf("a fresh list keeps %d KB, the same list after 40 splices %d KB", fresh>>10, spliced>>10)
	if ceiling := fresh + fresh/20; spliced > ceiling {
		t.Errorf("after 40 splices the list keeps %d bytes alive, a fresh encoding of it %d, want <= %d: spliced lists pin dead pages", spliced, fresh, ceiling)
	}
}

// tableTail returns the bytes of the pages of a table spliced from old at
// block k, from the page k falls in: their rows, the words each page owns
// — all of its run but where its Words are a view of old's page — and
// their slots in the page array.
func tableTail[R any](pages, old []ef.Page[R], k int) uint64 {
	var n uint64
	for p, pg := range pages[k>>ef.PageShift:] {
		words := cap(pg.Words) + len(pg.Owned())
		if p == 0 && k&(1<<ef.PageShift-1) != 0 && &pg.Words[0] == &old[k>>ef.PageShift].Words[0] {
			words = len(pg.Owned())
		}
		n += uint64(cap(pg.Rows))*uint64(unsafe.Sizeof(pg.Rows[0])) + uint64(words)*8 + uint64(unsafe.Sizeof(pg))
	}
	return n
}

// allocatedBy returns the bytes f allocates.
func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// The block codecs take the caller's buffers as they are: a block decoded
// into arrays on the caller's stack allocates nothing.
// A codec that dispatched its widths through a table of functions would
// move such arrays to the heap, an allocation every call.
func TestBlockCodecsAllocateNothing(t *testing.T) {
	ids, freqs := randomPostings(rand.New(rand.NewSource(81)), 61*BlockSize)
	pl, err := SpliceList("t", nil, 0, ids, freqs)
	if err != nil {
		t.Fatal(err)
	}
	k := 0
	if a := testing.AllocsPerRun(100, func() {
		var d, f [BlockSize]uint32
		pl.EF.DecompressBlock(k%61, d[:])
		pl.Freqs.DecodeBlock(k%61, f[:])
		k++
	}); a != 0 {
		t.Errorf("DecompressBlock and DecodeBlock allocated %.0f times a block, want 0", a)
	}
}
