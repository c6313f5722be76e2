package index

import (
	"encoding/binary"
	"os"
	"reflect"
	"syscall"
	"testing"
	"unsafe"
)

// residentPages counts the pages lying wholly inside words that are
// present in this process's page tables (/proc/self/pagemap, bit 63).
// mincore would not do: for a file mapping it reports the page cache,
// which keeps a page this process has let go of.
func residentPages(t *testing.T, words []uint64) int {
	t.Helper()
	page := uintptr(os.Getpagesize())
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(words)))
	hi := lo + uintptr(len(words))*8
	lo = (lo + page - 1) / page * page
	if hi <= lo+page {
		return 0
	}
	f, err := os.Open("/proc/self/pagemap")
	if err != nil {
		t.Skipf("no page map: %v", err)
	}
	defer f.Close()
	entries := make([]byte, (hi-lo)/page*8)
	if _, err := f.ReadAt(entries, int64(lo/page*8)); err != nil {
		t.Fatal(err)
	}
	n := 0
	for i := 0; i < len(entries); i += 8 {
		n += int(binary.LittleEndian.Uint64(entries[i:]) >> 63)
	}
	return n
}

// wordsOfList returns the words of pl, parsed from a mapping, as the one
// run they are in the file: the docIDs' then the frequencies'.
func wordsOfList(pl *PostingList) []uint64 {
	n := 0
	for _, pg := range pl.EF.Pages {
		n += len(pg.Words)
	}
	for _, pg := range pl.Freqs.pages {
		n += len(pg.Words)
	}
	return unsafe.Slice(unsafe.SliceData(pl.EF.Pages[0].Words), n)
}

// headOf returns what lies in the file between the words of prev and
// those of pl, the list after it: pl's header and block table.
func headOf(prev, pl *PostingList) []uint64 {
	w := wordsOfList(prev)
	end := unsafe.Add(unsafe.Pointer(unsafe.SliceData(w)), 8*len(w))
	start := unsafe.Pointer(unsafe.SliceData(pl.EF.Pages[0].Words))
	return unsafe.Slice((*uint64)(end), (uintptr(start)-uintptr(end))/8)
}

// ReleaseList drops the pages of one list's record and nothing a reader
// of another list, or of DocLens, still has resident; the list reads back
// as written all the same. It leaves a heap-built list and a spliced one
// as they are — a list spliced inside its last page too, whose first and
// last pages' Words both lie in the mapping but whose record ends in
// words of its own.
func TestReleaseList(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("big-endian host: every parse copies")
	}
	built := pagedIndex(t)
	path, _ := fileOf(t, built)
	ix, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// A file folio the kernel maps with one page-table entry for 2 MB is
	// unmapped whole when part of it is released, and with it whatever
	// neighbours it holds: the law below is one of pages, so the mapping
	// asks for pages, and what Open mapped before it asked is let go.
	if err := syscall.Madvise(ix.mapped, syscall.MADV_NOHUGEPAGE); err != nil {
		t.Fatal(err)
	}
	dropResident(ix.mapped)
	var ids, freqs [BlockSize]uint32
	for _, term := range ix.Terms() {
		pl, _ := ix.Lookup(term)
		for k := range pl.EF.NumBlocks() {
			pl.EF.DecompressBlock(k, ids[:])
			pl.Freqs.DecodeBlock(k, freqs[:])
		}
	}
	for d := 0; d < ix.NumDocs; d += 512 {
		ix.DocLen(uint32(d))
	}
	lenWords := wordsOf(ix.mapped[headerLen:ix.lensEnd]) // the doc-length section: widths, words, trailing word

	resident := func() map[string]int {
		n := map[string]int{"DocLens": residentPages(t, lenWords)}
		for _, term := range ix.Terms() {
			pl, _ := ix.Lookup(term)
			n[term] = residentPages(t, wordsOfList(pl))
		}
		a, _ := ix.Lookup("a")
		b, _ := ix.Lookup("b")
		n["b's table"] = residentPages(t, headOf(a, b))
		return n
	}
	before := resident()
	t.Logf("read every list: %v pages resident", before)
	for what, n := range before {
		if n == 0 {
			t.Fatalf("reading the index left no page of %s resident", what)
		}
	}

	// Not lists this index parsed: one built on the heap, and one spliced
	// from a mapped list (its leading pages are the mapping's, its tail is
	// on the heap). Dropping a heap page would zero it.
	mapped, _ := ix.Lookup("a")
	heapList, _ := built.Lookup("a")
	built.ReleaseList(heapList)
	ix.ReleaseList(heapList)
	k := mapped.EF.NumBlocks() / 2
	tailIDs, tailFreqs := mapped.DecodeFrom(k)
	spliced, err := SpliceList("a", mapped, k, tailIDs, tailFreqs)
	if err != nil {
		t.Fatal(err)
	}
	ix.ReleaseList(spliced)
	last := mapped.EF.NumBlocks() - 1 // the last of a full page: a tail of one block stays in it
	tailIDs, tailFreqs = mapped.DecodeFrom(last)
	tailFreqs[0]++
	inLast, err := SpliceList("a", mapped, last, tailIDs, tailFreqs)
	if err != nil {
		t.Fatal(err)
	}
	lastPage := &inLast.Freqs.pages[len(inLast.Freqs.pages)-1]
	if _, ok := offsetIn(ix.mapped, &lastPage.Words[0]); !ok || len(lastPage.Owned()) == 0 {
		t.Fatal("the list spliced inside its last page does not share that page's mapped words: the case is gone")
	}
	ix.ReleaseList(inLast)
	// Residency first: reading a list back faults its pages in again.
	if got := resident(); !reflect.DeepEqual(got, before) {
		t.Errorf("releasing lists the index did not parse: %v pages resident, want %v", got, before)
	}
	if !reflect.DeepEqual(heapList, mapped) {
		t.Error("releasing a heap-built list changed it")
	}

	middle, _ := ix.Lookup("b")
	ix.ReleaseList(middle)
	after := resident()
	for what, n := range after {
		switch released := what == "b" || what == "b's table"; {
		case released && n != 0:
			t.Errorf("%d pages of %s still resident after releasing it", n, what)
		case !released && n != before[what]:
			t.Errorf("%d pages of %s resident after releasing its neighbour, want %d", n, what, before[what])
		}
	}
	if want, _ := built.Lookup("b"); !reflect.DeepEqual(middle, want) {
		t.Error("the released list no longer reads back as built")
	}

	// The first list begins where the doc lengths end: all of it goes but
	// the page it shares with them.
	first, _ := ix.Lookup("a")
	ix.ReleaseList(first)
	if n := residentPages(t, wordsOfList(first)); n != 0 {
		t.Errorf("%d pages of the first list still resident after releasing it", n)
	}
	if n := residentPages(t, lenWords); n != before["DocLens"] {
		t.Errorf("%d pages of DocLens resident after releasing the first list, want %d", n, before["DocLens"])
	}
	if want, _ := built.Lookup("a"); !reflect.DeepEqual(first, want) {
		t.Error("the released first list no longer reads back as built")
	}
}
