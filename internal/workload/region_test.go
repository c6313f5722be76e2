//go:build linux

package workload

import (
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"syscall"
	"testing"
	"unsafe"

	"griffin/internal/ef"
	"griffin/internal/index"
)

// longListIndex is three lists of 64 pages each (12 288 blocks), the
// shape index's TestOpenHeapPerBlock opens: per-list costs vanish beside
// per-block ones. Every 64th document has a length, so every page of the
// length table has words.
func longListIndex(t testing.TB) *index.Index {
	t.Helper()
	const terms, perTerm = 3, 64 << ef.PageShift * index.BlockSize
	rng := rand.New(rand.NewSource(27))
	b := index.NewBuilder(index.CodecEF)
	ids, freqs := make([]uint32, perTerm), make([]uint32, perTerm)
	for term := range terms {
		cur := uint32(0)
		for i := range ids {
			cur += 1 + uint32(rng.Intn(3))
			ids[i], freqs[i] = cur, 1+uint32(rng.Intn(6))
		}
		if err := b.AddPostings(TermName(term), ids, freqs); err != nil {
			t.Fatal(err)
		}
	}
	for d := uint32(0); d <= ids[len(ids)-1]; d += 64 {
		b.SetDocLen(d, 100+d%700)
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestPartitionIndexHeapPerBlock: what the shards keep on the heap is a
// page header per 64 blocks per table, 56 bytes each, and the page arrays
// that hold them. Their rows and words lie in regions, which the heap does
// not hold (with the rows on the heap, 12 bytes a block for the docIDs and
// 4 for the frequencies, it kept 18.2 B a block; with the words too, ~245).
func TestPartitionIndexHeapPerBlock(t *testing.T) {
	ix := longListIndex(t)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	shards, err := PartitionIndex(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	blocks := 0
	for _, six := range shards {
		for _, term := range six.Terms() {
			pl, _ := six.Lookup(term)
			blocks += pl.EF.NumBlocks()
		}
	}
	if blocks < 10_000 {
		t.Fatalf("the shards hold %d blocks, want >= 10 000", blocks)
	}
	perBlock := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(blocks)
	t.Logf("%d blocks: %.1f B of heap a block", blocks, perBlock)
	if perBlock > 3 {
		t.Errorf("PartitionIndex left %.1f B of heap per block, want <= 3", perBlock)
	}
	runtime.KeepAlive(shards)
	runtime.KeepAlive(ix)
}

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

// After the split, the pages of the opened parent's mapping that hold its
// lists are no longer this process's — they read back identically all
// the same, faulted in from the file — while its DocLens, which the
// shards share, stays.
func TestPartitionReleasesParentListPages(t *testing.T) {
	built := longListIndex(t)
	path := filepath.Join(t.TempDir(), "index.grif")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := built.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ix, err := index.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	// The doc lengths are one run at the head of the file, their pages'
	// words back to back and a trailing word; the mapping starts in the
	// page they start in.
	n := 1
	for p := range ix.DocLens.NumPages() {
		if words, width := ix.DocLens.Page(p); width > 0 {
			n += len(words) - 1 // a page's words run one word past its lengths
		}
	}
	first, width := ix.DocLens.Page(0)
	if width == 0 {
		t.Fatal("the fixture's first page of lengths has no words")
	}
	lenWords := unsafe.Slice(unsafe.SliceData(first), n)
	// A file folio the kernel maps with one page-table entry for 2 MB is
	// unmapped whole when part of it is released, and with it whatever
	// neighbours it holds: the law below is one of pages, so the mapping
	// asks for pages, and what Open mapped before it asked is let go.
	head := unsafe.Pointer(unsafe.SliceData(first))
	head = unsafe.Add(head, -int(uintptr(head)%uintptr(os.Getpagesize())))
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	mapping := unsafe.Slice((*byte)(head), fi.Size())
	if err := syscall.Madvise(mapping, syscall.MADV_NOHUGEPAGE); err != nil {
		t.Fatal(err)
	}
	if err := syscall.Madvise(mapping, syscall.MADV_DONTNEED); err != nil {
		t.Fatal(err)
	}

	// Reading makes pages resident: every list, and every page of the
	// doc lengths. A list's docID words are one run in the file, its
	// pages' words back to back.
	var lists [][]uint64
	var sum uint32
	for _, term := range ix.Terms() {
		pl, _ := ix.Lookup(term)
		for _, d := range pl.EF.Decompress() {
			sum += d
		}
		n := 0
		for _, pg := range pl.EF.Pages {
			n += len(pg.Words)
		}
		lists = append(lists, unsafe.Slice(unsafe.SliceData(pl.EF.Pages[0].Words), n))
	}
	for d := 0; d < ix.NumDocs; d += 256 {
		sum += ix.DocLen(uint32(d))
	}
	residentLists := func() (n int) {
		for _, w := range lists {
			n += residentPages(t, w)
		}
		return n
	}
	before, lensBefore := residentLists(), residentPages(t, lenWords)
	t.Logf("read the parent (sum %d): %d pages of its lists and %d of its doc lengths resident", sum, before, lensBefore)
	if before == 0 || lensBefore < len(lenWords)*8/os.Getpagesize()-1 {
		t.Fatal("reading the index left its pages not resident")
	}

	shards, err := PartitionIndex(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n := residentLists(); n != 0 {
		t.Errorf("%d pages of the parent's lists still resident after the split", n)
	}
	if got := residentPages(t, lenWords); got != lensBefore {
		t.Errorf("%d pages of the parent's DocLens resident after the split, want its %d", got, lensBefore)
	}
	for _, term := range built.Terms() {
		got, _ := ix.Lookup(term)
		want, _ := built.Lookup(term)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("term %q of the parent no longer reads back as written", term)
		}
	}
	runtime.KeepAlive(shards)
}

// The shards' rows and words are sealed: a stray store through either
// faults, as it does on a mapped index file, instead of corrupting a list
// silently.
func TestShardWordsAreReadOnly(t *testing.T) {
	shards, err := PartitionCorpus(partitionTestCorpus(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	pl, _ := shards[1].Lookup(TermName(0))
	pg := &pl.EF.Pages[0]
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	faults := func(store func()) (faulted bool) {
		defer func() { faulted = recover() != nil }()
		store()
		return false
	}
	if !faults(func() { pg.Words[0] ^= 1 }) {
		t.Error("a store through a shard page's words went through")
	}
	if !faults(func() { pg.Rows[0].FirstDocID ^= 1 }) {
		t.Error("a store through a shard page's row went through")
	}
	runtime.KeepAlive(shards)
}
