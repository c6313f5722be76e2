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
	"testing"
	"unsafe"

	"griffin/internal/ef"
	"griffin/internal/index"
)

// longListIndex is three lists of 64 pages each (12 288 blocks), the
// shape index's TestOpenHeapPerBlock opens: per-list costs vanish beside
// per-block ones.
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
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// TestPartitionIndexHeapPerBlock: what the shards keep on the heap is
// their block rows — 12 bytes a block for the docIDs, 4 for the
// frequencies — and a page header per 64 blocks per table. Their words lie
// in regions, which the heap does not hold (the parent kept ~245 B a
// block, the words included).
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
	if perBlock > 20 {
		t.Errorf("PartitionIndex left %.1f B of heap per block, want <= 20", perBlock)
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
	// Reading makes pages resident: every list, and the first page of
	// DocLens. A list's docID words are one run in the file, its pages'
	// words back to back.
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
	docLens := ix.DocLens.Pages()[0]
	for d := 0; d < len(docLens); d += 512 {
		sum += ix.DocLen(uint32(d))
	}
	residentLists := func() (n int) {
		for _, w := range lists {
			n += residentPages(t, w)
		}
		return n
	}
	docLenWords := unsafe.Slice((*uint64)(unsafe.Pointer(unsafe.SliceData(docLens))), len(docLens)/2)
	before := residentLists()
	t.Logf("read the parent (sum %d): %d pages of its lists resident", sum, before)
	if before == 0 || residentPages(t, docLenWords) == 0 {
		t.Fatal("reading the index left none of its pages resident")
	}

	shards, err := PartitionIndex(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n := residentLists(); n != 0 {
		t.Errorf("%d pages of the parent's lists still resident after the split", n)
	}
	if got, want := residentPages(t, docLenWords), (len(docLens)*4)/os.Getpagesize()-1; got < want {
		t.Errorf("%d pages of the parent's DocLens resident after the split, want its %d", got, want)
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

// The shards' words are sealed: a stray store through one faults, as it
// does on a mapped index file, instead of corrupting a list silently.
func TestShardWordsAreReadOnly(t *testing.T) {
	shards, err := PartitionCorpus(partitionTestCorpus(t), 2)
	if err != nil {
		t.Fatal(err)
	}
	pl, _ := shards[1].Lookup(TermName(0))
	words := pl.EF.Pages[0].Words
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	faulted := func() (faulted bool) {
		defer func() { faulted = recover() != nil }()
		words[0] ^= 1
		return false
	}()
	if !faulted {
		t.Error("a store through a shard page's words went through")
	}
	runtime.KeepAlive(shards)
}
