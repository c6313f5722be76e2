//go:build unix

package index

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestOpenAllocationCeiling: opening a mapped index costs the per-list
// block headers — a few allocations per term and a heap well under the
// file's size — not an object per block and a copy of the postings.
func TestOpenAllocationCeiling(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("big-endian host: every parse copies")
	}
	const (
		docs     = 2_000_000
		terms    = 48
		perTerm  = 25_000
		postings = terms * perTerm
	)
	rng := rand.New(rand.NewSource(18))
	b := NewBuilder(CodecEF)
	ids := make([]uint32, perTerm)
	freqs := make([]uint32, perTerm)
	for term := 0; term < terms; term++ {
		cur := uint32(0)
		for i := range ids {
			cur += 1 + uint32(rng.Intn(2*docs/perTerm-1))
			ids[i] = cur
			freqs[i] = 1 + uint32(rng.Intn(6))
		}
		if err := b.AddPostings(string(rune('a'+term/26))+string(rune('a'+term%26)), ids, freqs); err != nil {
			t.Fatal(err)
		}
	}
	b.SetDocLen(docs-1, 9)
	built, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if postings < 1_000_000 {
		t.Fatalf("fixture holds %d postings, want >= 1M", postings)
	}
	path, data := fileOf(t, built)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ix, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if ix.NumTerms() != terms {
		t.Fatalf("opened %d terms, want %d", ix.NumTerms(), terms)
	}
	if got := after.Mallocs - before.Mallocs; got >= 5_000 {
		t.Errorf("Open made %d allocations, want < 5000", got)
	}
	if got := int64(after.HeapAlloc) - int64(before.HeapAlloc); got > int64(len(data))/2 {
		t.Errorf("Open left %d bytes live for a %d-byte file, want at most half", got, len(data))
	}
	runtime.KeepAlive(ix)
}

// TestOpenHeapPerBlock: what an opened index keeps on the heap is a
// page header per 64 blocks per table, 56 bytes each, and the page table
// of its doc lengths — not its block rows, 16 bytes a block, which stay
// in the mapping with the file's words, and not a per-block struct of
// slice headers, which takes over 100 bytes a block.
func TestOpenHeapPerBlock(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("big-endian host: every parse copies")
	}
	path, _ := fileOf(t, pagedIndex(t))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ix, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	blocks := 0
	for _, term := range ix.Terms() {
		pl, _ := ix.Lookup(term)
		blocks += pl.EF.NumBlocks()
	}
	if blocks < 10_000 {
		t.Fatalf("fixture has %d blocks, want >= 10 000", blocks)
	}
	perBlock := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(blocks)
	t.Logf("%d blocks: %.1f B of heap a block", blocks, perBlock)
	if perBlock > 4 {
		t.Errorf("Open left %.1f B of heap per block, want <= 4", perBlock)
	}
	runtime.KeepAlive(ix)
}
