//go:build linux

package workload

import (
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"

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

// TestPartitionIndexHeapPerBlock: a shard keeps nothing on the heap per
// block. Its lists are views of the source's page tables, so what it
// keeps is a few headers a term, whatever the lists' lengths.
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
	t.Logf("%d blocks: %.3f B of heap a block", blocks, perBlock)
	if perBlock > 0.25 {
		t.Errorf("PartitionIndex left %.3f B of heap per block, want <= 0.25", perBlock)
	}
	runtime.KeepAlive(shards)
	runtime.KeepAlive(ix)
}

// The shards of an opened index are views of its read-only mapping: a
// stray store through a shard list's rows or words faults, as it does on
// the index itself, instead of corrupting a list silently.
func TestShardWordsAreReadOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "index.grif")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := partitionTestCorpus(t).Index.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	ix, err := index.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := PartitionIndex(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	pl, _ := shards[1].Lookup(TermName(0))
	r, pg := pl.EF.Row(0)
	defer debug.SetPanicOnFault(debug.SetPanicOnFault(true))
	faults := func(store func()) (faulted bool) {
		defer func() { faulted = recover() != nil }()
		store()
		return false
	}
	if !faults(func() { pg.Words[r.Off] ^= 1 }) {
		t.Error("a store through a shard page's words went through")
	}
	if !faults(func() { r.FirstDocID ^= 1 }) {
		t.Error("a store through a shard page's row went through")
	}
	runtime.KeepAlive(shards)
}
