//go:build linux || darwin

package ef_test

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"griffin/internal/ef"
	"griffin/internal/index"
	"griffin/internal/workload"
)

// The tests below hold the lifetime of the regions a shard split copies
// its lists' words into: a region is unmapped once nothing can reach a
// page in it, and not before. They count regions process-wide, so none of
// them runs in parallel.

func regionCorpus(t *testing.T, seed int64) *index.Index {
	t.Helper()
	c, err := workload.GenerateCorpus(workload.CorpusSpec{
		NumDocs: 200_000, NumTerms: 20, MaxListLen: 60_000, MinListLen: 500,
		Alpha: 0.9, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c.Index
}

// liveAfterGC collects until the live region count reaches want, or ten
// seconds pass, and returns it: a collection queues the finalizers of the
// regions it finds unreachable, and they run on their own goroutine.
func liveAfterGC(want int64) int64 {
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := ef.LiveRegions()
		if n == want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// regionsOf returns the distinct regions the pages reachable from v lie
// in, walking unexported fields (the frequency tables') through reflect.
func regionsOf(v any) map[uintptr]bool {
	seen := map[uintptr]bool{}
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			if f := v.FieldByName("region"); f.IsValid() && f.Kind() == reflect.Pointer {
				if !f.IsNil() {
					seen[f.Pointer()] = true
				}
				return
			}
			for i := range v.NumField() {
				walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			if k := v.Type().Elem().Kind(); k == reflect.Pointer || k == reflect.Struct || k == reflect.Slice {
				for i := range v.Len() {
					walk(v.Index(i))
				}
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Value())
			}
		}
	}
	walk(reflect.ValueOf(v))
	return seen
}

func TestDroppedShardsUnmapTheirRegions(t *testing.T) {
	ix := regionCorpus(t, 31)
	if n := liveAfterGC(0); n != 0 {
		t.Fatalf("%d regions mapped before the split", n)
	}
	shards, err := workload.PartitionIndex(ix, 4)
	if err != nil {
		t.Fatal(err)
	}
	mapped := ef.LiveRegions()
	if mapped == 0 {
		t.Fatal("the split mapped no region")
	}
	if got := len(regionsOf(shards)); int64(got) != mapped {
		t.Errorf("the shards' pages lie in %d regions, %d are mapped", got, mapped)
	}
	runtime.KeepAlive(shards)
	if n := liveAfterGC(0); n != 0 {
		t.Errorf("%d of %d regions still mapped once the shards were dropped", n, mapped)
	}
}

// The pacer sizes the heap goal by the heap alone, and a split leaves
// little on the heap: with no collection of its own, a loop of splits
// would map region after region. Here the heap-paced collector is off
// altogether, so every collection is one the arena forced.
func TestRepeatedSplitsKeepRegionsBounded(t *testing.T) {
	ix := regionCorpus(t, 32)
	liveAfterGC(0)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const splits = 50
	bound := int64(2*ef.RegionsPerForcedGC + 4)
	var peak int64
	for range splits {
		shards, err := workload.PartitionIndex(ix, 2)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(shards)
		peak = max(peak, ef.LiveRegions())
	}
	t.Logf("%d splits: at most %d regions mapped at once", splits, peak)
	if peak > bound {
		t.Errorf("%d splits, each dropped before the next: %d regions mapped at once, want <= %d", splits, peak, bound)
	}
	if n := liveAfterGC(0); n != 0 {
		t.Errorf("%d regions still mapped after every split was dropped", n)
	}
}

// A list spliced from a shard's shares the shard's whole pages below the
// splice point and, spliced with no tail or near the end of the page the
// point falls in, the words of that page before the point: it keeps
// their regions mapped once the shard is gone, and owns the tail's words
// on the heap. Spliced with a tail far back in a page, it copies that
// page's words to the heap rather than keep its dead rest mapped, and
// holds no region. Reading each successor back after the collections
// that unmapped every region it does not reach faults if one was
// unmapped under it.
func TestSplicedSuccessorOutlivesItsShard(t *testing.T) {
	ix := regionCorpus(t, 33)
	for _, tc := range []struct {
		k, tail int // -1: half the list's blocks
		keeps   bool
	}{
		{5, 0, true},
		{5, 300, false},
		{1<<ef.PageShift - 1, 300, true},
		{1 << ef.PageShift, 0, true},
		{1<<ef.PageShift + 5, 300, true},
		{-1, 0, true},
	} {
		if n := liveAfterGC(0); n != 0 {
			t.Fatalf("%d regions mapped before the split", n)
		}
		shards, err := workload.PartitionIndex(ix, 2)
		if err != nil {
			t.Fatal(err)
		}
		pl, _ := shards[0].Lookup(workload.TermName(0))
		if pl.EF.NumBlocks() < 2<<ef.PageShift {
			t.Fatalf("the longest shard list has %d blocks, want two pages", pl.EF.NumBlocks())
		}
		k := tc.k
		if k < 0 {
			k = pl.EF.NumBlocks() / 2
		}
		ids, freqs := pl.DecodeFrom(0)
		ids, freqs = ids[:k*ef.BlockSize], freqs[:k*ef.BlockSize]
		tids, tfreqs := make([]uint32, tc.tail), make([]uint32, tc.tail)
		for i := range tids {
			tids[i], tfreqs[i] = ids[len(ids)-1]+uint32(1+i), uint32(1+i%7)
		}
		next, err := index.SpliceList(pl.Term, pl, k, tids, tfreqs)
		if err != nil {
			t.Fatal(err)
		}
		kept := int64(len(regionsOf(next)))
		if (kept > 0) != tc.keeps {
			t.Errorf("k=%d tail=%d: the successor reaches %d regions, want some: %v", k, tc.tail, kept, tc.keeps)
		}
		runtime.KeepAlive(shards) // the last use: the shards are garbage from here
		if n := liveAfterGC(kept); n != kept {
			t.Fatalf("k=%d tail=%d: %d regions mapped once the shards were dropped, the successor reaches %d", k, tc.tail, n, kept)
		}
		runtime.GC() // a second collection: the finalized regions' objects are freed
		gotIDs, gotFreqs := next.DecodeFrom(0)
		if !slices.Equal(gotIDs, slices.Concat(ids, tids)) || !slices.Equal(gotFreqs, slices.Concat(freqs, tfreqs)) {
			t.Fatalf("k=%d tail=%d: the successor no longer reads back its postings", k, tc.tail)
		}
	}
}
