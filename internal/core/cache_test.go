package core

import (
	"fmt"
	"sync"
	"testing"

	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/workload"
)

func newCacheDevice() *gpu.Device {
	return gpu.New(hwmodel.DefaultGPU(), 0)
}

func allocBuf(t *testing.T, dev *gpu.Device, bytes int64) *gpu.Buffer {
	t.Helper()
	b, err := dev.NewStream().Alloc(bytes)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestListCacheHitAndMiss(t *testing.T) {
	dev := newCacheDevice()
	c := newListCache(1 << 20)
	b1 := allocBuf(t, dev, 100)
	rel, ok := c.put("a", b1)
	if !ok {
		t.Fatal("put failed")
	}
	rel()
	got, rel2, ok := c.get("a")
	if !ok || got != b1 {
		t.Fatal("get after put failed")
	}
	rel2()
	if _, _, ok := c.get("b"); ok {
		t.Fatal("hit on absent key")
	}
	if c.len() != 1 {
		t.Fatalf("len = %d", c.len())
	}
}

func TestListCacheDuplicatePutRejected(t *testing.T) {
	dev := newCacheDevice()
	c := newListCache(1 << 20)
	b1 := allocBuf(t, dev, 100)
	b2 := allocBuf(t, dev, 100)
	rel, ok := c.put("a", b1)
	if !ok {
		t.Fatal("first put failed")
	}
	rel()
	if _, ok := c.put("a", b2); ok {
		t.Fatal("duplicate put accepted")
	}
	// Caller keeps ownership of the rejected buffer.
	b2.Free()
	got, rel2, _ := c.get("a")
	if got != b1 {
		t.Fatal("duplicate put replaced entry")
	}
	rel2()
}

func TestListCacheLRUEviction(t *testing.T) {
	dev := newCacheDevice()
	c := newListCache(300)
	for _, k := range []string{"a", "b", "c"} {
		rel, ok := c.put(k, allocBuf(t, dev, 100))
		if !ok {
			t.Fatalf("put %q failed", k)
		}
		rel()
	}
	// Touch "a" so "b" is the LRU victim.
	if _, rel, ok := c.get("a"); ok {
		rel()
	} else {
		t.Fatal("get a failed")
	}
	rel, ok := c.put("d", allocBuf(t, dev, 100))
	if !ok {
		t.Fatal("put d failed")
	}
	rel()
	if _, _, ok := c.get("b"); ok {
		t.Fatal("LRU victim survived")
	}
	for _, k := range []string{"a", "c", "d"} {
		_, rel, ok := c.get(k)
		if !ok {
			t.Fatalf("%q evicted unexpectedly", k)
		}
		rel()
	}
	// The evicted unreferenced buffer must have been freed: 3 live cached
	// buffers remain.
	if got := dev.Allocated(); got != 300 {
		t.Fatalf("device allocated %d, want 300", got)
	}
}

func TestListCacheEvictionDefersFreeWhileReferenced(t *testing.T) {
	dev := newCacheDevice()
	c := newListCache(100)
	b1 := allocBuf(t, dev, 100)
	rel1, ok := c.put("a", b1)
	if !ok {
		t.Fatal("put failed")
	}
	// rel1 not called yet: "a" is referenced. Inserting "b" evicts "a",
	// but its buffer must survive until release.
	rel2, ok := c.put("b", allocBuf(t, dev, 100))
	if !ok {
		t.Fatal("second put failed")
	}
	rel2()
	if b1.Data == nil && dev.Allocated() != 200 {
		t.Fatal("referenced victim freed early")
	}
	if got := dev.Allocated(); got != 200 {
		t.Fatalf("allocated %d before release, want 200", got)
	}
	rel1()
	if got := dev.Allocated(); got != 100 {
		t.Fatalf("allocated %d after release, want 100", got)
	}
}

func TestListCacheRejectsOversized(t *testing.T) {
	dev := newCacheDevice()
	c := newListCache(50)
	b := allocBuf(t, dev, 100)
	if _, ok := c.put("big", b); ok {
		t.Fatal("oversized entry accepted")
	}
	if c.len() != 0 {
		t.Fatal("oversized entry stored")
	}
}

func TestListCacheDrop(t *testing.T) {
	dev := newCacheDevice()
	c := newListCache(1 << 20)
	for i := 0; i < 5; i++ {
		rel, ok := c.put(fmt.Sprintf("t%d", i), allocBuf(t, dev, 64))
		if !ok {
			t.Fatal("put failed")
		}
		rel()
	}
	c.drop()
	if c.len() != 0 || c.used != 0 {
		t.Fatalf("drop left %d entries, %d bytes", c.len(), c.used)
	}
	if dev.Allocated() != 0 {
		t.Fatalf("drop leaked %d device bytes", dev.Allocated())
	}
}

func TestEngineCacheReducesRepeatLatency(t *testing.T) {
	// A repeated query must get cheaper once its lists are resident: the
	// second run skips the PCIe uploads.
	c, err := workload.GenerateCorpus(workload.CorpusSpec{
		NumDocs:    2_000_000,
		NumTerms:   20,
		MaxListLen: 500_000,
		MinListLen: 50_000,
		Alpha:      0.7,
		Seed:       31,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := newCacheDevice()
	e, err := New(c.Index, Config{Mode: GPUOnly, Device: dev, CacheLists: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	q := []string{c.Terms[0], c.Terms[1]}
	first, err := e.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	second, err := e.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	if e.CachedLists() == 0 {
		t.Fatal("nothing cached")
	}
	if second.Stats.Latency >= first.Stats.Latency {
		t.Fatalf("warm query (%v) not faster than cold (%v)",
			second.Stats.Latency, first.Stats.Latency)
	}
	// Results identical either way.
	if first.Stats.Candidates != second.Stats.Candidates {
		t.Fatal("cache changed results")
	}
	// Close releases the cached device memory.
	e.Close()
	if dev.Allocated() != 0 {
		t.Fatalf("engine leaked %d device bytes after Close", dev.Allocated())
	}
}

func TestEngineCacheCorrectnessUnderEviction(t *testing.T) {
	// A cache smaller than the working set forces constant eviction;
	// results must stay identical to the uncached engine.
	c, err := workload.GenerateCorpus(workload.CorpusSpec{
		NumDocs:    500_000,
		NumTerms:   30,
		MaxListLen: 100_000,
		MinListLen: 10_000,
		Alpha:      0.6,
		Seed:       32,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := newCacheDevice()
	cached, err := New(c.Index, Config{
		Mode: GPUOnly, Device: dev, CacheLists: true, CacheBytes: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	plain, err := New(c.Index, Config{Mode: GPUOnly, Device: dev})
	if err != nil {
		t.Fatal(err)
	}

	queries := workload.GenerateQueryLog(c, workload.QuerySpec{
		NumQueries: 30, PopularityAlpha: 0.7, Seed: 33,
	})
	for qi, q := range queries {
		r1, err := cached.Search(q.Terms)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := plain.Search(q.Terms)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Stats.Candidates != r2.Stats.Candidates {
			t.Fatalf("query %d: cached %d vs plain %d candidates",
				qi, r1.Stats.Candidates, r2.Stats.Candidates)
		}
	}
}

func TestEngineConcurrentSearches(t *testing.T) {
	// Engines accept concurrent Search calls; run a mixed load across all
	// modes on a shared device with the cache enabled and verify results
	// stay consistent (run with -race in CI).
	c, err := workload.GenerateCorpus(workload.CorpusSpec{
		NumDocs:    500_000,
		NumTerms:   30,
		MaxListLen: 100_000,
		MinListLen: 10_000,
		Alpha:      0.6,
		Seed:       34,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := newCacheDevice()
	e, err := New(c.Index, Config{
		Mode: Hybrid, Device: dev, CacheLists: true, CacheBytes: 1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	ref, err := New(c.Index, Config{Mode: CPUOnly})
	if err != nil {
		t.Fatal(err)
	}

	queries := workload.GenerateQueryLog(c, workload.QuerySpec{
		NumQueries: 24, PopularityAlpha: 0.7, Seed: 35,
	})
	want := make([]int, len(queries))
	for i, q := range queries {
		r, err := ref.Search(q.Terms)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r.Stats.Candidates
	}

	var wg sync.WaitGroup
	errs := make([]error, len(queries))
	for round := 0; round < 3; round++ {
		for i, q := range queries {
			wg.Add(1)
			go func(i int, terms []string) {
				defer wg.Done()
				r, err := e.Search(terms)
				if err != nil {
					errs[i] = err
					return
				}
				if r.Stats.Candidates != want[i] {
					errs[i] = fmt.Errorf("query %d: got %d candidates, want %d",
						i, r.Stats.Candidates, want[i])
				}
			}(i, q.Terms)
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestListCacheCounters(t *testing.T) {
	dev := newCacheDevice()
	c := newListCache(200)
	if _, _, ok := c.get("a"); ok {
		t.Fatal("hit on empty cache")
	}
	rel, _ := c.put("a", allocBuf(t, dev, 100))
	rel()
	if _, rel, ok := c.get("a"); ok {
		rel()
	} else {
		t.Fatal("get a failed")
	}
	// Two more puts overflow capacity: one eviction.
	rel, _ = c.put("b", allocBuf(t, dev, 100))
	rel()
	rel, _ = c.put("c", allocBuf(t, dev, 100))
	rel()
	st := c.stats()
	if st.Hits != 1 || st.Misses != 1 || st.Evictions != 1 {
		t.Fatalf("counters hits/misses/evictions = %d/%d/%d, want 1/1/1",
			st.Hits, st.Misses, st.Evictions)
	}
	if st.Lists != 2 || st.Bytes != 200 {
		t.Fatalf("residency = %d lists / %d bytes, want 2/200", st.Lists, st.Bytes)
	}
}

func TestEngineCacheStatsSurface(t *testing.T) {
	c, err := workload.GenerateCorpus(workload.CorpusSpec{
		NumDocs:    500_000,
		NumTerms:   20,
		MaxListLen: 100_000,
		MinListLen: 10_000,
		Alpha:      0.7,
		Seed:       31,
	})
	if err != nil {
		t.Fatal(err)
	}
	dev := newCacheDevice()
	e, err := New(c.Index, Config{Mode: Hybrid, Device: dev, CacheLists: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	q := []string{workload.TermName(2), workload.TermName(5)}
	for i := 0; i < 2; i++ {
		if _, err := e.Search(q); err != nil {
			t.Fatal(err)
		}
	}
	st := e.CacheStats()
	if st.Lists == 0 || st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("expected populated counters after repeat query, got %+v", st)
	}
	cpu, err := New(c.Index, Config{Mode: CPUOnly})
	if err != nil {
		t.Fatal(err)
	}
	defer cpu.Close()
	if got := cpu.CacheStats(); got != (CacheStats{}) {
		t.Fatalf("cacheless engine reported %+v", got)
	}
}

// TestListCacheEvictWhileReferencedRace hammers the dead-entry
// free-on-last-release path from many goroutines (run under -race in CI):
// a capacity-1-entry cache guarantees every put evicts the previous
// entry, usually while other goroutines still hold references to it, so
// victims constantly transit the dead state and must be freed exactly
// once, on the last release.
func TestListCacheEvictWhileReferencedRace(t *testing.T) {
	dev := newCacheDevice()
	c := newListCache(100) // one 100-byte entry fits: every put evicts
	keys := []string{"a", "b", "c", "d"}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := keys[(g+i)%len(keys)]
				if buf, rel, ok := c.get(k); ok {
					if buf.Bytes != 100 {
						t.Errorf("corrupt buffer for %q: %d bytes", k, buf.Bytes)
					}
					rel()
					continue
				}
				b, err := dev.NewStream().Alloc(100)
				if err != nil {
					t.Error(err)
					return
				}
				if rel, ok := c.put(k, b); ok {
					rel()
				} else {
					b.Free()
				}
			}
		}(g)
	}
	wg.Wait()

	// Quiesced: exactly the resident entries' bytes remain allocated —
	// every dead victim was freed on its last release, none twice (a
	// double free would corrupt the device's allocation accounting).
	st := c.stats()
	if got := dev.Allocated(); got != st.Bytes {
		t.Fatalf("device allocated %d bytes, cache holds %d: leaked or double-freed victims", got, st.Bytes)
	}
	c.drop()
	if got := dev.Allocated(); got != 0 {
		t.Fatalf("device allocated %d bytes after drop, want 0", got)
	}
}
