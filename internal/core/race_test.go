package core

import (
	"sync"
	"testing"

	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/workload"
)

// Stress the concurrent-search path that shares the most mutable state:
// one device, one engine per mode with the list cache enabled, 8
// goroutines each running a concurrent batch so cache get/put/evict, the device
// allocator, and per-query streams all interleave. Run under -race this
// is the synchronization check for the whole upload path; the cache is
// deliberately small so eviction (including evict-while-referenced) is
// exercised, not just hits.
func TestSearchBatchRaceStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	c := testCorpus(t)
	queries := workload.GenerateQueryLog(c, workload.QuerySpec{
		NumQueries: 64, PopularityAlpha: 0.9, Seed: 11,
	})
	qs := make([][]string, len(queries))
	for i, q := range queries {
		qs[i] = q.Terms
	}

	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	for _, m := range []Mode{GPUOnly, Hybrid, PerQueryHybrid} {
		e, err := New(c.Index, Config{
			Mode:       m,
			Device:     dev,
			CacheLists: true,
			// Small enough that hot lists evict each other under load.
			CacheBytes: 512 << 10,
		})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, br := range searchBatch(e, qs, 4) {
					if br.Err != nil {
						t.Errorf("%v: query %v: %v", m, br.Terms, br.Err)
						return
					}
					if br.Result == nil || br.Result.Docs == nil {
						t.Errorf("%v: query %v: malformed result", m, br.Terms)
						return
					}
				}
			}()
		}
		wg.Wait()
		e.Close()
	}
	if got := dev.Allocated(); got != 0 {
		t.Fatalf("device memory leaked: %d bytes still allocated", got)
	}
}
