package core

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"griffin/internal/gpu"
	"griffin/internal/workload"
)

// batchResult is one query of a searchBatch call and its outcome.
type batchResult struct {
	Terms  []string
	Result *Result
	Err    error
}

// searchBatch runs the queries concurrently on at most workers goroutines
// and returns their outcomes in submission order: the engine is safe for
// concurrent Search calls, which is what the tests below check.
func searchBatch(e *Engine, queries [][]string, workers int) []batchResult {
	out := make([]batchResult, len(queries))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			res, err := e.Search(q)
			out[i] = batchResult{Terms: q, Result: res, Err: err}
			<-sem
		}()
	}
	wg.Wait()
	return out
}

func TestSearchBatchMatchesSequential(t *testing.T) {
	c := testCorpus(t)
	_, _, hybE := newEngines(t, c)
	queries := workload.GenerateQueryLog(c, workload.QuerySpec{
		NumQueries: 30, PopularityAlpha: 0.6, Seed: 18,
	})
	batch := make([][]string, len(queries))
	for i, q := range queries {
		batch[i] = q.Terms
	}
	results := searchBatch(hybE, batch, 8)
	if len(results) != len(queries) {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("query %d: %v", i, r.Err)
		}
		if !reflect.DeepEqual(r.Terms, queries[i].Terms) {
			t.Fatalf("query %d: order lost", i)
		}
		seq, err := hybE.Search(queries[i].Terms)
		if err != nil {
			t.Fatal(err)
		}
		if r.Result.Stats.Candidates != seq.Stats.Candidates {
			t.Fatalf("query %d: batch %d candidates vs sequential %d",
				i, r.Result.Stats.Candidates, seq.Stats.Candidates)
		}
		if !reflect.DeepEqual(docIDsOf(r.Result), docIDsOf(seq)) {
			t.Fatalf("query %d: batch top-k differs from sequential", i)
		}
	}
}

// Mid-batch failures stay per-query: a query that dies on the device
// reports its own error, while every other query running beside it
// completes normally.
func TestSearchBatchErrorIsolationAndOrder(t *testing.T) {
	c, err := workload.GenerateCorpus(workload.CorpusSpec{
		NumDocs:    500_000,
		NumTerms:   10,
		MaxListLen: 200_000,
		MinListLen: 100_000,
		Alpha:      0.3,
		Seed:       64,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 64 KB device: any query that reaches the device OOMs. Queries with
	// a missing term short-circuit before device work and succeed.
	e, err := New(c.Index, Config{Mode: GPUOnly, Device: tinyDevice(64 << 10)})
	if err != nil {
		t.Fatal(err)
	}
	batch := make([][]string, 0, 20)
	for i := 0; i < 10; i++ {
		batch = append(batch,
			[]string{c.Terms[i%len(c.Terms)], c.Terms[(i+1)%len(c.Terms)]}, // OOMs
			[]string{c.Terms[i%len(c.Terms)], "no-such-term"})              // succeeds, empty
	}
	results := searchBatch(e, batch, 6)
	if len(results) != len(batch) {
		t.Fatalf("got %d results for %d queries", len(results), len(batch))
	}
	for i, r := range results {
		if !reflect.DeepEqual(r.Terms, batch[i]) {
			t.Fatalf("slot %d holds terms %v, want %v (submission order lost)", i, r.Terms, batch[i])
		}
		if i%2 == 0 {
			if !errors.Is(r.Err, gpu.ErrOutOfMemory) {
				t.Fatalf("slot %d: err = %v, want ErrOutOfMemory", i, r.Err)
			}
			if r.Result != nil {
				t.Fatalf("slot %d: failed query carries a result", i)
			}
		} else {
			if r.Err != nil {
				t.Fatalf("slot %d: healthy query failed: %v (neighbour's error leaked)", i, r.Err)
			}
			if r.Result == nil || len(r.Result.Docs) != 0 {
				t.Fatalf("slot %d: missing-term query result wrong: %+v", i, r.Result)
			}
		}
	}
}
