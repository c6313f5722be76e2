package cluster

import (
	"context"
	"sync"
	"testing"
	"time"

	"griffin/internal/core"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/workload"
)

func TestClusterLatencyIsMaxShardPlusMerge(t *testing.T) {
	c := parityCorpus(t)
	queries := parityQueries(c, 40)
	cl := buildCluster(t, c, 4, Config{Engine: core.Config{Mode: core.Hybrid}, TopK: 10})
	defer cl.Close()

	for i, q := range queries {
		r, err := cl.Search(context.Background(), q.Terms)
		if err != nil {
			t.Fatal(err)
		}
		var max time.Duration
		for _, ss := range r.Stats.Shards {
			if ss.Err != "" || ss.TimedOut {
				t.Fatalf("query %d: unexpected degradation %+v", i, ss)
			}
			if ss.Query.Latency > max {
				max = ss.Query.Latency
			}
		}
		if r.Stats.MaxShard != max {
			t.Fatalf("query %d: MaxShard %v != max shard latency %v", i, r.Stats.MaxShard, max)
		}
		if r.Stats.Latency != r.Stats.MaxShard+r.Stats.MergeTime {
			t.Fatalf("query %d: Latency %v != MaxShard %v + MergeTime %v",
				i, r.Stats.Latency, r.Stats.MaxShard, r.Stats.MergeTime)
		}
		if len(r.Docs) > 0 && r.Stats.MergeTime <= 0 {
			t.Fatalf("query %d: merged %d docs for free", i, len(r.Docs))
		}
	}
}

func TestClusterTimeoutDegradesGracefully(t *testing.T) {
	c := parityCorpus(t)
	queries := parityQueries(c, 30)
	probe := buildCluster(t, c, 2, Config{Engine: core.Config{Mode: core.CPUOnly}, TopK: 10})
	defer probe.Close()

	// Find a query whose two shards land measurably apart, then set the
	// timeout between them: exactly the slow shard must go missing.
	for _, q := range queries {
		r, err := probe.Search(context.Background(), q.Terms)
		if err != nil {
			t.Fatal(err)
		}
		l0 := r.Stats.Shards[0].Query.Latency
		l1 := r.Stats.Shards[1].Query.Latency
		slow, fast := 0, 1
		if l1 > l0 {
			slow, fast = 1, 0
		}
		lo, hi := r.Stats.Shards[fast].Query.Latency, r.Stats.Shards[slow].Query.Latency
		if hi-lo < 4 {
			continue
		}
		cut := lo + (hi-lo)/2

		cl := buildCluster(t, c, 2, Config{
			Engine: core.Config{Mode: core.CPUOnly}, TopK: 10, ShardTimeout: cut,
		})
		defer cl.Close()
		dr, err := cl.Search(context.Background(), q.Terms)
		if err != nil {
			t.Fatal(err)
		}
		if !dr.Stats.Degraded {
			t.Fatalf("query %v: expected degraded result at timeout %v (shards %v/%v)", q.Terms, cut, lo, hi)
		}
		if len(dr.Stats.Missing) != 1 || dr.Stats.Missing[0] != slow {
			t.Fatalf("query %v: Missing = %v, want [%d]", q.Terms, dr.Stats.Missing, slow)
		}
		if !dr.Stats.Shards[slow].TimedOut {
			t.Fatalf("query %v: slow shard not marked TimedOut", q.Terms)
		}
		// The gather waited out the budget: the critical path charges it.
		if dr.Stats.MaxShard != cut {
			t.Fatalf("query %v: MaxShard %v, want the timeout %v", q.Terms, dr.Stats.MaxShard, cut)
		}
		// Partial results come only from the surviving shard.
		surviving := map[uint32]bool{}
		for _, d := range dr.Docs {
			surviving[d.DocID] = true
		}
		w := index.ShardWindow(fast, 2, c.Index.NumDocs)
		for d := range surviving {
			if uint64(d) < w.Lo || uint64(d) >= w.Hi {
				t.Fatalf("query %v: degraded result contains doc %d from the dropped shard", q.Terms, d)
			}
		}
		return
	}
	t.Skip("no query with sufficiently uneven shard latencies")
}

func TestClusterAllShardsTimedOutReturnsEmptyDegraded(t *testing.T) {
	c := parityCorpus(t)
	cl := buildCluster(t, c, 2, Config{
		Engine: core.Config{Mode: core.CPUOnly}, TopK: 10, ShardTimeout: time.Nanosecond,
	})
	defer cl.Close()
	r, err := cl.Search(context.Background(), []string{workload.TermName(3), workload.TermName(9)})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Stats.Degraded || len(r.Stats.Missing) != 2 {
		t.Fatalf("want fully degraded result, got %+v", r.Stats)
	}
	if r.Docs == nil || len(r.Docs) != 0 {
		t.Fatalf("want empty non-nil docs, got %v", r.Docs)
	}
	if r.Stats.MaxShard != time.Nanosecond {
		t.Fatalf("MaxShard %v, want the timeout", r.Stats.MaxShard)
	}
}

func TestClusterAllShardsFailedReturnsError(t *testing.T) {
	c := parityCorpus(t)
	ixs, err := workload.PartitionCorpus(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A device too small to hold any list makes every GPU upload fail:
	// with all shards erroring the query itself errors.
	model := hwmodel.DefaultGPU()
	model.MemoryBytes = 16
	cl, err := New(ixs, Config{
		Engine: core.Config{Mode: core.GPUOnly, Device: gpu.New(model, 0)}, TopK: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if _, err := cl.Search(context.Background(), []string{workload.TermName(3), workload.TermName(9)}); err == nil {
		t.Fatal("expected error when every shard fails")
	}
}

func TestRoundRobinSpreadsReplicas(t *testing.T) {
	c := parityCorpus(t)
	cl := buildCluster(t, c, 2, Config{
		Engine: core.Config{Mode: core.CPUOnly}, TopK: 10,
		Replicas: 2, Routing: RoundRobin,
	})
	defer cl.Close()
	q := []string{workload.TermName(3), workload.TermName(9)}
	for i := 0; i < 6; i++ {
		if _, err := cl.Search(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	for _, tel := range cl.Telemetry() {
		if tel.Queries != 3 {
			t.Fatalf("shard %d replica %d served %d queries, want 3 (round-robin)",
				tel.Shard, tel.Replica, tel.Queries)
		}
	}
}

func TestLeastPendingPrefersIdleReplica(t *testing.T) {
	c := parityCorpus(t)
	cl := buildCluster(t, c, 1, Config{
		Engine: core.Config{Mode: core.Hybrid}, TopK: 10,
		Replicas: 3, Routing: LeastPending,
	})
	defer cl.Close()
	q := []string{workload.TermName(3), workload.TermName(9)}
	// Sequential queries always find every device idle (zero backlog,
	// zero in-flight), so the deterministic tie-break keeps routing to
	// replica 0 — the property that matters is it never queues behind a
	// busy replica when an idle one exists.
	for i := 0; i < 4; i++ {
		if _, err := cl.Search(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	tel := cl.Telemetry()
	if tel[0].Queries != 4 {
		t.Fatalf("replica 0 served %d, want all 4 under idle ties", tel[0].Queries)
	}
	if tel[1].Queries != 0 || tel[2].Queries != 0 {
		t.Fatalf("idle-tie routing leaked to replicas 1/2: %d/%d", tel[1].Queries, tel[2].Queries)
	}
}

func TestClusterUnknownTermsWellFormed(t *testing.T) {
	c := parityCorpus(t)
	cl := buildCluster(t, c, 3, Config{Engine: core.Config{Mode: core.Hybrid}, TopK: 10})
	defer cl.Close()
	r, err := cl.Search(context.Background(), []string{"definitely-not-indexed"})
	if err != nil {
		t.Fatal(err)
	}
	if r.Docs == nil || len(r.Docs) != 0 {
		t.Fatalf("want empty non-nil docs, got %v", r.Docs)
	}
	if r.Stats.Degraded {
		t.Fatal("empty conjunction must not degrade")
	}
	if len(r.Stats.Shards) != 3 {
		t.Fatalf("want 3 shard records, got %d", len(r.Stats.Shards))
	}
}

func TestClusterTelemetryShape(t *testing.T) {
	c := parityCorpus(t)
	cl := buildCluster(t, c, 2, Config{
		Engine:   core.Config{Mode: core.Hybrid, CacheLists: true},
		TopK:     10,
		Replicas: 2,
	})
	defer cl.Close()
	q := []string{workload.TermName(3), workload.TermName(9)}
	if _, err := cl.Search(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	tel := cl.Telemetry()
	if len(tel) != 4 {
		t.Fatalf("want 2 shards x 2 replicas = 4 telemetry rows, got %d", len(tel))
	}
	var admitted int64
	for _, row := range tel {
		if row.Device == nil {
			t.Fatalf("shard %d replica %d: hybrid replica missing device stats", row.Shard, row.Replica)
		}
		admitted += row.Device.Admitted
	}
	if admitted == 0 {
		t.Fatal("no replica admitted any device work")
	}
}

// TestClusterConcurrentSearchRace drives overlapping scatter-gather
// queries from many goroutines (run under -race in CI): routing counters,
// per-replica runtimes, and merge must all be safe under concurrency.
func TestClusterConcurrentSearchRace(t *testing.T) {
	c := parityCorpus(t)
	queries := parityQueries(c, 24)
	cl := buildCluster(t, c, 4, Config{
		Engine:   core.Config{Mode: core.Hybrid, CacheLists: true},
		TopK:     10,
		Replicas: 2,
		Routing:  LeastPending,
	})
	defer cl.Close()

	var wg sync.WaitGroup
	errs := make(chan error, len(queries))
	for _, q := range queries {
		wg.Add(1)
		go func(terms []string) {
			defer wg.Done()
			if _, err := cl.Search(context.Background(), terms); err != nil {
				errs <- err
			}
		}(q.Terms)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
