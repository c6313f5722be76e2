package loadsim

import (
	"context"
	"testing"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/fault"
	"griffin/internal/workload"
)

// clusterFixture builds a corpus, a query log, and a cluster constructor
// (each call partitions the corpus fresh and builds dedicated replicas).
func clusterFixture(t testing.TB) ([][]string, func(shards int, timeout time.Duration) *cluster.Cluster) {
	t.Helper()
	c, err := workload.GenerateCorpus(workload.CorpusSpec{
		NumDocs:    200_000,
		NumTerms:   50,
		MaxListLen: 60_000,
		MinListLen: 200,
		Alpha:      1.0,
		Seed:       21,
	})
	if err != nil {
		t.Fatal(err)
	}
	log := workload.GenerateQueryLog(c, workload.QuerySpec{
		NumQueries: 120, PopularityAlpha: 0.6, Seed: 22,
	})
	queries := make([][]string, len(log))
	for i, q := range log {
		queries[i] = q.Terms
	}
	mk := func(shards int, timeout time.Duration) *cluster.Cluster {
		ixs, err := workload.PartitionCorpus(c, shards)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(ixs, cluster.Config{
			Engine:       core.Config{Mode: core.Hybrid},
			TopK:         10,
			ShardTimeout: timeout,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		return cl
	}
	return queries, mk
}

// At light load the driven cluster reproduces isolated cluster latencies
// (no queueing), and every recorded sojourn obeys the critical-path
// decomposition Latency = MaxShard + Merge.
func TestRunClusterLightLoadMatchesIsolated(t *testing.T) {
	queries, mk := clusterFixture(t)
	queries = queries[:40]

	ref := mk(4, 0)
	want := make(map[time.Duration]bool, len(queries))
	for _, q := range queries {
		r, err := ref.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		want[r.Stats.Latency] = true
	}

	cl := mk(4, 0)
	res, err := Drive(ClusterTarget(cl), queries, Spec{ArrivalRate: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latencies.Count() != len(queries) {
		t.Fatalf("recorded %d latencies, want %d", res.Latencies.Count(), len(queries))
	}
	if res.Interactive.Degraded != 0 {
		t.Fatalf("light load degraded %d queries", res.Interactive.Degraded)
	}
	for _, p := range []float64{1, 50, 99, 100} {
		if got := res.Latencies.Percentile(p); !want[got] {
			t.Fatalf("P%v latency %v not among isolated cluster latencies", p, got)
		}
	}
	if res.MaxShardMean <= 0 || res.MergeMean <= 0 {
		t.Fatalf("latency decomposition empty: maxshard %v merge %v", res.MaxShardMean, res.MergeMean)
	}
	// Means decompose like the per-query identity they average.
	if diff := res.Latencies.Mean() - (res.MaxShardMean + res.MergeMean); diff < -time.Microsecond || diff > time.Microsecond {
		t.Fatalf("mean %v != maxshard %v + merge %v", res.Latencies.Mean(), res.MaxShardMean, res.MergeMean)
	}
	if res.GPUBusy <= 0 || res.GPUBusy > 1 {
		t.Fatalf("busiest-device utilization %v out of range", res.GPUBusy)
	}
}

// Overload accrues backlog on shard devices: sojourns grow past the
// light-load tail, demonstrating the shared-timeline contention survives
// the scatter-gather layer.
func TestRunClusterOverloadGrowsTail(t *testing.T) {
	queries, mk := clusterFixture(t)

	light, err := Drive(ClusterTarget(mk(2, 0)), queries[:30], Spec{ArrivalRate: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mean := light.Latencies.Mean()
	if mean <= 0 {
		t.Fatal("zero mean service time")
	}

	over, err := Drive(ClusterTarget(mk(2, 0)), queries, Spec{ArrivalRate: 3 / mean.Seconds(), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if over.Latencies.Percentile(99) <= light.Latencies.Percentile(99) {
		t.Fatalf("overloaded P99 %v not above light-load P99 %v",
			over.Latencies.Percentile(99), light.Latencies.Percentile(99))
	}
}

// Under overload with a shard timeout, slow shards degrade their queries
// instead of stretching the critical path past the budget + merge.
func TestRunClusterTimeoutCapsCriticalPath(t *testing.T) {
	queries, mk := clusterFixture(t)

	light, err := Drive(ClusterTarget(mk(2, 0)), queries[:30], Spec{ArrivalRate: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mean := light.Latencies.Mean()
	budget := light.Latencies.Percentile(50)

	res, err := Drive(ClusterTarget(mk(2, budget)), queries, Spec{ArrivalRate: 3 / mean.Seconds(), Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Interactive.Degraded == 0 {
		t.Fatal("overload with a median-latency budget degraded nothing")
	}
	// Every sojourn is bounded by the budget plus its merge; the max
	// merge cost is tiny relative to the budget, so P100 stays well under
	// twice the budget.
	if p100 := res.Latencies.Percentile(100); p100 > 2*budget {
		t.Fatalf("timeout did not cap the critical path: P100 %v, budget %v", p100, budget)
	}
}

func TestRunClusterDegenerate(t *testing.T) {
	_, mk := clusterFixture(t)
	cl := mk(2, 0)
	res, err := Drive(ClusterTarget(cl), nil, Spec{ArrivalRate: 10})
	if err != nil || res.Latencies.Count() != 0 {
		t.Fatalf("empty run: %v, %d latencies", err, res.Latencies.Count())
	}
	res, err = Drive(ClusterTarget(cl), [][]string{{"t000001"}}, Spec{})
	if err != nil || res.Latencies.Count() != 0 {
		t.Fatalf("zero rate: %v, %d latencies", err, res.Latencies.Count())
	}
}

// Chaos under load: behind a fault plan, all-shards-failed queries
// count as Failed instead of aborting the run, availability
// reflects both failures and degradations, and the self-healing
// counters accumulate across the run.
func TestRunClusterChaosAvailability(t *testing.T) {
	queries, _ := clusterFixture(t)
	queries = queries[:60]

	c, err := workload.GenerateCorpus(workload.CorpusSpec{
		NumDocs:    200_000,
		NumTerms:   50,
		MaxListLen: 60_000,
		MinListLen: 200,
		Alpha:      1.0,
		Seed:       21,
	})
	if err != nil {
		t.Fatal(err)
	}
	mkChaos := func(hardened bool) *cluster.Cluster {
		ixs, err := workload.PartitionCorpus(c, 2)
		if err != nil {
			t.Fatal(err)
		}
		cfg := cluster.Config{
			Engine:   core.Config{Mode: core.Hybrid},
			TopK:     10,
			Replicas: 2,
			Fault: fault.NewInjector(fault.Plan{Seed: 11, Rules: []fault.Rule{
				{Kind: fault.KernelLaunch, Rate: 0.2},
				{Kind: fault.EngineError, Rate: 0.2},
			}}),
		}
		if !hardened {
			cfg.Engine.NoCPUFallback = true
			cfg.Retries = -1
			cfg.Breaker = fault.BreakerConfig{Threshold: -1}
		}
		cl, err := cluster.New(ixs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cl.Close)
		return cl
	}

	hard, err := Drive(ClusterTarget(mkChaos(true)), queries, Spec{
		ArrivalRate: 50, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if hard.Fallbacks == 0 {
		t.Fatal("20% device faults produced no CPU fallbacks")
	}
	if av := hard.Available(); av < 0.9 {
		t.Fatalf("hardened availability %.3f under 20%% faults, want >= 0.9", av)
	}

	brittle, err := Drive(ClusterTarget(mkChaos(false)), queries, Spec{
		ArrivalRate: 50, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if brittle.Interactive.Failed == 0 && brittle.Interactive.Degraded == 0 {
		t.Fatal("brittle cluster absorbed every fault with self-healing off")
	}
	if brittle.Available() >= hard.Available() {
		t.Fatalf("brittle availability %.3f not below hardened %.3f",
			brittle.Available(), hard.Available())
	}
	// The recorder only holds answered queries: counts stay consistent.
	if hard.Latencies.Count()+hard.Interactive.Failed != len(queries) {
		t.Fatalf("answered %d + failed %d != %d queries",
			hard.Latencies.Count(), hard.Interactive.Failed, len(queries))
	}
}
