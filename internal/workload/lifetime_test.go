package workload

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/fault"
)

// TestClusterLeavesItsShardsAsSplit runs the lifetimes the extension
// studies give one set of shards, one after another: a cluster with list
// caches, device batching and two replicas takes sequential, timed and
// concurrent queries, then one under injected faults with CPU fallback
// does, each closed in turn. Nothing a cluster does writes to the shard
// indexes it was given: they end deep-equal to a fresh split,
// which is what lets a study build all its clusters over one split.
func TestClusterLeavesItsShardsAsSplit(t *testing.T) {
	c := partitionTestCorpus(t)
	queries := GenerateQueryLog(c, QuerySpec{NumQueries: 120, PopularityAlpha: 0.5, Seed: 5})
	const shards = 4
	ixs, err := PartitionCorpus(c, shards)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []cluster.Config{
		{Engine: core.Config{Mode: core.Hybrid, CacheLists: true, BatchWindow: 2 * time.Millisecond, BatchMax: 8},
			TopK: 10, Replicas: 2, Routing: cluster.LeastPending},
		{Engine: core.Config{Mode: core.Hybrid}, TopK: 10, Replicas: 2, Routing: cluster.LeastPending,
			Fault: fault.NewInjector(fault.ChaosPlan(9, 0.1)), HedgeDelay: time.Millisecond},
	} {
		cl, err := cluster.New(ixs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range queries {
			if _, err := cl.Search(context.Background(), q.Terms); err != nil {
				t.Fatal(err)
			}
			req := cluster.Request{Terms: q.Terms, Timed: true, Arrival: time.Duration(i) * 50 * time.Microsecond}
			if _, err := cl.Query(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for w := range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for _, q := range queries[w*len(queries)/4 : (w+1)*len(queries)/4] {
					if _, err := cl.Search(context.Background(), q.Terms); err != nil {
						t.Error(err)
					}
				}
			}()
		}
		wg.Wait()
		cl.Close()
	}
	fresh, err := PartitionCorpus(c, shards)
	if err != nil {
		t.Fatal(err)
	}
	for s := range fresh {
		if !reflect.DeepEqual(ixs[s], fresh[s]) {
			t.Errorf("shard %d differs from a fresh split after the clusters over it closed", s)
		}
	}
}
