package cluster

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"griffin/internal/core"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/workload"
)

// The scatter-gather parity corpus: an N-shard cluster must return
// byte-identical top-k results — same docIDs, same float32 score bits,
// same order — as a single engine searching the unpartitioned corpus,
// for every query of a synthesized log and for every execution mode.
// This is the cluster layer's golden-style equivalence guarantee: the
// partitioner preserves global BM25 statistics, and the merge runs the
// engine's own total-order selection over the per-shard top-k lists.

func parityCorpus(t testing.TB) *workload.Corpus {
	t.Helper()
	c, err := workload.GenerateCorpus(workload.CorpusSpec{
		NumDocs:    300_000,
		NumTerms:   60,
		MaxListLen: 80_000,
		MinListLen: 200,
		Alpha:      1.0,
		Codec:      index.CodecEF,
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func parityQueries(c *workload.Corpus, n int) []workload.Query {
	return workload.GenerateQueryLog(c, workload.QuerySpec{
		NumQueries: n, PopularityAlpha: 0.7, Seed: 7,
	})
}

func singleEngine(t testing.TB, c *workload.Corpus, mode core.Mode, k int) *core.Engine {
	t.Helper()
	cfg := core.Config{Mode: mode, TopK: k}
	if mode != core.CPUOnly {
		cfg.Device = gpu.New(hwmodel.DefaultGPU(), 0)
	}
	e, err := core.New(c.Index, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func buildCluster(t testing.TB, c *workload.Corpus, shards int, cfg Config) *Cluster {
	t.Helper()
	ixs, err := workload.PartitionCorpus(c, shards)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := New(ixs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return cl
}

// At one shard the cluster is its engine, bit for bit: no gather merge is
// charged, so the latency — and the shard's plan — are the single
// engine's own, whether the cluster built the engine or was handed it
// (OfEngine).
func TestScatterGatherParity(t *testing.T) {
	const k = 10
	c := parityCorpus(t)
	queries := parityQueries(c, 150)

	for _, mode := range []core.Mode{core.CPUOnly, core.GPUOnly, core.PerQueryHybrid, core.Hybrid} {
		single := singleEngine(t, c, mode, k)
		want := make([]*core.Result, len(queries))
		for i, q := range queries {
			r, err := single.Search(q.Terms)
			if err != nil {
				t.Fatalf("%v single query %d: %v", mode, i, err)
			}
			want[i] = r
		}
		clusters := map[string]func() *Cluster{
			"OfEngine": func() *Cluster { return OfEngine(singleEngine(t, c, mode, k)) },
		}
		for _, shards := range []int{1, 2, 4, 8} {
			clusters[fmt.Sprintf("shards=%d", shards)] = func() *Cluster {
				return buildCluster(t, c, shards, Config{Engine: core.Config{Mode: mode}, TopK: k})
			}
		}
		for name, build := range clusters {
			cl := build()
			shards := cl.NumShards()
			for i, q := range queries {
				got, err := cl.Search(context.Background(), q.Terms)
				if err != nil {
					t.Fatalf("%v %s query %d: %v", mode, name, i, err)
				}
				if got.Stats.Degraded {
					t.Fatalf("%v %s query %d: unexpectedly degraded", mode, name, i)
				}
				if shards == 1 {
					shard := got.Stats.Shards[0].Query
					if got.Stats.MergeTime != 0 || got.Stats.Latency != want[i].Stats.Latency ||
						!reflect.DeepEqual(shard.Plan, want[i].Stats.Plan) {
						t.Fatalf("%v %s query %d %v: merge %v, latency %v != single-engine %v (plans equal: %v)",
							mode, name, i, q.Terms, got.Stats.MergeTime, got.Stats.Latency, want[i].Stats.Latency,
							reflect.DeepEqual(shard.Plan, want[i].Stats.Plan))
					}
				}
				if len(got.Docs) != len(want[i].Docs) {
					t.Fatalf("%v %s query %d %v: %d docs != single-engine %d",
						mode, name, i, q.Terms, len(got.Docs), len(want[i].Docs))
				}
				for j := range want[i].Docs {
					w, g := want[i].Docs[j], got.Docs[j]
					if g.DocID != w.DocID || math.Float32bits(g.Score) != math.Float32bits(w.Score) {
						t.Fatalf("%v %s query %d %v: doc[%d] = {%d %x} != single-engine {%d %x}",
							mode, name, i, q.Terms, j,
							g.DocID, math.Float32bits(g.Score), w.DocID, math.Float32bits(w.Score))
					}
				}
			}
			cl.Close()
		}
		single.Close()
	}
}

// Candidate-count conservation: the shards' candidate sets partition the
// single engine's candidate set.
func TestScatterGatherCandidatePartition(t *testing.T) {
	c := parityCorpus(t)
	queries := parityQueries(c, 60)
	single := singleEngine(t, c, core.CPUOnly, 10)
	defer single.Close()
	cl := buildCluster(t, c, 4, Config{Engine: core.Config{Mode: core.CPUOnly}, TopK: 10})
	defer cl.Close()

	for i, q := range queries {
		w, err := single.Search(q.Terms)
		if err != nil {
			t.Fatal(err)
		}
		g, err := cl.Search(context.Background(), q.Terms)
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, ss := range g.Stats.Shards {
			total += ss.Query.Candidates
		}
		if total != w.Stats.Candidates {
			t.Fatalf("query %d %v: shard candidates sum %d != single-engine %d",
				i, q.Terms, total, w.Stats.Candidates)
		}
	}
}
