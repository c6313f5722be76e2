package core

import (
	"math/rand"
	"reflect"
	"testing"

	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/sched"
	"griffin/internal/workload"
)

func TestPerQueryAgreesWithOtherModes(t *testing.T) {
	c := testCorpus(t)
	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	pq, err := New(c.Index, Config{Mode: PerQueryHybrid, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	cpuE, _, _ := newEngines(t, c)
	queries := workload.GenerateQueryLog(c, workload.QuerySpec{
		NumQueries: 25, PopularityAlpha: 0.6, Seed: 15,
	})
	for qi, q := range queries {
		r1, err := pq.Search(q.Terms)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := cpuE.Search(q.Terms)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(docIDsOf(r1), docIDsOf(r2)) {
			t.Fatalf("query %d: per-query results differ from cpu-only", qi)
		}
	}
}

func TestPerQueryNeverMigrates(t *testing.T) {
	// The Figure 1(c) defining property: one processor for the whole
	// query. Build the migration-forcing workload from TestHybridMigration
	// and verify per-query mode stays on the GPU throughout.
	b := index.NewBuilder(index.CodecEF)
	rng := rand.New(rand.NewSource(16))
	_ = b.AddPostings("a", workload.GenList(rng, 5_000, 3_000_000), nil)
	_ = b.AddPostings("b", workload.GenList(rng, 6_000, 3_000_000), nil)
	_ = b.AddPostings("huge", workload.GenList(rng, 2_000_000, 3_000_000), nil)
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	e, err := New(ix, Config{Mode: PerQueryHybrid, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Search([]string{"a", "b", "huge"})
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range intersects(res.Stats.Plan) {
		if op.Where != sched.GPU {
			t.Fatalf("per-query placement moved intersection %d to %v", i, op.Where)
		}
	}
	if res.Stats.Migrated {
		t.Fatal("per-query mode reported migration")
	}

	// Same workload under Griffin migrates and must be at least as fast:
	// the skewed final intersection is what Figure 1(d) fixes.
	g, err := New(ix, Config{Mode: Hybrid, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	gres, err := g.Search([]string{"a", "b", "huge"})
	if err != nil {
		t.Fatal(err)
	}
	if gres.Stats.Latency > res.Stats.Latency {
		t.Fatalf("griffin (%v) slower than per-query placement (%v) on migration workload",
			gres.Stats.Latency, res.Stats.Latency)
	}
}

func TestPerQueryHighFirstRatioRunsOnCPU(t *testing.T) {
	b := index.NewBuilder(index.CodecEF)
	rng := rand.New(rand.NewSource(17))
	_ = b.AddPostings("tiny", workload.GenList(rng, 100, 3_000_000), nil)
	_ = b.AddPostings("huge", workload.GenList(rng, 100*200, 3_000_000), nil)
	ix, _ := b.Build()
	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	e, _ := New(ix, Config{Mode: PerQueryHybrid, Device: dev})
	res, err := e.Search([]string{"tiny", "huge"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.GPUTime != 0 {
		t.Fatalf("high-ratio query used GPU time %v", res.Stats.GPUTime)
	}
}

func TestPerQueryModeString(t *testing.T) {
	if PerQueryHybrid.String() != "per-query-hybrid" {
		t.Fatalf("String() = %q", PerQueryHybrid.String())
	}
}
