package loadsim

import (
	"testing"
	"time"

	"griffin/internal/core"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/workload"
)

// engineFixture builds a small corpus, a query log, and a hybrid-engine
// constructor over a fresh device (each call gets a dedicated runtime).
func engineFixture(t testing.TB) ([][]string, func(spill time.Duration) *core.Engine) {
	t.Helper()
	c, err := workload.GenerateCorpus(workload.CorpusSpec{
		NumDocs:    200_000,
		NumTerms:   50,
		MaxListLen: 60_000,
		MinListLen: 200,
		Alpha:      1.0,
		Codec:      index.CodecEF,
		Seed:       21,
	})
	if err != nil {
		t.Fatal(err)
	}
	log := workload.GenerateQueryLog(c, workload.QuerySpec{
		NumQueries: 150, PopularityAlpha: 0.6, Seed: 22,
	})
	queries := make([][]string, len(log))
	for i, q := range log {
		queries[i] = q.Terms
	}
	mk := func(spill time.Duration) *core.Engine {
		e, err := core.New(c.Index, core.Config{
			Mode:         core.Hybrid,
			Device:       gpu.New(hwmodel.DefaultGPU(), 0),
			SpillBacklog: spill,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	return queries, mk
}

// At arrival rates far below device capacity, driving the real engine
// under Poisson load reproduces the isolated per-query latencies exactly:
// no queueing delay accrues and each sojourn equals the fresh Search time.
func TestRunEngineLightLoadMatchesIsolatedLatency(t *testing.T) {
	queries, mk := engineFixture(t)
	queries = queries[:40]

	ref := mk(0)
	want := make([]time.Duration, len(queries))
	for i, q := range queries {
		r, err := ref.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = r.Stats.Latency
	}

	e := mk(0)
	res, err := Drive(EngineTarget(e), queries, Spec{ArrivalRate: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latencies.Count() != len(queries) {
		t.Fatalf("recorded %d latencies, want %d", res.Latencies.Count(), len(queries))
	}
	if w := e.Runtime().Stats().Waited; w != 0 {
		t.Fatalf("light load charged %v queueing delay", w)
	}
	// Same queries, same engine config, no contention: every recorded
	// latency must be one of the isolated per-query latencies (the
	// recorder sorts internally, so check via percentile probes).
	for _, p := range []float64{1, 25, 50, 75, 99, 100} {
		got := res.Latencies.Percentile(p)
		found := false
		for _, w := range want {
			if w == got {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("P%v latency %v not among isolated latencies", p, got)
		}
	}
	if res.GPUBusy <= 0 || res.GPUBusy > 1 {
		t.Fatalf("GPU utilization %v out of range", res.GPUBusy)
	}
}

// Past device saturation the static engine's tail grows with backlog,
// and the load-aware spill (SpillBacklog) keeps it bounded — loadsim's
// spill-limited Replay result reproduced inside the real engine.
func TestRunEngineSpillBoundsTailUnderOverload(t *testing.T) {
	queries, mk := engineFixture(t)

	// Calibrate the overload rate from the light-load mean service time.
	probe := mk(0)
	light, err := Drive(EngineTarget(probe), queries[:30], Spec{ArrivalRate: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	mean := light.Latencies.Mean()
	if mean <= 0 {
		t.Fatal("zero mean service time")
	}
	overload := 3 / mean.Seconds() // 3x the single-lane drain rate

	static := mk(0)
	rs, err := Drive(EngineTarget(static), queries, Spec{ArrivalRate: overload, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if w := static.Runtime().Stats().Waited; w == 0 {
		t.Fatal("overload produced no queueing delay on the static engine")
	}
	if rs.Latencies.Percentile(99) <= light.Latencies.Percentile(99) {
		t.Fatalf("overloaded static P99 %v not above light-load P99 %v",
			rs.Latencies.Percentile(99), light.Latencies.Percentile(99))
	}

	spill := mk(mean / 2)
	ra, err := Drive(EngineTarget(spill), queries, Spec{ArrivalRate: overload, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if ra.Latencies.Percentile(99) >= rs.Latencies.Percentile(99) {
		t.Fatalf("spill P99 %v not below static P99 %v under overload",
			ra.Latencies.Percentile(99), rs.Latencies.Percentile(99))
	}
}

func TestRunEngineDegenerate(t *testing.T) {
	_, mk := engineFixture(t)
	e := mk(0)
	res, err := Drive(EngineTarget(e), nil, Spec{ArrivalRate: 10})
	if err != nil || res.Latencies.Count() != 0 {
		t.Fatalf("empty run: %v, %d latencies", err, res.Latencies.Count())
	}
	res, err = Drive(EngineTarget(e), [][]string{{"t000001"}}, Spec{})
	if err != nil || res.Latencies.Count() != 0 {
		t.Fatalf("zero rate: %v, %d latencies", err, res.Latencies.Count())
	}
}
