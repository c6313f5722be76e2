package cluster

import (
	"context"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"griffin/internal/core"
	"griffin/internal/fault"
	"griffin/internal/overload"
)

// The overload-control contract, cluster layer: zero QueryOpts and a
// zero Overload config are inert; a deadline propagates as a shrinking
// budget down to device admission; brownout sheds batch then degrades
// interactive; the retry/hedge token bucket bounds amplification
// without changing low-load behavior.

// TestQueryOnePath: every way of asking goes through Query. The Search
// shim is Query with only Terms set (nil ctx included), on an
// overload-free cluster that reports itself as such; an arrival of 0 is
// an arrival, not an untimed query.
func TestQueryOnePath(t *testing.T) {
	c := parityCorpus(t)
	cfg := Config{Engine: core.Config{Mode: core.Hybrid}, TopK: 10}

	t.Run("Search equals Query", func(t *testing.T) {
		shim := buildCluster(t, c, 2, cfg)
		defer shim.Close()
		direct := buildCluster(t, c, 2, cfg)
		defer direct.Close()
		for i, q := range parityQueries(c, 40) {
			want, err := shim.Search(context.Background(), q.Terms)
			if err != nil {
				t.Fatalf("query %d Search: %v", i, err)
			}
			var none context.Context // nil means context.Background()
			got, err := direct.Query(none, Request{Terms: q.Terms})
			if err != nil {
				t.Fatalf("query %d Query: %v", i, err)
			}
			if !reflect.DeepEqual(got.Stats, want.Stats) {
				t.Fatalf("query %d stats diverge:\n got %+v\nwant %+v", i, got.Stats, want.Stats)
			}
			if len(got.Docs) != len(want.Docs) {
				t.Fatalf("query %d: %d docs != %d", i, len(got.Docs), len(want.Docs))
			}
			for j := range want.Docs {
				if got.Docs[j].DocID != want.Docs[j].DocID ||
					math.Float32bits(got.Docs[j].Score) != math.Float32bits(want.Docs[j].Score) {
					t.Fatalf("query %d doc[%d] diverges: {%d %x} != {%d %x}", i, j,
						got.Docs[j].DocID, math.Float32bits(got.Docs[j].Score),
						want.Docs[j].DocID, math.Float32bits(want.Docs[j].Score))
				}
			}
		}
		if shim.OverloadEnabled() || direct.OverloadEnabled() {
			t.Fatal("zero Overload config reports enabled")
		}
	})

	t.Run("arrival 0 pays the backlog", func(t *testing.T) {
		cl := buildCluster(t, c, 1, cfg)
		defer cl.Close()
		req := Request{Terms: parityQueries(c, 1)[0].Terms, Timed: true}
		first, err := cl.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if w := first.Stats.Shards[0].Query.GPUWait; w != 0 {
			t.Fatalf("first arrival waited %v on an empty timeline", w)
		}
		second, err := cl.Query(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if second.Stats.Shards[0].Query.GPUWait <= 0 {
			t.Fatal("arrival 0 behind backlog saw no GPUWait: taken for an untimed query")
		}
	})
}

// TestDeadlineInfeasibleRefused: a deadline below the merge reserve can
// never be met — the query is refused up front with ErrDeadline, before
// any shard work.
func TestDeadlineInfeasibleRefused(t *testing.T) {
	c := parityCorpus(t)
	cl := buildCluster(t, c, 2, Config{Engine: core.Config{Mode: core.CPUOnly}, TopK: 10})
	defer cl.Close()
	if cl.MergeReserve() <= 0 {
		t.Fatalf("merge reserve %v not positive", cl.MergeReserve())
	}
	q := parityQueries(c, 1)[0]
	_, err := cl.Query(context.Background(), Request{Terms: q.Terms, QueryOpts: QueryOpts{Deadline: time.Nanosecond}})
	if !errors.Is(err, overload.ErrDeadline) {
		t.Fatalf("error %v does not wrap ErrDeadline", err)
	}
	if !overload.IsOverload(err) {
		t.Fatalf("error %v not classified as overload", err)
	}
	if got := cl.Overload().DeadlineInfeasible; got != 1 {
		t.Fatalf("DeadlineInfeasible = %d, want 1", got)
	}
}

// TestDeadlineBudgetRejectsBackloggedDevice drives the budget all the
// way to device admission: a deeply backlogged device refuses a query
// whose sub-deadline its pending work already exceeds (without mutating
// its timeline), while an ample deadline on the same cluster is served.
func TestDeadlineBudgetRejectsBackloggedDevice(t *testing.T) {
	c := parityCorpus(t)
	cl := buildCluster(t, c, 1, Config{Engine: core.Config{Mode: core.Hybrid}, TopK: 10})
	defer cl.Close()
	q := parityQueries(c, 1)[0]

	// Pile work onto the single replica's device at arrival 0.
	for i := 0; i < 25; i++ {
		if _, err := cl.Query(context.Background(), Request{Terms: q.Terms, Timed: true}); err != nil {
			t.Fatalf("backlog query %d: %v", i, err)
		}
	}

	tight := cl.MergeReserve() + 50*time.Microsecond
	_, err := cl.Query(context.Background(), Request{Terms: q.Terms, Arrival: time.Microsecond, Timed: true, QueryOpts: QueryOpts{Deadline: tight}})
	if !errors.Is(err, overload.ErrDeadline) {
		t.Fatalf("tight deadline: error %v does not wrap ErrDeadline", err)
	}
	ost := cl.Overload()
	if ost.BudgetRejects == 0 {
		t.Fatal("no device budget rejections recorded")
	}

	// The same cluster serves an ample deadline: the rejection left the
	// device timeline untouched and nothing is wedged.
	res, err := cl.Query(context.Background(), Request{Terms: q.Terms, Arrival: 2 * time.Microsecond, Timed: true, QueryOpts: QueryOpts{Deadline: 10 * time.Second}})
	if err != nil {
		t.Fatalf("ample deadline: %v", err)
	}
	if res.Stats.Degraded || res.Stats.DeadlineMiss {
		t.Fatalf("ample deadline degraded=%v miss=%v", res.Stats.Degraded, res.Stats.DeadlineMiss)
	}
	if res.Stats.Deadline != 10*time.Second {
		t.Fatalf("stats deadline %v, want 10s", res.Stats.Deadline)
	}
}

// TestDeadlineExceededDropsLateShard pins the gather side of deadline
// propagation: a shard that answers past its sub-deadline is dropped
// from the merge and the critical path charges exactly the sub-deadline.
func TestDeadlineExceededDropsLateShard(t *testing.T) {
	c := parityCorpus(t)
	cl := buildCluster(t, c, 2, Config{Engine: core.Config{Mode: core.CPUOnly}, TopK: 10})
	defer cl.Close()
	q := parityQueries(c, 1)[0]

	// CPU shard latency is far above 1us; both shards blow the budget.
	deadline := cl.MergeReserve() + time.Microsecond
	res, err := cl.Query(context.Background(), Request{Terms: q.Terms, QueryOpts: QueryOpts{Deadline: deadline}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stats.Degraded {
		t.Fatal("late shards did not degrade the query")
	}
	for s, ss := range res.Stats.Shards {
		if !ss.DeadlineExceeded {
			t.Fatalf("shard %d not marked DeadlineExceeded: %+v", s, ss)
		}
	}
	if res.Stats.MaxShard != time.Microsecond {
		t.Fatalf("critical path charged %v, want the sub-deadline %v", res.Stats.MaxShard, time.Microsecond)
	}
	if len(res.Docs) != 0 {
		t.Fatalf("dropped shards still contributed %d docs", len(res.Docs))
	}
}

// TestDeadlineMissMarksLateAnswer: with an artificially small merge
// reserve the shards can make their sub-deadlines while the merged
// answer lands past the query deadline — the caller still gets the
// result, marked as a miss.
func TestDeadlineMissMarksLateAnswer(t *testing.T) {
	c := parityCorpus(t)
	cfg := Config{
		Engine:   core.Config{Mode: core.CPUOnly},
		TopK:     10,
		Overload: overload.Config{MergeReserve: time.Nanosecond},
	}
	cl := buildCluster(t, c, 2, cfg)
	defer cl.Close()

	// Find a query whose merged answer is non-empty and whose merge is
	// wide enough to wedge a deadline between reserve and latency.
	var terms []string
	var probe *Result
	for _, cand := range parityQueries(c, 30) {
		r, err := cl.Search(context.Background(), cand.Terms)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Docs) > 0 && r.Stats.MergeTime > 2*time.Nanosecond {
			terms, probe = cand.Terms, r
			break
		}
	}
	if terms == nil {
		t.Fatal("no query produced a mergeable result")
	}
	deadline := probe.Stats.Latency - time.Nanosecond
	res, err := cl.Query(context.Background(), Request{Terms: terms, QueryOpts: QueryOpts{Deadline: deadline}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Degraded {
		t.Fatalf("shards unexpectedly degraded: %+v", res.Stats)
	}
	if !res.Stats.DeadlineMiss {
		t.Fatalf("latency %v over deadline %v not marked as a miss", res.Stats.Latency, deadline)
	}
	if len(res.Docs) == 0 {
		t.Fatal("deadline miss returned no docs — misses must degrade, not refuse")
	}
	if got := cl.Overload().DeadlineMisses; got != 1 {
		t.Fatalf("DeadlineMisses = %d, want 1", got)
	}
}

// TestBrownoutShedsBatchThenDegradesInteractive walks the two-tier
// ladder on a live backlogged cluster: batch is refused with ErrShed,
// interactive is served degraded (CPU-only plan, reduced top-k).
func TestBrownoutShedsBatchThenDegradesInteractive(t *testing.T) {
	c := parityCorpus(t)
	cfg := Config{
		Engine: core.Config{Mode: core.Hybrid},
		TopK:   10,
		Overload: overload.Config{
			BrownoutEnter: 100 * time.Microsecond,
			BrownoutHold:  time.Hour, // never step down during the test
		},
	}
	cl := buildCluster(t, c, 1, cfg)
	defer cl.Close()

	// Cold cluster: batch is served normally at level 0.
	qs := parityQueries(c, 30)
	res, err := cl.Query(context.Background(), Request{Terms: qs[0].Terms, Timed: true, QueryOpts: QueryOpts{Class: overload.Batch}})
	if err != nil {
		t.Fatalf("cold batch query: %v", err)
	}
	if res.Stats.BrownoutLevel != 0 || res.Stats.Class != overload.Batch {
		t.Fatalf("cold stats %+v", res.Stats)
	}

	// Pick a query with a non-empty result set (some conjunctions are
	// legitimately empty) so the degraded answer is observable.
	var q []string
	for _, cand := range qs {
		r, err := cl.Query(context.Background(), Request{Terms: cand.Terms, Timed: true})
		if err != nil {
			t.Fatalf("probe query: %v", err)
		}
		if len(r.Docs) > 0 {
			q = cand.Terms
			break
		}
	}
	if q == nil {
		t.Fatal("no probe query matched any document")
	}

	// Pile device work until pressure is far past the escalate threshold.
	for i := 0; i < 30; i++ {
		if _, err := cl.Query(context.Background(), Request{Terms: q, Timed: true}); err != nil {
			t.Fatalf("backlog query %d: %v", i, err)
		}
	}

	_, err = cl.Query(context.Background(), Request{Terms: q, Arrival: time.Microsecond, Timed: true, QueryOpts: QueryOpts{Class: overload.Batch}})
	if !errors.Is(err, overload.ErrShed) {
		t.Fatalf("hot batch query: error %v does not wrap ErrShed", err)
	}

	res, err = cl.Query(context.Background(), Request{Terms: q, Arrival: 2 * time.Microsecond, Timed: true})
	if err != nil {
		t.Fatalf("hot interactive query: %v", err)
	}
	st := res.Stats
	if st.BrownoutLevel != 2 || !st.ForcedCPU || st.DegradedTopK != 5 {
		t.Fatalf("interactive not degraded at level 2: %+v", st)
	}
	if len(res.Docs) == 0 || len(res.Docs) > 5 {
		t.Fatalf("degraded top-k returned %d docs, want 1..5", len(res.Docs))
	}
	ost := cl.Overload()
	if ost.Brownout.Level != 2 || ost.Brownout.BatchSheds != 1 || ost.Brownout.Degraded < 1 {
		t.Fatalf("brownout stats %+v", ost.Brownout)
	}
}

// TestCoDelShedderShedsSustainedOverage: a replica whose backlog has
// exceeded the shed target for a full interval refuses sub-queries; on
// a single-shard cluster the whole query surfaces ErrShed.
func TestCoDelShedderShedsSustainedOverage(t *testing.T) {
	c := parityCorpus(t)
	cfg := Config{
		Engine: core.Config{Mode: core.Hybrid},
		TopK:   10,
		Overload: overload.Config{
			ShedTarget:   50 * time.Microsecond,
			ShedInterval: 10 * time.Microsecond,
		},
	}
	cl := buildCluster(t, c, 1, cfg)
	defer cl.Close()
	q := parityQueries(c, 1)[0]

	// Build the backlog at arrival 0: the overage clock starts but no
	// interval elapses, so every builder query is admitted.
	for i := 0; i < 30; i++ {
		if _, err := cl.Query(context.Background(), Request{Terms: q.Terms, Timed: true}); err != nil {
			t.Fatalf("backlog query %d: %v", i, err)
		}
	}
	// 20us later the overage has been sustained past the interval.
	_, err := cl.Query(context.Background(), Request{Terms: q.Terms, Arrival: 20 * time.Microsecond, Timed: true})
	if !errors.Is(err, overload.ErrShed) {
		t.Fatalf("error %v does not wrap ErrShed", err)
	}
	ost := cl.Overload()
	if ost.ShardSheds != 1 {
		t.Fatalf("ShardSheds = %d, want 1", ost.ShardSheds)
	}
	if ost.ShardOffers == 0 {
		t.Fatal("shedder recorded no offers")
	}
}

// TestRetryBudgetBoundsAmplification runs the self-heal fault drill
// three ways: unbudgeted, generously budgeted (low load for the bucket:
// behavior provably identical), and tightly budgeted (retries bounded
// by burst + ratio x admissions, well below the unbudgeted count).
func TestRetryBudgetBoundsAmplification(t *testing.T) {
	c := parityCorpus(t)
	q := parityQueries(c, 1)[0]
	const n = 120
	const shards = 2
	run := func(olc overload.Config) (SelfHealStats, OverloadStats) {
		inj := fault.NewInjector(fault.Plan{Seed: 77, Rules: []fault.Rule{
			{Kind: fault.EngineError, Rate: 0.3},
		}})
		cl := buildCluster(t, c, shards, Config{
			Engine:   core.Config{Mode: core.CPUOnly},
			TopK:     10,
			Replicas: 2,
			Fault:    inj,
			Breaker:  fault.BreakerConfig{Threshold: -1},
			Overload: olc,
		})
		defer cl.Close()
		for i := 0; i < n; i++ {
			if _, err := cl.Search(context.Background(), q.Terms); err != nil &&
				!errors.Is(err, ErrAllShardsFailed) {
				t.Fatal(err)
			}
		}
		return cl.SelfHeal(), cl.Overload()
	}

	free, _ := run(overload.Config{})
	if free.Retries == 0 {
		t.Fatal("no retries under a 30% engine-error rate — drill is inert")
	}

	// A generous budget never runs dry at this load: identical behavior.
	generous, _ := run(overload.Config{RetryBudget: 1.0})
	if generous.Retries != free.Retries {
		t.Fatalf("generous budget changed retries: %d != unbudgeted %d", generous.Retries, free.Retries)
	}

	tight, ost := run(overload.Config{RetryBudget: 0.05, RetryBurst: 1})
	bound := float64(shards)*1 + 0.05*float64(ost.RetryBudget.Admissions) + 1e-6
	if float64(tight.Retries) > bound {
		t.Fatalf("budgeted retries %d exceed bound %.2f (admissions %d)",
			tight.Retries, bound, ost.RetryBudget.Admissions)
	}
	if tight.Retries >= free.Retries {
		t.Fatalf("tight budget did not bound amplification: %d >= %d", tight.Retries, free.Retries)
	}
	if ost.RetryBudget.Denied == 0 {
		t.Fatal("tight bucket never denied a token")
	}
}
