package cluster

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"griffin/internal/core"
	"griffin/internal/fault"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/workload"
)

// TestAllShardsFailedReportsFirstErr pins the error-reporting fix: the
// all-shards-failed error wraps ErrAllShardsFailed and carries an actual
// shard error, found by scanning rather than blindly reading shard 0.
func TestAllShardsFailedReportsFirstErr(t *testing.T) {
	c := parityCorpus(t)
	ixs, err := workload.PartitionCorpus(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	model := hwmodel.DefaultGPU()
	model.MemoryBytes = 16 // every upload fails (resource error, no fallback)
	cl, err := New(ixs, Config{
		Engine: core.Config{Mode: core.GPUOnly}, TopK: 10, DeviceModel: model,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	_, err = cl.Search(context.Background(), []string{workload.TermName(3), workload.TermName(9)})
	if !errors.Is(err, ErrAllShardsFailed) {
		t.Fatalf("error %v does not wrap ErrAllShardsFailed", err)
	}
	if msg := err.Error(); msg == "" || !containsNonEmptyCause(msg) {
		t.Fatalf("error %q carries no shard cause", msg)
	}
}

func containsNonEmptyCause(msg string) bool {
	const marker = "first error: "
	for i := 0; i+len(marker) <= len(msg); i++ {
		if msg[i:i+len(marker)] == marker {
			return len(msg) > i+len(marker)
		}
	}
	return false
}

// TestSiblingRetryHealsEngineErrors drives a replicated cluster under
// injected engine errors and checks the self-healing arithmetic: with a
// sibling retry, a shard only goes missing when both replicas' draws
// fail; the hardened cluster must therefore degrade strictly less than a
// brittle one on the identical fault stream, and must report the retries
// it took.
func TestSiblingRetryHealsEngineErrors(t *testing.T) {
	c := parityCorpus(t)
	q := []string{workload.TermName(3), workload.TermName(9)}
	const n = 120
	run := func(retries int) (degraded, failed int, heal SelfHealStats) {
		inj := fault.NewInjector(fault.Plan{Seed: 77, Rules: []fault.Rule{
			{Kind: fault.EngineError, Rate: 0.3},
		}})
		cl := buildCluster(t, c, 2, Config{
			Engine:   core.Config{Mode: core.CPUOnly},
			TopK:     10,
			Replicas: 2,
			Fault:    inj,
			Retries:  retries,
			Breaker:  fault.BreakerConfig{Threshold: -1}, // isolate the retry effect
		})
		defer cl.Close()
		for i := 0; i < n; i++ {
			r, err := cl.Search(context.Background(), q)
			switch {
			case err != nil:
				if !errors.Is(err, ErrAllShardsFailed) {
					t.Fatal(err)
				}
				failed++
			case r.Stats.Degraded:
				degraded++
			}
		}
		return degraded, failed, cl.SelfHeal()
	}

	hardDeg, hardFail, heal := run(0) // 0 = default: 1 sibling retry
	britDeg, britFail, brittleHeal := run(-1)

	if brittleHeal.Retries != 0 {
		t.Fatalf("brittle cluster retried %d times with retries disabled", brittleHeal.Retries)
	}
	if heal.Retries == 0 {
		t.Fatalf("hardened cluster took no retries under a 30%% engine-error rate")
	}
	if hardDeg+hardFail >= britDeg+britFail {
		t.Fatalf("retries did not help: hardened %d+%d vs brittle %d+%d incidents",
			hardDeg, hardFail, britDeg, britFail)
	}
}

// TestBreakerTripsShedsAndRecovers walks the breaker lifecycle on a live
// cluster: engine errors on every site's early admissions trip both
// replicas' breakers (health goes unhealthy), the fault schedule ends,
// and after the cooldown half-open probes readmit the replicas (health
// recovers, queries succeed again).
func TestBreakerTripsShedsAndRecovers(t *testing.T) {
	c := parityCorpus(t)
	q := []string{workload.TermName(3), workload.TermName(9)}
	inj := fault.NewInjector(fault.Plan{Seed: 5, Rules: []fault.Rule{
		// Each site's first 3 sub-query admissions fail.
		{Kind: fault.EngineError, Rate: 1, Until: 3},
	}})
	cl := buildCluster(t, c, 1, Config{
		Engine:   core.Config{Mode: core.CPUOnly},
		TopK:     10,
		Replicas: 2,
		Fault:    inj,
		Breaker:  fault.BreakerConfig{Threshold: 3, Cooldown: 5 * time.Millisecond},
	})
	defer cl.Close()

	// Queries 1-3 (clock 1..3ms): primary and retry both draw failures,
	// striking both replicas each time. By query 3 both breakers trip.
	sawFailure := false
	for i := 0; i < 3; i++ {
		if _, err := cl.Search(context.Background(), q); err != nil {
			if !errors.Is(err, ErrAllShardsFailed) {
				t.Fatal(err)
			}
			sawFailure = true
		}
	}
	if !sawFailure {
		t.Fatal("fault schedule injected no failures")
	}
	h := cl.Health()
	if h.Healthy || h.Unreachable != 1 {
		t.Fatalf("after tripping every replica, health = %+v, want 1 unreachable shard (unhealthy)", h)
	}
	if cl.SelfHeal().BreakerTrips < 2 {
		t.Fatalf("breaker trips = %d, want both replicas tripped", cl.SelfHeal().BreakerTrips)
	}

	// Advance the modeled clock past the cooldown: breakers go half-open,
	// the (now clean) schedule lets the probes succeed, breakers close.
	var r *Result
	var err error
	for i := 0; i < 8; i++ {
		r, err = cl.Search(context.Background(), q)
	}
	if err != nil {
		t.Fatalf("cluster did not recover after cooldown: %v", err)
	}
	if len(r.Docs) == 0 || r.Stats.Degraded {
		t.Fatalf("post-recovery query degraded: %+v", r.Stats)
	}
	if h := cl.Health(); !h.Healthy || h.Unreachable != 0 {
		t.Fatalf("post-recovery health = %+v, want healthy", h)
	}
}

// TestLeastPendingAvoidsTrippedBreaker is the satellite routing test: a
// replica whose breaker is open must not receive traffic even though its
// device is idle (zero backlog would otherwise make it the router's
// favorite).
func TestLeastPendingAvoidsTrippedBreaker(t *testing.T) {
	c := parityCorpus(t)
	cl := buildCluster(t, c, 1, Config{
		Engine:   core.Config{Mode: core.Hybrid},
		TopK:     10,
		Replicas: 2,
		Routing:  LeastPending,
	})
	defer cl.Close()
	g := cl.shards[0]
	now := 10 * time.Millisecond
	// Trip replica 0 (the idle-tie favorite) directly.
	for i := 0; i < 3; i++ {
		g.replicas[0].breaker.Record(now, false)
	}
	if g.replicas[0].breaker.State(now) != fault.Open {
		t.Fatal("replica 0 breaker did not trip")
	}
	for i := 0; i < 4; i++ {
		ri, _ := g.pick(LeastPending, now, false)
		if ri != 1 {
			t.Fatalf("pick routed onto the tripped replica (got %d, want 1)", ri)
		}
	}
	// All breakers open: pick fails open rather than refusing.
	for i := 0; i < 3; i++ {
		g.replicas[1].breaker.Record(now, false)
	}
	if ri, rep := g.pick(LeastPending, now, false); rep == nil || ri < 0 {
		t.Fatal("pick refused to route with every breaker open")
	}
}

// TestLeastPendingAvoidsMidResetDevice is the other half of the
// satellite: a device mid-reset has an empty queue, so raw backlog makes
// it the most attractive replica — the router must see the remaining
// reset window and steer away.
func TestLeastPendingAvoidsMidResetDevice(t *testing.T) {
	c := parityCorpus(t)
	inj := fault.NewInjector(fault.Plan{Seed: 2, Rules: []fault.Rule{
		{Kind: fault.DeviceReset, Rate: 1, Until: 1, Stall: 4 * time.Millisecond},
	}})
	cl := buildCluster(t, c, 1, Config{
		Engine:   core.Config{Mode: core.Hybrid},
		TopK:     10,
		Replicas: 2,
		Routing:  LeastPending,
		Fault:    inj,
		Breaker:  fault.BreakerConfig{Threshold: -1}, // isolate the backlog signal
	})
	defer cl.Close()
	g := cl.shards[0]

	// Sanity: idle tie routes to replica 0.
	if ri, _ := g.pick(LeastPending, 0, false); ri != 0 {
		t.Fatalf("idle tie broke to replica %d, want 0", ri)
	}
	// Fire replica 0's reset at t=1ms (one doomed submission opens the
	// 4ms window).
	hook := inj.DeviceHook("s0r0")
	if err := hook(gpu.ComputeEngine, time.Millisecond); !fault.IsDeviceFault(err) {
		t.Fatalf("reset did not fire: %v", err)
	}
	// Mid-window the router must prefer the healthy (equally idle)
	// sibling; after the window the tie reverts to replica 0.
	if ri, _ := g.pick(LeastPending, 2*time.Millisecond, false); ri != 1 {
		t.Fatalf("mid-reset pick routed to the resetting device (got %d, want 1)", ri)
	}
	if ri, _ := g.pick(LeastPending, 6*time.Millisecond, false); ri != 0 {
		t.Fatalf("post-reset pick = %d, want 0 (window over)", ri)
	}
}

// TestHedgedRequestWins sets up an asymmetric stall — the primary
// replica's first admission stalls, the sibling's does not — and checks
// the hedge fires, wins, and defines the shard's effective latency as
// HedgeDelay + hedge path.
func TestHedgedRequestWins(t *testing.T) {
	c := parityCorpus(t)
	q := []string{workload.TermName(3), workload.TermName(9)}

	// Find a seed whose first draw stalls site s0r0 but not s0r1 (draws
	// are pure functions of seed and site, so this probe is exact).
	plan := func(seed int64) fault.Plan {
		return fault.Plan{Seed: seed, Rules: []fault.Rule{
			{Kind: fault.ShardStall, Rate: 0.5, Until: 1, Stall: 10 * time.Millisecond},
		}}
	}
	seed := int64(-1)
	for s := int64(0); s < 64; s++ {
		probe := fault.NewInjector(plan(s))
		d0, _ := probe.AdmitQuery("s0r0", 0)
		d1, _ := probe.AdmitQuery("s0r1", 0)
		if d0 > 0 && d1 == 0 {
			seed = s
			break
		}
	}
	if seed < 0 {
		t.Fatal("no seed stalls s0r0 but not s0r1 in 64 tries")
	}

	const hedgeDelay = time.Millisecond
	cl := buildCluster(t, c, 1, Config{
		Engine:     core.Config{Mode: core.CPUOnly},
		TopK:       10,
		Replicas:   2,
		Fault:      fault.NewInjector(plan(seed)),
		HedgeDelay: hedgeDelay,
		Retries:    -1,
		Breaker:    fault.BreakerConfig{Threshold: -1},
	})
	defer cl.Close()

	// Reference: the same query on an un-faulted cluster gives the clean
	// sub-query latency.
	ref := buildCluster(t, c, 1, Config{Engine: core.Config{Mode: core.CPUOnly}, TopK: 10})
	defer ref.Close()
	want, err := ref.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	cleanLat := want.Stats.Shards[0].Query.Latency

	r, err := cl.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ss := r.Stats.Shards[0]
	if !ss.Hedged || !ss.HedgeWon {
		t.Fatalf("hedge did not fire and win: %+v", ss)
	}
	if ss.Replica != 1 {
		t.Fatalf("winning replica = %d, want the hedged sibling 1", ss.Replica)
	}
	if wantEff := hedgeDelay + cleanLat; ss.Effective != wantEff {
		t.Fatalf("effective latency %v, want HedgeDelay + clean path = %v", ss.Effective, wantEff)
	}
	if !reflect.DeepEqual(r.Docs, want.Docs) {
		t.Fatal("hedged result differs from the clean result")
	}
	if heal := cl.SelfHeal(); heal.Hedges != 1 || heal.HedgeWins != 1 {
		t.Fatalf("self-heal counters = %+v, want 1 hedge, 1 win", heal)
	}
}

// TestHedgeLosesToFastPrimary checks the other branch: an un-stalled
// primary beats the hedge path and keeps its result.
func TestHedgeLosesToFastPrimary(t *testing.T) {
	c := parityCorpus(t)
	q := []string{workload.TermName(3), workload.TermName(9)}
	cl := buildCluster(t, c, 1, Config{
		Engine:     core.Config{Mode: core.CPUOnly},
		TopK:       10,
		Replicas:   2,
		HedgeDelay: time.Nanosecond, // everything hedges
		Retries:    -1,
		Breaker:    fault.BreakerConfig{Threshold: -1},
	})
	defer cl.Close()
	r, err := cl.Search(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	ss := r.Stats.Shards[0]
	if !ss.Hedged {
		t.Fatal("hedge did not fire with a nanosecond delay")
	}
	if ss.HedgeWon {
		t.Fatal("hedge won against an identical primary (delay should lose the tie)")
	}
	if ss.Replica != 0 || ss.Effective != ss.Query.Latency {
		t.Fatalf("primary path not kept: %+v", ss)
	}
}

// TestFallbackCountsAsSoftStrike checks the breaker/fallback interplay:
// sub-queries that succeed via CPU fallback still trip the replica's
// breaker, because the device behind them is misbehaving.
func TestFallbackCountsAsSoftStrike(t *testing.T) {
	c := parityCorpus(t)
	q := []string{workload.TermName(3), workload.TermName(9)}
	inj := fault.NewInjector(fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Kind: fault.KernelLaunch, Rate: 1}, // every kernel dies; every GPU query falls back
	}})
	cl := buildCluster(t, c, 1, Config{
		Engine:   core.Config{Mode: core.GPUOnly},
		TopK:     10,
		Replicas: 1,
		Fault:    inj,
		Breaker:  fault.BreakerConfig{Threshold: 3, Cooldown: 50 * time.Millisecond},
	})
	defer cl.Close()
	for i := 0; i < 3; i++ {
		r, err := cl.Search(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if r.Stats.Degraded {
			t.Fatalf("fallback query %d degraded", i)
		}
		if r.Stats.Fallbacks != 1 {
			t.Fatalf("query %d: fallbacks = %d, want 1", i, r.Stats.Fallbacks)
		}
	}
	heal := cl.SelfHeal()
	if heal.Fallbacks != 3 {
		t.Fatalf("fallbacks = %d, want 3", heal.Fallbacks)
	}
	if heal.BreakerTrips != 1 {
		t.Fatalf("breaker trips = %d, want 1 (three soft strikes)", heal.BreakerTrips)
	}
}

// TestClusterContextCancelStopsStragglers is the goroutine-leak
// satellite: a pile of queries whose contexts die mid-flight must not
// leave shard goroutines behind.
func TestClusterContextCancelStopsStragglers(t *testing.T) {
	c := parityCorpus(t)
	queries := parityQueries(c, 16)
	cl := buildCluster(t, c, 4, Config{
		Engine:   core.Config{Mode: core.Hybrid},
		TopK:     10,
		Replicas: 2,
	})
	defer cl.Close()

	before := runtime.NumGoroutine()
	for _, q := range queries {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // dead on arrival: sub-queries abort at their first operator check
		if _, err := cl.Search(ctx, q.Terms); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled query error = %v, want context.Canceled", err)
		}
	}
	// Stragglers abort between operators; give them a moment to drain.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after cancelled run", before, after)
	}

	// The cluster still serves normal queries afterwards.
	if _, err := cl.Search(context.Background(), queries[0].Terms); err != nil {
		t.Fatal(err)
	}
}

// TestChaosDeterministic is the acceptance criterion in miniature: two
// identically seeded chaotic runs produce the same fault log, the same
// self-healing counters, and the same per-query latencies.
func TestChaosDeterministic(t *testing.T) {
	c := parityCorpus(t)
	queries := parityQueries(c, 40)
	run := func() ([]fault.Event, SelfHealStats, []time.Duration) {
		inj := fault.NewInjector(fault.Plan{Seed: 1234, Rules: []fault.Rule{
			{Kind: fault.KernelLaunch, Rate: 0.05},
			{Kind: fault.TransferError, Rate: 0.05},
			{Kind: fault.DeviceReset, Rate: 0.01, Stall: 2 * time.Millisecond},
			{Kind: fault.ShardStall, Rate: 0.05, Stall: 3 * time.Millisecond},
			{Kind: fault.EngineError, Rate: 0.03},
		}})
		cl := buildCluster(t, c, 2, Config{
			Engine:     core.Config{Mode: core.Hybrid},
			TopK:       10,
			Replicas:   2,
			Fault:      inj,
			HedgeDelay: 2 * time.Millisecond,
		})
		defer cl.Close()
		var lats []time.Duration
		var at time.Duration
		for _, q := range queries {
			at += 500 * time.Microsecond
			r, err := cl.Query(context.Background(), Request{Terms: q.Terms, Arrival: at, Timed: true})
			if err != nil {
				if !errors.Is(err, ErrAllShardsFailed) {
					t.Fatal(err)
				}
				lats = append(lats, -1)
				continue
			}
			lats = append(lats, r.Stats.Latency)
		}
		return inj.Log(), cl.SelfHeal(), lats
	}
	log1, heal1, lats1 := run()
	log2, heal2, lats2 := run()
	if !reflect.DeepEqual(log1, log2) {
		t.Fatalf("fault logs differ: %d vs %d events", len(log1), len(log2))
	}
	if heal1 != heal2 {
		t.Fatalf("self-heal counters differ:\n%+v\n%+v", heal1, heal2)
	}
	if !reflect.DeepEqual(lats1, lats2) {
		t.Fatal("per-query latencies differ across identically seeded runs")
	}
	if len(log1) == 0 {
		t.Fatal("chaos plan injected nothing (test is vacuous)")
	}
}

// TestClusterCancelMidHedgeNoLeak extends the straggler-cancel leak
// check to the hedge interleaving: queries on a hedging cluster (tiny
// HedgeDelay, so every shard hedges) have their client contexts
// cancelled at random points mid-flight — before, during, and after the
// hedged attempt. Neither the primary nor the hedge path may leak a
// goroutine, and the cluster must keep serving afterwards.
func TestClusterCancelMidHedgeNoLeak(t *testing.T) {
	c := parityCorpus(t)
	queries := parityQueries(c, 24)
	cl := buildCluster(t, c, 2, Config{
		Engine:     core.Config{Mode: core.Hybrid},
		TopK:       10,
		Replicas:   2,
		Routing:    LeastPending,
		HedgeDelay: time.Nanosecond, // every sub-query is slower: always hedge
	})
	defer cl.Close()

	// Warm path sanity: hedges actually fire on this cluster.
	r, err := cl.Search(context.Background(), queries[0].Terms)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats.Hedges == 0 {
		t.Fatal("hedge never dispatched (test is vacuous)")
	}

	before := runtime.NumGoroutine()
	var wg sync.WaitGroup
	for i, q := range queries {
		wg.Add(1)
		go func(i int, terms []string) {
			defer wg.Done()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			switch i % 3 {
			case 0:
				cancel() // dead on arrival
			case 1:
				// Mid-flight: fires between operator boundaries of the
				// primary or the hedged attempt.
				timer := time.AfterFunc(time.Duration(i)*10*time.Microsecond, cancel)
				defer timer.Stop()
			}
			if _, err := cl.Search(ctx, terms); err != nil &&
				!errors.Is(err, context.Canceled) && !errors.Is(err, ErrAllShardsFailed) {
				t.Errorf("cancelled hedged query error = %v", err)
			}
		}(i, q.Terms)
	}
	wg.Wait()

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			break
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after cancelled hedged run", before, after)
	}

	// The cluster still serves normal queries afterwards.
	if _, err := cl.Search(context.Background(), queries[0].Terms); err != nil {
		t.Fatal(err)
	}
}
