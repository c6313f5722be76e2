package experiments

import (
	"time"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/fault"
	"griffin/internal/loadsim"
	"griffin/internal/workload"
)

// ChaosPoint is one fault rate of the chaos study, measured twice over
// the identical injected fault stream: once with every self-healing
// mechanism armed (CPU fallback, sibling retry, circuit breakers,
// hedging) and once with all of them disabled.
type ChaosPoint struct {
	// Rate is the base per-opportunity fault probability; the plan derives
	// every kind's rate from it (see fault.ChaosPlan).
	Rate float64
	// Availability is the hardened cluster's fraction of queries answered
	// completely — neither failed nor degraded.
	Availability float64
	// Mean and P99 are the hardened cluster's sojourn times under load,
	// chaos included (fallback re-execution, retry backoff, stalls).
	Mean time.Duration
	P99  time.Duration
	// Retries, Hedges, Fallbacks, Failed count the self-healing actions
	// the hardened cluster took across the run.
	Retries   int
	Hedges    int
	Fallbacks int
	Failed    int
	// BrittleAvailability and BrittleP99 are the same load over the same
	// fault plan with self-healing off: device faults and engine errors
	// surface as lost shards instead of being absorbed.
	BrittleAvailability float64
	BrittleP99          time.Duration
}

// ChaosSweepResult is the fault-rate sweep: availability and tail
// latency against injected fault rate, hardened vs brittle.
type ChaosSweepResult struct {
	// Rate is the offered Poisson load in queries/second (moderate, not
	// saturating: the study isolates fault handling, not queueing).
	Rate   float64
	Points []ChaosPoint
}

// runChaosSweep measures availability (fraction of queries answered
// completely) and tail latency against injected fault rate on a 4-shard,
// 2-replica hybrid cluster. Each rate runs twice over the identical
// fault plan: hardened (CPU fallback + sibling retry + breakers +
// hedging) and brittle (all self-healing disabled), so the spread
// between the availability columns is exactly what the robustness layer
// buys. Everything is seeded: the same Config reproduces the same fault
// log, availability, and latency table bit for bit.
func runChaosSweep(cfg Config) (ChaosSweepResult, *Table, error) {
	c, queries, err := studyCorpus(cfg, chaosShape)
	if err != nil {
		return ChaosSweepResult{}, nil, err
	}
	sample := termsOf(queries, len(queries))
	// Every cluster serves one split: a cluster never writes to its shards.
	ixs, err := workload.PartitionCorpus(c, 4)
	if err != nil {
		return ChaosSweepResult{}, nil, err
	}

	mkCluster := func(inj *fault.Injector, hardened bool, hedge time.Duration) (*cluster.Cluster, error) {
		clCfg := cluster.Config{
			Engine:   core.Config{Mode: core.Hybrid, CPU: cfg.CPU},
			TopK:     10,
			Replicas: 2,
			Routing:  cluster.LeastPending,
			Fault:    inj,
		}
		if hardened {
			clCfg.HedgeDelay = hedge
		} else {
			clCfg.Engine.NoCPUFallback = true
			clCfg.Retries = -1
			clCfg.Breaker = fault.BreakerConfig{Threshold: -1}
		}
		return cluster.New(ixs, clCfg)
	}

	// Calibrate the load off a fault-free pass: moderate (half the
	// clean drain rate per shard replica set) so queueing exists but the
	// availability signal is the faults, not saturation. The hedge delay
	// is set well past the clean mean: it fires on stalled or resetting
	// replicas, not on ordinary variance.
	iso, err := mkCluster(nil, true, 0)
	if err != nil {
		return ChaosSweepResult{}, nil, err
	}
	cleanMean, err := meanLatency(sample, clusterSearch(iso))
	iso.Close()
	if err != nil {
		return ChaosSweepResult{}, nil, err
	}
	rate := 0.5 / cleanMean.Seconds()
	hedge := 2 * cleanMean

	res := ChaosSweepResult{Rate: rate}
	t := &Table{
		Title: "Extension: chaos sweep (availability and tail latency vs injected fault rate)",
		Columns: []Column{pct("fault rate", 0), pct("avail", 2), pct("avail (brittle)", 2), msec("mean"), msec("P99"),
			msec("P99 (brittle)"), count("retries"), count("hedges"), count("fallbacks"), count("failed")},
	}
	t.note("4 shards x 2 replicas, hybrid engines; identical seeded fault plan for both columns of each row")
	t.note("fault mix per base rate r: kernel-launch r, transfer r, device-reset r/4 (2ms window), engine-error r/2, shard-stall r (3ms)")
	t.note("hardened: CPU fallback on device faults + sibling retry + circuit breakers + hedged requests")
	t.note("brittle: all self-healing disabled — device faults and engine errors surface as lost shards")
	t.note("availability = fraction of queries answered completely (neither failed nor degraded)")
	t.note("offered load {} q/s (half the clean drain rate); hedge delay {} ms",
		perSecond("offered load", "q/s").of(rate), msec("hedge delay").of(hedge))

	for i, fr := range []float64{0, 0.02, 0.05, 0.10} {
		seed := cfg.Seed*7919 + int64(i+1)
		run := func(hardened bool) (loadsim.Result, error) {
			var inj *fault.Injector
			if fr > 0 {
				inj = fault.NewInjector(fault.ChaosPlan(seed, fr))
			}
			cl, err := mkCluster(inj, hardened, hedge)
			if err != nil {
				return loadsim.Result{}, err
			}
			defer cl.Close()
			// Under a fault plan a query may lose every shard; the target
			// counts it as failed instead of ending the run.
			return loadsim.Drive(loadsim.ClusterTarget(cl), sample, loadsim.Spec{ArrivalRate: rate, Seed: cfg.Seed + 331})
		}
		hard, err := run(true)
		if err != nil {
			return ChaosSweepResult{}, nil, err
		}
		brittle, err := run(false)
		if err != nil {
			return ChaosSweepResult{}, nil, err
		}
		p := ChaosPoint{
			Rate:                fr,
			Availability:        hard.Available(),
			Mean:                hard.Latencies.Mean(),
			P99:                 hard.Latencies.Percentile(99),
			Retries:             hard.Retries,
			Hedges:              hard.Hedges,
			Fallbacks:           hard.Fallbacks,
			Failed:              hard.Interactive.Failed,
			BrittleAvailability: brittle.Available(),
			BrittleP99:          brittle.Latencies.Percentile(99),
		}
		res.Points = append(res.Points, p)
		t.row(fr*100, p.Availability*100, p.BrittleAvailability*100, p.Mean, p.P99, p.BrittleP99,
			p.Retries, p.Hedges, p.Fallbacks, p.Failed)
	}
	return res, t, nil
}
