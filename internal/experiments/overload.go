package experiments

import (
	"context"
	"fmt"
	"math"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/loadsim"
	"griffin/internal/overload"
	"griffin/internal/workload"
)

// OverloadPoint is one offered-load multiple of the saturation sweep,
// measured twice over the identical Poisson workload: hardened (deadline
// propagation, admission shedding, retry/hedge budget, brownout) and
// baseline (every control off, queries only scored against the deadline
// after the fact).
type OverloadPoint struct {
	// Multiplier is the offered load as a multiple of the calibrated
	// saturation rate; Rate the resulting queries/second.
	Multiplier float64
	Rate       float64
	// Goodput is the hardened arm's interactive goodput (complete,
	// on-deadline answers over offered interactive queries);
	// BatchGoodput the same for batch traffic (shed first under
	// brownout); BaselineGoodput the baseline arm's interactive goodput.
	Goodput         float64
	BatchGoodput    float64
	BaselineGoodput float64
	// P99/BaselineP99 are answered-query sojourn tails.
	P99         time.Duration
	BaselineP99 time.Duration
	// Sheds counts the hardened arm's overload refusals (admission sheds,
	// batch brownout sheds, deadline-infeasible rejections);
	// BrownoutDegraded its queries served through the brownout CPU path;
	// DeadlineMisses its answers that landed past the deadline.
	Sheds            int
	BrownoutDegraded int
	DeadlineMisses   int
	// RetryHedge totals the hardened arm's token-gated retries and
	// hedges; HedgeSkips the hedges the budget or brownout suppressed.
	// TokensGranted is the token bucket's lifetime grant count, bounded
	// by TokenBound = shards x burst + ratio x admissions — the
	// metastability guarantee, asserted per cell.
	RetryHedge    int
	HedgeSkips    int
	TokensGranted int64
	TokenBound    float64
}

// OverloadSweepResult is the saturation sweep: goodput against offered
// load, hardened vs baseline, around the calibrated saturation rate.
type OverloadSweepResult struct {
	// Deadline is the per-query latency budget (calibrated from the
	// clean and CPU-only means); Saturation the calibrated capacity in
	// queries/second.
	Deadline   time.Duration
	Saturation float64
	Points     []OverloadPoint
}

// runOverloadSweep measures goodput (complete, on-deadline answers over
// offered load) against offered load from 0.2x to 3x the calibrated
// saturation rate on a 2-shard, 2-replica hybrid cluster. Each point
// runs twice over the identical Poisson workload: hardened — deadline
// budgets propagated to device admission, CoDel admission shedding,
// token-budgeted retries/hedges, two-tier brownout (shed batch, then
// degrade interactive to a reduced-top-k CPU-only plan) — and baseline,
// with every control off. Past saturation the baseline's backlog grows
// without bound and its goodput collapses; the hardened cluster keeps
// answering interactive traffic within deadline by shedding batch and
// spending CPU instead of the saturated device. Everything is seeded:
// the same Config reproduces the identical table bit for bit.
func runOverloadSweep(cfg Config) (OverloadSweepResult, *Table, error) {
	c, queries, err := studyCorpus(cfg, overloadShape)
	if err != nil {
		return OverloadSweepResult{}, nil, err
	}
	sample := termsOf(queries, len(queries))
	const shards, replicas = 2, 2
	// Every cluster serves one split: a cluster never writes to its shards.
	ixs, err := workload.PartitionCorpus(c, shards)
	if err != nil {
		return OverloadSweepResult{}, nil, err
	}

	mk := func(mode core.Mode, olc overload.Config, hedge time.Duration) (*cluster.Cluster, error) {
		return cluster.New(ixs, cluster.Config{
			Engine:     core.Config{Mode: mode, CPU: cfg.CPU},
			TopK:       10,
			Replicas:   replicas,
			Routing:    cluster.LeastPending,
			HedgeDelay: hedge,
			Overload:   olc,
		})
	}

	// Calibration pass 1: clean sequential hybrid run — the mean latency
	// of an unloaded query sets the deadline and hedge delay.
	iso, err := mk(core.Hybrid, overload.Config{}, 0)
	if err != nil {
		return OverloadSweepResult{}, nil, err
	}
	cleanMean, err := meanLatency(sample, clusterSearch(iso))
	iso.Close()
	if err != nil {
		return OverloadSweepResult{}, nil, err
	}

	// Calibration pass 1b: burst every query at t=0 on a fresh cluster
	// and read the drain makespan — the achievable throughput with every
	// pipeline (compute, transfer, reset) accounted for, which a
	// busy-time estimate would overstate.
	burst, err := mk(core.Hybrid, overload.Config{}, 0)
	if err != nil {
		return OverloadSweepResult{}, nil, err
	}
	var drain time.Duration
	for _, q := range sample {
		r, err := burst.Query(context.Background(), cluster.Request{Terms: q, Timed: true})
		if err != nil {
			burst.Close()
			return OverloadSweepResult{}, nil, err
		}
		if r.Stats.Latency > drain {
			drain = r.Stats.Latency
		}
	}
	burst.Close()
	if drain <= 0 {
		return OverloadSweepResult{}, nil, fmt.Errorf("overload sweep: burst calibration measured no drain time")
	}
	saturation := float64(len(sample)) / drain.Seconds()

	// Calibration pass 2: CPU-only mean — the brownout escape path must
	// fit inside the deadline with margin, or degrading to CPU would
	// trade budget rejections for deadline misses.
	cpuIso, err := mk(core.CPUOnly, overload.Config{}, 0)
	if err != nil {
		return OverloadSweepResult{}, nil, err
	}
	cpuMean, err := meanLatency(sample, clusterSearch(cpuIso))
	cpuIso.Close()
	if err != nil {
		return OverloadSweepResult{}, nil, err
	}

	// Deadline: generous against both the clean hybrid path and the
	// brownout CPU escape path. Thresholds are spaced so that under
	// sustained overload the ladder engages before the deadline budget
	// starts rejecting device work (escalate < deadline - merge reserve),
	// while light-load queueing bursts stay well below the entry point.
	deadline := 8 * cleanMean
	if d := 4 * cpuMean; d > deadline {
		deadline = d
	}
	hedge := 2 * cleanMean
	// The escalate threshold must sit below the backlog ceiling the
	// deadline budget itself enforces (shard budget minus a query's CPU
	// prefix and device op cost), or level 2 can never be observed: the
	// budget starts rejecting — degrading answers shard by shard —
	// before the pressure signal reaches the ladder's trip point.
	hardened := overload.Config{
		ShedTarget:       3 * deadline / 5,
		ShedInterval:     cleanMean,
		RetryBudget:      0.1,
		BrownoutEnter:    deadline / 2,
		BrownoutEscalate: 3 * deadline / 5,
		BrownoutHold:     8 * cleanMean,
		DegradedTopK:     5,
	}

	// Every point replays the sample for the same number of arrivals, sized
	// from the calibration: n arrivals at twice the saturation rate leave
	// an uncontrolled backlog of n / (2 x saturation) behind them, and the
	// baseline only collapses — rather than merely ending a short burst
	// late — once that is several deadlines deep. The deadline hangs on the
	// CPU-only mean while saturation follows the device, so a faster device
	// needs more arrivals for the same depth: three deadlines at 2x.
	arrivals := replay(sample, int(math.Ceil(3*deadline.Seconds()*2*saturation)))

	res := OverloadSweepResult{Deadline: deadline, Saturation: saturation}
	t := &Table{
		Title: "Extension: overload sweep (goodput vs offered load, hardened vs baseline)",
		Columns: []Column{Column{Name: "load", Unit: "x", Clock: Count, Prec: 1}, pct("goodput", 2), pct("goodput (base)", 2),
			pct("batch goodput", 2), count("sheds"), count("cpu-degraded"), count("misses"), msec("P99"), msec("P99 (base)"),
			count("retry+hedge"), count("tokens"), count("bound")},
	}
	t.note("2 shards x 2 replicas, hybrid engines; identical seeded Poisson workload (20% batch) for both columns of each row")
	t.note("hardened: per-query deadline propagated to device admission + CoDel admission shedding + token-budgeted retries/hedges (10%) + two-tier brownout (shed batch, then serve interactive via reduced-top-k CPU-only plans)")
	t.note("baseline: every overload control off — queries are only scored against the deadline after the fact")
	t.note("goodput = complete answers within the deadline over offered interactive queries")
	t.note("deadline {} ms = max(8x clean mean {} ms, 4x cpu-only mean {} ms); saturation {} q/s from burst drain makespan",
		msec("deadline").of(deadline), msec("clean mean").of(cleanMean), msec("cpu-only mean").of(cpuMean),
		perSecond("saturation", "q/s").of(saturation))
	t.note("{} arrivals per point (the {}-query sample replayed): an uncontrolled backlog at 2x reaches 3 deadlines",
		count("arrivals").of(len(arrivals)), count("sample").of(len(sample)))

	for i, mult := range []float64{0.2, 0.5, 1, 1.5, 2, 3} {
		rate := mult * saturation
		spec := loadsim.Spec{
			ArrivalRate:   rate,
			Seed:          cfg.Seed + 431 + int64(i),
			Deadline:      deadline,
			BatchFraction: 0.2,
		}
		run := func(hard bool) (loadsim.Result, *cluster.Cluster, error) {
			olc, hd := overload.Config{}, time.Duration(0)
			if hard {
				olc, hd = hardened, hedge
			}
			cl, err := mk(core.Hybrid, olc, hd)
			if err != nil {
				return loadsim.Result{}, nil, err
			}
			sp := spec
			sp.PropagateDeadline = hard
			r, err := loadsim.Drive(loadsim.ClusterTarget(cl), arrivals, sp)
			if err != nil {
				cl.Close()
				return loadsim.Result{}, nil, err
			}
			return r, cl, nil
		}
		hard, hcl, err := run(true)
		if err != nil {
			return OverloadSweepResult{}, nil, err
		}
		ost := hcl.Overload()
		hcl.Close()
		base, bcl, err := run(false)
		if err != nil {
			return OverloadSweepResult{}, nil, err
		}
		bcl.Close()

		p := OverloadPoint{
			Multiplier:       mult,
			Rate:             rate,
			Goodput:          hard.Interactive.Goodput(),
			BatchGoodput:     hard.Batch.Goodput(),
			BaselineGoodput:  base.Interactive.Goodput(),
			P99:              hard.Latencies.Percentile(99),
			BaselineP99:      base.Latencies.Percentile(99),
			Sheds:            hard.Interactive.Shed + hard.Batch.Shed,
			BrownoutDegraded: hard.BrownoutDegraded,
			DeadlineMisses:   hard.Interactive.DeadlineMisses + hard.Batch.DeadlineMisses,
			RetryHedge:       hard.Retries + hard.Hedges,
			HedgeSkips:       hard.HedgeSkips,
			TokensGranted:    ost.RetryBudget.Granted,
			TokenBound:       float64(shards)*overload.DefaultRetryBurst + 0.1*float64(ost.RetryBudget.Admissions),
		}
		res.Points = append(res.Points, p)
		t.row(mult, p.Goodput*100, p.BaselineGoodput*100, p.BatchGoodput*100, p.Sheds, p.BrownoutDegraded,
			p.DeadlineMisses, p.P99, p.BaselineP99, p.RetryHedge, p.TokensGranted, p.TokenBound)
	}
	return res, t, nil
}
