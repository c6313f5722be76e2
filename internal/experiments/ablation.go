package experiments

import (
	"time"

	"griffin/internal/core"
	"griffin/internal/sched"
	"griffin/internal/workload"
)

// AblationPoint is one crossover-threshold setting of the scheduler
// ablation: mean Griffin latency over the query log with that threshold.
type AblationPoint struct {
	Crossover float64
	MeanLat   time.Duration
}

// AblationResult sweeps the scheduler's crossover threshold, the design
// choice §3.2 justifies both empirically (Figure 8) and analytically (the
// 128-element block-size argument). The sweep shows 128 at or near the
// minimum: small thresholds push comparable-length intersections onto the
// CPU (losing GPU parallelism), large thresholds push skewed
// intersections onto the GPU (paying transfer and divergence for work the
// CPU skips outright).
type AblationResult struct {
	Points []AblationPoint
	// BestCrossover is the threshold with the lowest mean latency.
	BestCrossover float64
}

// runCrossoverAblation evaluates Griffin under thresholds 16..1024.
func runCrossoverAblation(cfg Config, c *workload.Corpus, queries []workload.Query) (AblationResult, *Table, error) {
	var res AblationResult
	t := &Table{
		Title:   "Ablation: scheduler crossover threshold (mean query ms)",
		Columns: []Column{count("crossover"), msec("mean latency")},
	}
	t.note("paper's choice: 128 (= compression block size)")
	// Trim the log for the sweep: each threshold runs the full pipeline.
	sample := termsOf(queries, cfg.scaled(300, 60))

	best := time.Duration(1<<62 - 1)
	for _, crossover := range []float64{16, 32, 64, 128, 256, 512, 1024} {
		e, err := core.New(c.Index, core.Config{
			Mode:   core.Hybrid,
			CPU:    cfg.CPU,
			Device: cfg.Device,
			Policy: &sched.RatioPolicy{Crossover: crossover, Sticky: true},
		})
		if err != nil {
			return res, nil, err
		}
		mean, err := meanLatency(sample, engineSearch(e))
		if err != nil {
			return res, nil, err
		}
		res.Points = append(res.Points, AblationPoint{Crossover: crossover, MeanLat: mean})
		if mean < best {
			best = mean
			res.BestCrossover = crossover
		}
		t.row(crossover, mean)
	}
	t.note("measured best: {}", count("best crossover").of(res.BestCrossover))
	return res, t, nil
}

// PolicyAblationResult compares the paper's fixed ratio-128 rule against
// the cost-model-based scheduler (sched.CostPolicy), the "more complex
// scheduling" extension direction.
type PolicyAblationResult struct {
	RatioMean time.Duration
	CostMean  time.Duration
}

// runPolicyAblation evaluates both scheduling policies over the query log.
func runPolicyAblation(cfg Config, c *workload.Corpus, queries []workload.Query) (PolicyAblationResult, *Table, error) {
	var res PolicyAblationResult
	sample := termsOf(queries, cfg.scaled(300, 60))

	run := func(policy sched.Policy) (time.Duration, error) {
		e, err := core.New(c.Index, core.Config{
			Mode: core.Hybrid, CPU: cfg.CPU, Device: cfg.Device, Policy: policy,
		})
		if err != nil {
			return 0, err
		}
		return meanLatency(sample, engineSearch(e))
	}
	var err error
	if res.RatioMean, err = run(sched.NewRatioPolicy()); err != nil {
		return res, nil, err
	}
	costPolicy := sched.NewCostPolicy()
	costPolicy.GPU = *cfg.Device.Model()
	costPolicy.CPU = cfg.CPU
	if res.CostMean, err = run(costPolicy); err != nil {
		return res, nil, err
	}
	t := &Table{
		Title:   "Ablation: ratio-threshold vs cost-model scheduling (mean query ms)",
		Columns: []Column{label("policy"), msec("mean latency")},
	}
	t.row("ratio 128 (paper)", res.RatioMean)
	t.row("cost model", res.CostMean)
	t.note("the ratio rule proxies the cost comparison; the explicit estimator also keeps tiny lists off the GPU")
	return res, t, nil
}

// MigrationAblationResult compares the paper's sticky migration rule with
// a non-sticky policy that re-evaluates every intersection.
type MigrationAblationResult struct {
	StickyMean    time.Duration
	NonStickyMean time.Duration
}

// runMigrationAblation quantifies the sticky-migration design choice.
func runMigrationAblation(cfg Config, c *workload.Corpus, queries []workload.Query) (MigrationAblationResult, *Table, error) {
	var res MigrationAblationResult
	sample := termsOf(queries, cfg.scaled(300, 60))

	run := func(sticky bool) (time.Duration, error) {
		e, err := core.New(c.Index, core.Config{
			Mode:   core.Hybrid,
			CPU:    cfg.CPU,
			Device: cfg.Device,
			Policy: &sched.RatioPolicy{Crossover: sched.DefaultCrossover, Sticky: sticky},
		})
		if err != nil {
			return 0, err
		}
		return meanLatency(sample, engineSearch(e))
	}
	var err error
	if res.StickyMean, err = run(true); err != nil {
		return res, nil, err
	}
	if res.NonStickyMean, err = run(false); err != nil {
		return res, nil, err
	}
	t := &Table{
		Title:   "Ablation: sticky vs re-evaluating migration (mean query ms)",
		Columns: []Column{label("policy"), msec("mean latency")},
	}
	t.row("sticky (paper)", res.StickyMean)
	t.row("re-evaluate each op", res.NonStickyMean)
	t.note("ratios only grow as SvS progresses, so sticky loses little and saves transfers")
	return res, t, nil
}
