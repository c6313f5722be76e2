package experiments

import (
	"fmt"
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

// RunCrossoverAblation evaluates Griffin under thresholds 16..1024.
func RunCrossoverAblation(cfg Config, c *workload.Corpus, queries []workload.Query) (AblationResult, *Table, error) {
	var res AblationResult
	t := &Table{
		Title:  "Ablation: scheduler crossover threshold (mean query ms)",
		Header: []string{"crossover", "mean latency"},
		Notes:  []string{"paper's choice: 128 (= compression block size)"},
	}
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
		t.Rows = append(t.Rows, []string{fmt.Sprintf("%.0f", crossover), ms(mean)})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("measured best: %.0f", res.BestCrossover))
	return res, t, nil
}

// PolicyAblationResult compares the paper's fixed ratio-128 rule against
// the cost-model-based scheduler (sched.CostPolicy), the "more complex
// scheduling" extension direction.
type PolicyAblationResult struct {
	RatioMean time.Duration
	CostMean  time.Duration
}

// RunPolicyAblation evaluates both scheduling policies over the query log.
func RunPolicyAblation(cfg Config, c *workload.Corpus, queries []workload.Query) (PolicyAblationResult, *Table, error) {
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
		Title:  "Ablation: ratio-threshold vs cost-model scheduling (mean query ms)",
		Header: []string{"policy", "mean latency"},
		Rows: [][]string{
			{"ratio 128 (paper)", ms(res.RatioMean)},
			{"cost model", ms(res.CostMean)},
		},
		Notes: []string{
			"the ratio rule proxies the cost comparison; the explicit estimator also keeps tiny lists off the GPU",
		},
	}
	return res, t, nil
}

// MigrationAblationResult compares the paper's sticky migration rule with
// a non-sticky policy that re-evaluates every intersection.
type MigrationAblationResult struct {
	StickyMean    time.Duration
	NonStickyMean time.Duration
}

// RunMigrationAblation quantifies the sticky-migration design choice.
func RunMigrationAblation(cfg Config, c *workload.Corpus, queries []workload.Query) (MigrationAblationResult, *Table, error) {
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
		Title:  "Ablation: sticky vs re-evaluating migration (mean query ms)",
		Header: []string{"policy", "mean latency"},
		Rows: [][]string{
			{"sticky (paper)", ms(res.StickyMean)},
			{"re-evaluate each op", ms(res.NonStickyMean)},
		},
		Notes: []string{
			"ratios only grow as SvS progresses, so sticky loses little and saves transfers",
		},
	}
	return res, t, nil
}
