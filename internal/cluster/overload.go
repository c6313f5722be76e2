package cluster

import (
	"time"

	"griffin/internal/kernels"
	"griffin/internal/overload"
)

// QueryOpts carries one query's overload parameters. The zero value is
// no explicit deadline and the interactive class.
type QueryOpts struct {
	// Deadline is this query's deadline budget on the modeled clock,
	// overriding Config.Overload.DefaultDeadline (0 = use the default;
	// both zero = no deadline).
	Deadline time.Duration
	// Class is the query's criticality: Batch traffic is the first tier
	// shed under brownout, Interactive is degraded before being refused.
	Class overload.Class
}

// pressure is the brownout ladder's input signal: the backlog the
// slowest shard would charge a query arriving now, with each shard
// represented by its best replica (the one the router would pick). When
// even the best replica of some shard is deeply backlogged, every query
// must wait on it — that is cluster-wide pressure, not a cold replica.
func (c *Cluster) pressure(now time.Duration, timed bool) time.Duration {
	var worst time.Duration
	for _, g := range c.shards {
		best := g.replicas[0].queueDelay(now, timed)
		for _, rep := range g.replicas[1:] {
			if b := rep.queueDelay(now, timed); b < best {
				best = b
			}
		}
		if best > worst {
			worst = best
		}
	}
	return worst
}

// worstMergeCost prices the gather-side merge of a full candidate set —
// every shard contributing top-k documents — under the cluster's CPU
// model: the default deadline reserve.
func (c *Cluster) worstMergeCost() time.Duration {
	parts := make([][]kernels.ScoredDoc, len(c.shards))
	for s := range parts {
		docs := make([]kernels.ScoredDoc, c.cfg.TopK)
		for i := range docs {
			docs[i] = kernels.ScoredDoc{DocID: uint32(s*c.cfg.TopK + i), Score: float32(c.cfg.TopK - i)}
		}
		parts[s] = docs
	}
	_, work := MergeTopK(parts, c.cfg.TopK)
	return c.cfg.CPU.Time(work)
}

// OverloadStats is the cluster's overload-control snapshot, the /statz
// surface. Zero-valued throughout when overload control is off.
type OverloadStats struct {
	// Enabled mirrors Config.Overload.Enabled(); DefaultDeadline and
	// MergeReserve are the resolved deadline parameters.
	Enabled         bool
	DefaultDeadline time.Duration
	MergeReserve    time.Duration
	// Brownout is the degradation ladder's state and counters.
	Brownout overload.BrownoutStats
	// RetryBudget aggregates the per-shard token buckets.
	RetryBudget overload.BudgetStats
	// ShardOffers/ShardSheds aggregate the per-replica CoDel shedders.
	ShardOffers int64
	ShardSheds  int64
	// DeadlineInfeasible counts queries refused because their budget was
	// below the merge reserve; DeadlineMisses queries answered late;
	// BudgetRejects sub-queries refused by device budget admission;
	// HedgeSkips hedges suppressed by brownout or the token budget.
	DeadlineInfeasible int64
	DeadlineMisses     int64
	BudgetRejects      int64
	HedgeSkips         int64
}

// OverloadEnabled reports whether any overload control is configured.
func (c *Cluster) OverloadEnabled() bool { return c.cfg.Overload.Enabled() }

// Overload snapshots the cluster's overload-control state.
func (c *Cluster) Overload() OverloadStats {
	st := OverloadStats{
		Enabled:            c.cfg.Overload.Enabled(),
		DefaultDeadline:    c.cfg.Overload.DefaultDeadline,
		MergeReserve:       c.mergeReserve,
		Brownout:           c.brownout.Stats(),
		DeadlineInfeasible: c.deadlineInfeasible.Load(),
		DeadlineMisses:     c.deadlineMisses.Load(),
		BudgetRejects:      c.budgetRejects.Load(),
		HedgeSkips:         c.hedgeSkips.Load(),
	}
	for _, g := range c.shards {
		st.RetryBudget.Add(g.budget.Stats())
		for _, rep := range g.replicas {
			ss := rep.shed.Stats()
			st.ShardOffers += ss.Offered
			st.ShardSheds += ss.Sheds
		}
	}
	return st
}
