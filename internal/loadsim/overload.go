package loadsim

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/overload"
	"griffin/internal/stats"
)

// OverloadSpec drives RunOverload: a Poisson arrival process with a
// per-query deadline and a batch/interactive class mix. The same spec
// with PropagateDeadline flipped is the overload experiment's two arms —
// the hardened arm threads the deadline and class into the cluster
// (activating its overload controls), the baseline arm serves every
// query obliviously and is only *scored* against the deadline.
type OverloadSpec struct {
	// ArrivalRate is the offered load in queries per second (Poisson).
	ArrivalRate float64
	// Seed drives arrival times and class draws; the same seed yields
	// the identical workload in both arms.
	Seed int64
	// Deadline is the per-query latency budget. Every query is scored
	// against it; with PropagateDeadline it is also enforced.
	Deadline time.Duration
	// BatchFraction is the probability a query is tagged Batch.
	BatchFraction float64
	// PropagateDeadline passes the deadline and class into the cluster.
	PropagateDeadline bool
}

// ClassOutcome aggregates one criticality class's outcomes.
type ClassOutcome struct {
	// Queries is the class's total offered queries; Good those answered
	// complete (no missing shards) within the deadline — the goodput
	// numerator. A brownout-degraded answer (reduced top-k on the CPU
	// path) still counts as good when timely: every shard contributed.
	Queries int
	Good    int
	// DeadlineMisses counts timely-looking answers that landed past the
	// deadline; Degraded answers missing shards; Shed queries refused by
	// overload control (admission shed, batch brownout, infeasible
	// deadline); Failed queries lost to non-overload errors.
	DeadlineMisses int
	Degraded       int
	Shed           int
	Failed         int
}

// Goodput is Good over Queries (1.0 for an empty class).
func (c ClassOutcome) Goodput() float64 {
	if c.Queries == 0 {
		return 1
	}
	return float64(c.Good) / float64(c.Queries)
}

// OverloadResult aggregates one RunOverload arm.
type OverloadResult struct {
	Result
	Interactive ClassOutcome
	Batch       ClassOutcome
	// Retries/Hedges/HedgeSkips total the cluster's self-healing actions
	// over the run; BrownoutDegraded counts queries served through the
	// brownout CPU path.
	Retries          int
	Hedges           int
	HedgeSkips       int
	BrownoutDegraded int
}

// Goodput is the all-classes goodput: good answers over offered load.
func (r OverloadResult) Goodput() float64 {
	q := r.Interactive.Queries + r.Batch.Queries
	if q == 0 {
		return 1
	}
	return float64(r.Interactive.Good+r.Batch.Good) / float64(q)
}

// RunOverload drives a cluster through a deadline-scored saturation
// study: Poisson arrivals on the modeled clock (timed cluster.Requests),
// each query scored good only when answered complete and within the
// deadline. Overload refusals (ErrShed/ErrDeadline wraps) are counted
// as sheds, not failures — they are the control system working. The
// cluster should be dedicated to the run.
func RunOverload(cl *cluster.Cluster, queries [][]string, spec OverloadSpec) (OverloadResult, error) {
	rng := rand.New(rand.NewSource(spec.Seed))
	res := OverloadResult{Result: Result{Latencies: stats.NewLatencyRecorder(len(queries))}}
	if len(queries) == 0 || spec.ArrivalRate <= 0 {
		return res, nil
	}
	var t time.Duration
	for _, q := range queries {
		t += time.Duration(rng.ExpFloat64() / spec.ArrivalRate * float64(time.Second))
		batch := rng.Float64() < spec.BatchFraction
		out := &res.Interactive
		if batch {
			out = &res.Batch
		}
		out.Queries++

		var qo cluster.QueryOpts
		if spec.PropagateDeadline {
			qo.Deadline = spec.Deadline
			if batch {
				qo.Class = overload.Batch
			}
		}
		r, err := cl.Query(context.Background(), cluster.Request{Terms: q, Arrival: t, Timed: true, QueryOpts: qo})
		switch {
		case err != nil && overload.IsOverload(err):
			out.Shed++
			continue
		case err != nil && errors.Is(err, cluster.ErrAllShardsFailed):
			out.Failed++
			continue
		case err != nil:
			return res, err
		}

		res.Latencies.Record(r.Stats.Latency)
		if end := t + r.Stats.Latency; end > res.Makespan {
			res.Makespan = end
		}
		res.Retries += r.Stats.Retries
		res.Hedges += r.Stats.Hedges
		res.HedgeSkips += r.Stats.HedgeSkips
		if r.Stats.ForcedCPU {
			res.BrownoutDegraded++
		}
		late := spec.Deadline > 0 && r.Stats.Latency > spec.Deadline
		switch {
		case r.Stats.Degraded:
			out.Degraded++
		case late:
			out.DeadlineMisses++
		default:
			out.Good++
		}
	}

	for _, row := range cl.Telemetry() {
		if row.Device != nil && row.Device.Utilization > res.GPUBusy {
			res.GPUBusy = row.Device.Utilization
		}
	}
	return res, nil
}
