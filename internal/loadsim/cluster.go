package loadsim

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/stats"
)

// ClusterResult extends Result with cluster-level outcomes.
type ClusterResult struct {
	Result
	// Degraded counts queries answered partially (shards timed out or
	// errored); Failed counts queries with no answer at all (every shard
	// failed — only possible under chaos with TolerateFailures set, since
	// otherwise RunCluster aborts on the first such query).
	Degraded int
	Failed   int
	// Retries, Hedges, and Fallbacks total the cluster's self-healing
	// actions across the run (sibling retries, hedged sub-queries,
	// CPU-fallback sub-queries).
	Retries   int
	Hedges    int
	Fallbacks int
	// MaxShardMean and MergeMean decompose the mean latency into the
	// critical-path shard and the gather-side merge, verifying the
	// cluster's latency model under load: Latency = MaxShard + Merge for
	// every query, so the means decompose the same way.
	MaxShardMean time.Duration
	MergeMean    time.Duration
}

// Available returns the fraction of queries answered completely — not
// failed, not degraded. The chaos studies' availability metric.
func (r ClusterResult) Available() float64 {
	total := r.Latencies.Count() + r.Failed
	if total == 0 {
		return 1
	}
	return float64(total-r.Failed-r.Degraded) / float64(total)
}

// RunCluster drives a sharded cluster under Poisson load, the cluster
// analogue of RunEngine: each query is admitted at its generated arrival
// time on every shard replica's device timeline (a timed
// cluster.Request), so a shard whose device still carries backlog from
// earlier arrivals delays the queries routed to it — and, through the
// max-over-shards critical path, the whole cluster response. Sequential wall-clock execution in
// arrival order remains a faithful discrete-event evaluation because
// every replica runtime's engine queue serves FCFS.
//
// The cluster should be dedicated to the run. Latencies are sojourn
// times of the cluster critical path: slowest awaited shard plus merge.
func RunCluster(cl *cluster.Cluster, queries [][]string, spec Spec) (ClusterResult, error) {
	rng := rand.New(rand.NewSource(spec.Seed))
	res := ClusterResult{Result: Result{Latencies: stats.NewLatencyRecorder(len(queries))}}
	if len(queries) == 0 || spec.ArrivalRate <= 0 {
		return res, nil
	}
	var t time.Duration
	var maxShardSum, mergeSum time.Duration
	answered := 0
	for _, q := range queries {
		t += time.Duration(rng.ExpFloat64() / spec.ArrivalRate * float64(time.Second))
		r, err := cl.Query(context.Background(), cluster.Request{Terms: q, Arrival: t, Timed: true})
		if err != nil {
			if spec.TolerateFailures && errors.Is(err, cluster.ErrAllShardsFailed) {
				res.Failed++
				continue
			}
			return res, err
		}
		answered++
		res.Latencies.Record(r.Stats.Latency)
		maxShardSum += r.Stats.MaxShard
		mergeSum += r.Stats.MergeTime
		if r.Stats.Degraded {
			res.Degraded++
		}
		res.Retries += r.Stats.Retries
		res.Hedges += r.Stats.Hedges
		res.Fallbacks += r.Stats.Fallbacks
		if end := t + r.Stats.Latency; end > res.Makespan {
			res.Makespan = end
		}
	}
	if answered > 0 {
		res.MaxShardMean = maxShardSum / time.Duration(answered)
		res.MergeMean = mergeSum / time.Duration(answered)
	}

	// GPUBusy reports the busiest replica device: in a scatter-gather
	// tier the hottest shard bounds throughput.
	for _, row := range cl.Telemetry() {
		if row.Device != nil && row.Device.Utilization > res.GPUBusy {
			res.GPUBusy = row.Device.Utilization
		}
	}
	return res, nil
}
