package experiments

import (
	"time"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/loadsim"
	"griffin/internal/workload"
)

// ShardSweepPoint is one shard count of the cluster scaling study.
type ShardSweepPoint struct {
	Shards int
	// IsolatedMean is the contention-free mean cluster latency: the
	// max-of-shards critical path with no queueing. Sharding splits every
	// posting list ~1/N, so this shrinks with the shard count.
	IsolatedMean time.Duration
	// Throughput is the drain rate under deep saturation: completed
	// queries per second of makespan. It grows with the shard count only
	// as far as per-query device work dominates the fixed per-kernel
	// costs each shard still pays (launch, DMA setup, occupancy ramp).
	Throughput float64
	// Mean and P99 are saturated sojourn times (queueing included).
	Mean time.Duration
	P99  time.Duration
	// MaxShardMean and MergeMean decompose the saturated Mean: cluster
	// latency = max over awaited shards + merge for every query, so
	// Mean = MaxShardMean + MergeMean.
	MaxShardMean time.Duration
	MergeMean    time.Duration
	// Utilization is the busiest replica device's utilization under load.
	Utilization float64
}

// ShardSweepResult is the scatter-gather scaling study over 1, 2, 4, and
// 8 document partitions of one corpus. Each shard is a full engine with
// a private simulated device; every query fans out to all shards and the
// per-shard top-k lists merge into the global top-k (byte-identical to
// the single-engine result — the parity guarantee tested in
// internal/cluster).
//
// Two regimes are measured. Contention-free, the critical path is the
// slowest shard's sub-query over ~1/N-length lists, so latency drops
// with the shard count. Under deep saturation, throughput is bounded by
// per-shard device occupancy per query: the variable (list-length) part
// shrinks 1/N but the fixed per-kernel part — launch overhead, DMA
// setup, and the occupancy ramp that prices sub-saturation launches at
// reduced throughput — repeats on every shard, so throughput grows
// monotonically but sublinearly. That asymmetry (sharding buys latency
// linearly, throughput only until fixed costs dominate) is the classic
// scatter-gather trade-off, and the corpus here uses uniformly long
// lists so the variable part is visible at all shard counts.
type ShardSweepResult struct {
	// Rate is the offered saturating load in queries/second, calibrated
	// far past the 1-shard drain rate.
	Rate   float64
	Points []ShardSweepPoint
}

// runShardSweep measures contention-free latency and saturated
// throughput against shard count.
func runShardSweep(cfg Config) (ShardSweepResult, *Table, error) {
	c, queries, err := studyCorpus(cfg, shardSweepShape)
	if err != nil {
		return ShardSweepResult{}, nil, err
	}
	sample := termsOf(queries, len(queries))

	mkCluster := func(shards int) (*cluster.Cluster, error) {
		ixs, err := workload.PartitionCorpus(c, shards)
		if err != nil {
			return nil, err
		}
		return cluster.New(ixs, cluster.Config{
			Engine: core.Config{Mode: core.Hybrid, CPU: cfg.CPU},
			TopK:   10,
			CPU:    cfg.CPU,
		})
	}

	res := ShardSweepResult{}
	t := &Table{
		Title: "Extension: shard-count sweep (scatter-gather scaling)",
		Columns: []Column{count("shards"), msec("isolated mean"), perSecond("throughput (q/s)", "q/s"), times("speedup", 2),
			msec("sat. mean"), msec("sat. P99"), msec("max-shard mean"), msec("merge mean"), util("hottest util")},
	}
	t.note("each shard is a full engine with a private simulated device; queries scatter to all shards and gather-merge")
	t.note("isolated mean: contention-free critical path (max over shards + merge) — shrinks with shards as lists split ~1/N")
	t.note("saturated columns: Poisson load far past the 1-shard drain rate; throughput = completed/makespan")
	t.note("throughput grows monotonically but sublinearly: fixed per-kernel costs repeat on every shard")
	t.note("per-query results are byte-identical across shard counts (global statistics preserved by the partitioner)")

	var rate, base float64
	for _, shards := range []int{1, 2, 4, 8} {
		// Contention-free pass: fresh cluster, sequential searches.
		iso, err := mkCluster(shards)
		if err != nil {
			return ShardSweepResult{}, nil, err
		}
		isoMean, err := meanLatency(sample, clusterSearch(iso))
		iso.Close()
		if err != nil {
			return ShardSweepResult{}, nil, err
		}
		p := ShardSweepPoint{Shards: shards, IsolatedMean: isoMean}

		if rate == 0 {
			// Calibrate the saturating load off the 1-shard mean: deep
			// overload so completed/makespan measures drain capacity.
			rate = 24 / p.IsolatedMean.Seconds()
			res.Rate = rate
		}

		// Saturated pass: fresh cluster under the common Poisson load.
		cl, err := mkCluster(shards)
		if err != nil {
			return ShardSweepResult{}, nil, err
		}
		r, err := loadsim.Drive(loadsim.ClusterTarget(cl), sample, loadsim.Spec{ArrivalRate: rate, Seed: cfg.Seed + 331})
		if err != nil {
			cl.Close()
			return ShardSweepResult{}, nil, err
		}
		cl.Close()
		p.Throughput = float64(r.Latencies.Count()) / r.Makespan.Seconds()
		p.Mean = r.Latencies.Mean()
		p.P99 = r.Latencies.Percentile(99)
		p.MaxShardMean = r.MaxShardMean
		p.MergeMean = r.MergeMean
		p.Utilization = r.GPUBusy
		if base == 0 {
			base = p.Throughput
		}
		res.Points = append(res.Points, p)
		t.row(shards, p.IsolatedMean, p.Throughput, p.Throughput/base,
			p.Mean, p.P99, p.MaxShardMean, p.MergeMean, p.Utilization)
	}
	return res, t, nil
}
