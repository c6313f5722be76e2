package experiments

import (
	"fmt"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/gpu"
	"griffin/internal/loadsim"
	"griffin/internal/workload"
)

// BatchSweepPoint compares one shard count with the device batching
// stage off and on, everything else identical.
type BatchSweepPoint struct {
	Shards int
	// IsolatedOff and IsolatedOn are contention-free mean cluster
	// latencies. With one query in flight there are no concurrent
	// queries to coalesce with, so batching-on may only self-batch a
	// query's own compatible ops — the latency criterion is that these
	// stay within a few percent of each other.
	IsolatedOff time.Duration
	IsolatedOn  time.Duration
	// ThroughputOff and ThroughputOn are saturated drain rates
	// (completed queries per second of makespan) under the common
	// Poisson load; Gain = on/off is the batching win.
	ThroughputOff float64
	ThroughputOn  float64
	Gain          float64
	// MeanBatch is the mean members per batch in the saturated
	// batching-on pass, summed over every replica device; SavedPerQuery
	// is the total fixed-cost rebate divided by completed queries.
	MeanBatch     float64
	SavedPerQuery time.Duration
	// WindowFlushes and SizeFlushes count how batches closed: a window
	// flush means the coalescing window expired first, a size flush
	// means the batch filled to BatchMax.
	WindowFlushes int64
	SizeFlushes   int64
}

// BatchSweepResult is the cross-query batching study: the shard sweep's
// saturated scatter-gather workload re-run with the per-device batching
// stage off and on at each shard count.
//
// The mechanism under test: under saturation every shard's device sees a
// steady interleaving of compatible ops (uploads, decompress and
// intersect kernels of the same family) from concurrently admitted
// queries. Unbatched, each op pays its full fixed costs — launch
// overhead, DMA setup, cudaMalloc. The batching stage coalesces ops of
// one kernel family whose ready times fall within the window into one
// launch, so the batch pays those fixed costs once and each extra member
// only a small marginal overhead. Throughput rises by the share of
// device busy time the fixed costs used to occupy; results are
// byte-identical because batching changes the simulated timeline only.
//
// Contention-free there is nothing to coalesce with, so isolated
// latencies barely move — batching is a throughput optimization that is
// latency-neutral when the device is idle.
type BatchSweepResult struct {
	// Rate is the offered saturating load in queries/second, calibrated
	// off the 1-shard batching-off isolated mean exactly like the shard
	// sweep.
	Rate float64
	// Window and Max are the batching-on arm's configuration.
	Window time.Duration
	Max    int
	Points []BatchSweepPoint
}

// RunBatchSweep measures the batching stage's saturated-throughput win
// and isolated-latency neutrality across shard counts.
func RunBatchSweep(cfg Config) (BatchSweepResult, *Table, error) {
	window := cfg.BatchWindow
	if window <= 0 {
		window = 2 * time.Millisecond
	}
	max := cfg.BatchMax
	if max <= 0 {
		max = gpu.DefaultBatchMax
	}

	c, queries, err := studyCorpus(cfg, shardSweepShape)
	if err != nil {
		return BatchSweepResult{}, nil, err
	}
	sample := termsOf(queries, len(queries))

	mkCluster := func(shards int, batched bool) (*cluster.Cluster, error) {
		ixs, err := workload.PartitionCorpus(c, shards)
		if err != nil {
			return nil, err
		}
		ecfg := core.Config{Mode: core.Hybrid, CPU: cfg.CPU}
		if batched {
			ecfg.BatchWindow = window
			ecfg.BatchMax = max
		}
		return cluster.New(ixs, cluster.Config{Engine: ecfg, TopK: 10, CPU: cfg.CPU})
	}

	isolated := func(shards int, batched bool) (time.Duration, error) {
		cl, err := mkCluster(shards, batched)
		if err != nil {
			return 0, err
		}
		defer cl.Close()
		return meanLatency(sample, clusterSearch(cl))
	}

	res := BatchSweepResult{Window: window, Max: max}
	t := &Table{
		Title: "Extension: cross-query batching sweep (saturated scatter-gather)",
		Header: []string{"shards", "iso off", "iso on", "thr off (q/s)", "thr on (q/s)",
			"gain", "mean batch", "saved/query", "win flush", "size flush"},
		Notes: []string{
			fmt.Sprintf("batching-on arm: window %v, max %d members; batching-off arm is the PR 6 submission path bit for bit", window, max),
			"isolated columns: contention-free sequential queries — nothing concurrent to coalesce with, so batching is latency-neutral",
			"saturated columns: common Poisson load far past the 1-shard drain rate; throughput = completed/makespan",
			"gain = thr on / thr off: batching refunds the fixed per-op costs (launch, DMA setup, cudaMalloc) all but one batch member would repeat",
			"mean batch and saved/query aggregate every replica device's BatchStats over the saturated batching-on pass",
			"results are byte-identical across both arms — batching moves only the simulated timeline",
		},
	}

	var rate float64
	for _, shards := range []int{1, 2, 4, 8} {
		p := BatchSweepPoint{Shards: shards}
		if p.IsolatedOff, err = isolated(shards, false); err != nil {
			return BatchSweepResult{}, nil, err
		}
		if p.IsolatedOn, err = isolated(shards, true); err != nil {
			return BatchSweepResult{}, nil, err
		}
		if rate == 0 {
			// Same calibration as the shard sweep: deep overload relative
			// to the 1-shard unbatched drain rate, held fixed across shard
			// counts and arms so every run sees the same arrival process.
			rate = 24 / p.IsolatedOff.Seconds()
			res.Rate = rate
		}

		for _, batched := range []bool{false, true} {
			cl, err := mkCluster(shards, batched)
			if err != nil {
				return BatchSweepResult{}, nil, err
			}
			r, err := loadsim.Drive(loadsim.ClusterTarget(cl), sample, loadsim.Spec{ArrivalRate: rate, Seed: cfg.Seed + 331})
			if err != nil {
				cl.Close()
				return BatchSweepResult{}, nil, err
			}
			thr := float64(r.Latencies.Count()) / r.Makespan.Seconds()
			if batched {
				p.ThroughputOn = thr
				st := cl.BatchStats()
				if st.Batches > 0 {
					p.MeanBatch = float64(st.Members) / float64(st.Batches)
				}
				if n := r.Latencies.Count(); n > 0 {
					p.SavedPerQuery = st.Saved / time.Duration(n)
				}
				p.WindowFlushes = st.WindowFlushes
				p.SizeFlushes = st.SizeFlushes
			} else {
				p.ThroughputOff = thr
			}
			cl.Close()
		}
		p.Gain = p.ThroughputOn / p.ThroughputOff

		res.Points = append(res.Points, p)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", shards),
			ms(p.IsolatedOff), ms(p.IsolatedOn),
			fmt.Sprintf("%.0f", p.ThroughputOff),
			fmt.Sprintf("%.0f", p.ThroughputOn),
			fmt.Sprintf("%.2fx", p.Gain),
			fmt.Sprintf("%.1f", p.MeanBatch),
			ms(p.SavedPerQuery),
			fmt.Sprintf("%d", p.WindowFlushes),
			fmt.Sprintf("%d", p.SizeFlushes),
		})
	}
	return res, t, nil
}
