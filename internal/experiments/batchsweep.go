package experiments

import "time"

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
// saturated scatter-gather workload, whose off arm is the shard sweep
// itself, beside the same clusters with the per-device batching stage on.
//
// The mechanism under test: under saturation every shard's device sees a
// steady interleaving of compatible ops (uploads, decompress and
// intersect kernels of the same family) from concurrently admitted
// queries. Unbatched, each op pays its full fixed costs — launch
// overhead and DMA setup. The batching stage coalesces ops of
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
	// Rate is the offered saturating load in queries/second: the shard
	// sweep's, calibrated off the 1-shard batching-off isolated mean.
	Rate float64
	// Window and Max are the batching-on arm's configuration.
	Window time.Duration
	Max    int
	Points []BatchSweepPoint
}

// runBatchSweep measures the batching stage's saturated-throughput win
// and isolated-latency neutrality across shard counts: both arms of
// runShardArms.
func runBatchSweep(cfg Config) (BatchSweepResult, *Table, error) {
	_, res, err := runShardArms(cfg, true)
	if err != nil {
		return BatchSweepResult{}, nil, err
	}
	return res, batchTable(res), nil
}

// batchTable prints the batching sweep.
func batchTable(res BatchSweepResult) *Table {
	t := &Table{
		Title: "Extension: cross-query batching sweep (saturated scatter-gather)",
		Columns: []Column{count("shards"), msec("iso off"), msec("iso on"), perSecond("thr off (q/s)", "q/s"),
			perSecond("thr on (q/s)", "q/s"), times("gain", 2), Column{Name: "mean batch", Clock: Count, Prec: 1},
			msec("saved/query"), count("win flush"), count("size flush")},
	}
	t.note("batching-on arm: window {}ms, max {} members; batching-off arm is the unbatched submission path bit for bit",
		Column{Name: "window", Unit: "ms", Clock: Count}.of(res.Window), count("max members").of(res.Max))
	t.note("isolated columns: contention-free sequential queries — nothing concurrent to coalesce with, so batching is latency-neutral")
	t.note("saturated columns: common Poisson load far past the 1-shard drain rate; throughput = completed/makespan")
	t.note("gain = thr on / thr off: batching refunds the fixed per-op costs (launch, DMA setup) all but one batch member would repeat")
	t.note("mean batch and saved/query aggregate every replica device's BatchStats over the saturated batching-on pass")
	t.note("results are byte-identical across both arms — batching moves only the simulated timeline")
	for _, p := range res.Points {
		t.row(p.Shards, p.IsolatedOff, p.IsolatedOn, p.ThroughputOff, p.ThroughputOn,
			p.Gain, p.MeanBatch, p.SavedPerQuery, p.WindowFlushes, p.SizeFlushes)
	}
	return t
}
