package experiments

import "testing"

// The batch sweep's acceptance shape: batching lifts saturated
// throughput at every shard count (≥1.3x at 4 shards, the PR criterion)
// while isolated latency does not move at all — contention-free queries
// lead rebate-free batches of one, so both arms run the identical
// timeline. The simulation is deterministic, so these are exact
// assertions, not tolerances.
func TestBatchSweepShape(t *testing.T) {
	run := shardArmsSweep(t)
	res, table := run.res.batch, batchTable(run.res.batch)
	checkGolden(t, run.cfg, table)
	if len(res.Points) != 4 {
		t.Fatalf("expected 4 sweep points, got %d", len(res.Points))
	}
	if res.Rate <= 0 {
		t.Fatalf("no calibrated rate: %v", res.Rate)
	}
	if res.Window <= 0 || res.Max <= 0 {
		t.Fatalf("sweep defaults not applied: window %v max %d", res.Window, res.Max)
	}
	for _, p := range res.Points {
		if p.IsolatedOn != p.IsolatedOff {
			t.Fatalf("%d shards: batching moved isolated latency %v -> %v\n%s",
				p.Shards, p.IsolatedOff, p.IsolatedOn, table.Render())
		}
		if p.ThroughputOn <= p.ThroughputOff {
			t.Fatalf("%d shards: batching did not lift throughput (%.0f vs %.0f)\n%s",
				p.Shards, p.ThroughputOn, p.ThroughputOff, table.Render())
		}
		if p.Shards >= 4 && p.Gain < 1.3 {
			t.Fatalf("%d shards: gain %.2fx below the 1.3x criterion\n%s",
				p.Shards, p.Gain, table.Render())
		}
		if p.MeanBatch <= 1.5 {
			t.Fatalf("%d shards: mean batch %.2f — the stage barely coalesced\n%s",
				p.Shards, p.MeanBatch, table.Render())
		}
		if p.SavedPerQuery <= 0 {
			t.Fatalf("%d shards: no per-query saving\n%s", p.Shards, table.Render())
		}
		if p.WindowFlushes+p.SizeFlushes == 0 {
			t.Fatalf("%d shards: no batch ever flushed\n%s", p.Shards, table.Render())
		}
	}
}

// The batching sweep's off arm is the shard-count sweep, measured once:
// its columns are the shard-count table's, at full precision, and both
// studies load the cluster at the one calibrated rate.
func TestBatchSweepOffArmIsShardSweep(t *testing.T) {
	run := shardArmsSweep(t)
	shard, batch := run.res.shard, run.res.batch
	if batch.Rate != shard.Rate || len(batch.Points) != len(shard.Points) {
		t.Fatalf("batching sweep at %v q/s over %d points, shard-count sweep at %v q/s over %d",
			batch.Rate, len(batch.Points), shard.Rate, len(shard.Points))
	}
	for i, b := range batch.Points {
		s := shard.Points[i]
		if b.Shards != s.Shards || b.IsolatedOff != s.IsolatedMean || b.ThroughputOff != s.Throughput {
			t.Fatalf("point %d: batching off arm (%d shards, iso %v, thr %v) is not the shard-count row (%d shards, iso %v, thr %v)",
				i, b.Shards, b.IsolatedOff, b.ThroughputOff, s.Shards, s.IsolatedMean, s.Throughput)
		}
	}
}
