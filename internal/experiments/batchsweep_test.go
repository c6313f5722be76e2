package experiments

import "testing"

// The batch sweep's acceptance shape: batching lifts saturated
// throughput at every shard count (≥1.3x at 4 shards, the PR criterion)
// while isolated latency does not move at all — contention-free queries
// lead rebate-free batches of one, so both arms run the identical
// timeline. The simulation is deterministic, so these are exact
// assertions, not tolerances.
func TestBatchSweepShape(t *testing.T) {
	cfg := testConfig()
	cfg.Scale = 0.05
	res, table, err := runBatchSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, cfg, table)
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
