package experiments

import (
	"testing"
	"time"
)

func TestShardSweepScalingShape(t *testing.T) {
	cfg := testConfig()
	cfg.Scale = 0.05
	res, table, err := runShardSweep(cfg)
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
	for i, p := range res.Points {
		// Tail latency follows the max-of-shards model: every query's
		// sojourn is its slowest awaited shard plus the merge, so the means
		// decompose exactly (within per-query integer-division rounding).
		diff := p.Mean - (p.MaxShardMean + p.MergeMean)
		if diff < -time.Microsecond || diff > time.Microsecond {
			t.Fatalf("%d shards: saturated mean %v != max-shard %v + merge %v\n%s",
				p.Shards, p.Mean, p.MaxShardMean, p.MergeMean, table.Render())
		}
		if p.P99 < p.Mean {
			t.Fatalf("%d shards: P99 %v below mean %v\n%s", p.Shards, p.P99, p.Mean, table.Render())
		}
		if p.Utilization <= 0 || p.Utilization > 1 {
			t.Fatalf("%d shards: utilization %v out of range\n%s", p.Shards, p.Utilization, table.Render())
		}
		if i == 0 {
			continue
		}
		prev := res.Points[i-1]
		// The scaling claims: throughput grows monotonically with the
		// shard count under saturating load...
		if p.Throughput <= prev.Throughput {
			t.Fatalf("throughput not monotone in shards: %d -> %.1f q/s, %d -> %.1f q/s\n%s",
				prev.Shards, prev.Throughput, p.Shards, p.Throughput, table.Render())
		}
		// ...and the contention-free critical path (max over ~1/N-length
		// sub-queries) shrinks with it.
		if p.IsolatedMean >= prev.IsolatedMean {
			t.Fatalf("isolated mean not shrinking with shards: %d -> %v, %d -> %v\n%s",
				prev.Shards, prev.IsolatedMean, p.Shards, p.IsolatedMean, table.Render())
		}
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	// Latency is where scatter-gather scales best: 8-way partitioning
	// must cut the contention-free critical path substantially.
	if last.IsolatedMean > first.IsolatedMean*3/4 {
		t.Fatalf("8 shards cut isolated mean only %v -> %v\n%s",
			first.IsolatedMean, last.IsolatedMean, table.Render())
	}
	// Throughput scales too, though sublinearly (fixed per-kernel costs
	// repeat on every shard).
	if last.Throughput < 1.1*first.Throughput {
		t.Fatalf("8 shards only %.2fx the 1-shard throughput\n%s",
			last.Throughput/first.Throughput, table.Render())
	}
}
