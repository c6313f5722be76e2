package experiments

import "testing"

// The crash sweep's acceptance shape: the sync arm recovers every
// acknowledged write at every cadence and every seeded crash point —
// 100% survival is the durability contract, not a statistic — the
// deferred arm never beats it, checkpoints only exist on cadenced rows
// and bound the replayed suffix, and the injected torn tails are
// actually hit and truncated.
func TestCrashSweepShape(t *testing.T) {
	cfg := testConfig()
	cfg.Scale = 0.05
	res, table, err := runCrashSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, cfg, table)
	if len(res.Points) != 3 || res.Mutations <= 0 {
		t.Fatalf("expected 3 cadences over a scripted workload, got %+v", res)
	}
	var maxReplayNone, maxReplayDense float64
	for _, p := range res.Points {
		if p.Acked == 0 {
			t.Fatalf("cadence %d: no mutation acknowledged\n%s", p.CheckpointEvery, table.Render())
		}
		if p.Survival != 1.0 {
			t.Fatalf("cadence %d: sync-arm survival %.4f, want exactly 1.0 — an acknowledged write was lost\n%s",
				p.CheckpointEvery, p.Survival, table.Render())
		}
		if p.DeferredSurvival > p.Survival {
			t.Fatalf("cadence %d: deferred sync outlived sync-every-append (%.4f)\n%s",
				p.CheckpointEvery, p.DeferredSurvival, table.Render())
		}
		if p.TornTrials == 0 || p.TruncatedBytes == 0 {
			t.Fatalf("cadence %d: torn-tail injection never hit (trials %d, bytes %d)\n%s",
				p.CheckpointEvery, p.TornTrials, p.TruncatedBytes, table.Render())
		}
		if p.MeanRecovery <= 0 {
			t.Fatalf("cadence %d: recovery time not measured\n%s", p.CheckpointEvery, table.Render())
		}
		switch {
		case p.CheckpointEvery == 0:
			if p.Checkpoints != 0 {
				t.Fatalf("cadence none committed %d checkpoints\n%s", p.Checkpoints, table.Render())
			}
			if p.DeferredSurvival != 0 {
				t.Fatalf("cadence none: deferred arm survived %.4f with nothing ever synced\n%s",
					p.DeferredSurvival, table.Render())
			}
			maxReplayNone = p.MeanReplay
		default:
			if p.Checkpoints == 0 {
				t.Fatalf("cadence %d committed no checkpoints\n%s", p.CheckpointEvery, table.Render())
			}
			if p.DeferredSurvival == 0 {
				t.Fatalf("cadence %d: deferred arm recovered nothing despite checkpoints\n%s",
					p.CheckpointEvery, table.Render())
			}
			if p.CheckpointEvery == res.Mutations/16 {
				maxReplayDense = p.MeanReplay
			}
		}
	}
	if maxReplayDense >= maxReplayNone {
		t.Fatalf("dense checkpoints did not shorten the replayed suffix (%.1f vs %.1f)\n%s",
			maxReplayDense, maxReplayNone, table.Render())
	}
}
