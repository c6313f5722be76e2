package experiments

import "testing"

// The ingest sweep's acceptance shape: availability stays >= 99% at
// every write fraction on the merge arm (the PR criterion — snapshot
// isolation means concurrent merges never fail a read), merges actually
// commit and charge device time once writes flow (the quantified
// interference), and the merge arm ends with a smaller unmerged delta
// than the no-merge control. The write-free point is the read-only
// baseline: both arms identical, no merges, no lag.
func TestIngestSweepShape(t *testing.T) {
	cfg := testConfig()
	cfg.Scale = 0.05
	res, table, err := runIngestSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, cfg, table)
	if len(res.Points) != 4 {
		t.Fatalf("expected 4 sweep points, got %d", len(res.Points))
	}
	if res.Rate <= 0 || res.Threshold <= 0 {
		t.Fatalf("calibration missing: rate %v threshold %d", res.Rate, res.Threshold)
	}
	for _, p := range res.Points {
		if p.AvailabilityOn < 0.99 || p.AvailabilityOff < 0.99 {
			t.Fatalf("wf %.1f: availability below 99%% (off %.3f, on %.3f)\n%s",
				p.WriteFraction, p.AvailabilityOff, p.AvailabilityOn, table.Render())
		}
		if p.P99Off <= 0 || p.P99On <= 0 {
			t.Fatalf("wf %.1f: missing p99 (%v, %v)\n%s",
				p.WriteFraction, p.P99Off, p.P99On, table.Render())
		}
		if p.WriteFraction == 0 {
			if p.Writes != 0 || p.Merges != 0 || p.LagOff != 0 || p.LagOn != 0 {
				t.Fatalf("read-only point ingested: %+v\n%s", p, table.Render())
			}
			if p.P99On != p.P99Off {
				t.Fatalf("read-only point: arms diverged (%v vs %v)\n%s",
					p.P99Off, p.P99On, table.Render())
			}
			continue
		}
		if p.Writes == 0 || p.IngestRate <= 0 {
			t.Fatalf("wf %.1f: no writes applied\n%s", p.WriteFraction, table.Render())
		}
		if p.Merges == 0 || p.MergeDevice <= 0 {
			t.Fatalf("wf %.1f: merge arm committed no priced merges (%d, %v)\n%s",
				p.WriteFraction, p.Merges, p.MergeDevice, table.Render())
		}
		if p.LagOn >= p.LagOff {
			t.Fatalf("wf %.1f: merging did not reduce residual lag (%d vs %d)\n%s",
				p.WriteFraction, p.LagOn, p.LagOff, table.Render())
		}
		if p.PeakOn > p.PeakOff {
			t.Fatalf("wf %.1f: merge arm delta peak %d exceeds no-merge %d\n%s",
				p.WriteFraction, p.PeakOn, p.PeakOff, table.Render())
		}
	}
}
