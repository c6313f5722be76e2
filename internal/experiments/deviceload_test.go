package experiments

import "testing"

func TestEngineLoadStudyShape(t *testing.T) {
	cfg, c, queries := extensionFixtures(t)
	res, table, err := RunEngineLoadStudy(cfg, c, queries)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, table)
	if len(res.Points) != 3 {
		t.Fatalf("expected 3 load points, got %d", len(res.Points))
	}
	if res.MeanService <= 0 {
		t.Fatal("no calibration mean")
	}
	light, heavy := res.Points[0], res.Points[len(res.Points)-1]
	// The static engine's tail must degrade past device saturation...
	if heavy.StaticP99 <= light.StaticP99 {
		t.Fatalf("static P99 did not degrade with load: %v -> %v\n%s",
			light.StaticP99, heavy.StaticP99, table.Render())
	}
	if heavy.StaticWait == 0 {
		t.Fatalf("overloaded static engine charged no queueing delay\n%s", table.Render())
	}
	// ...while the backlog-aware spill keeps it bounded (the loadsim
	// spill-limited Replay shape, reproduced by the real engine).
	if heavy.SpillP99 >= heavy.StaticP99 {
		t.Fatalf("spill P99 %v not below static P99 %v under overload\n%s",
			heavy.SpillP99, heavy.StaticP99, table.Render())
	}
	if heavy.Utilization <= 0 || heavy.Utilization > 1 {
		t.Fatalf("device utilization %v out of range\n%s", heavy.Utilization, table.Render())
	}
}

func TestStreamSweepMonotone(t *testing.T) {
	cfg, c, queries := extensionFixtures(t)
	res, table, err := RunStreamSweep(cfg, c, queries)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, table)
	if len(res.Points) != 3 {
		t.Fatalf("expected 3 sweep points, got %d", len(res.Points))
	}
	for i := 1; i < len(res.Points); i++ {
		prev, cur := res.Points[i-1], res.Points[i]
		if cur.Streams <= prev.Streams {
			t.Fatalf("sweep not ascending in streams: %+v", res.Points)
		}
		if cur.P99 > prev.P99 {
			t.Fatalf("P99 not monotone non-increasing: %d streams -> %v, %d streams -> %v\n%s",
				prev.Streams, prev.P99, cur.Streams, cur.P99, table.Render())
		}
		if cur.MeanWait > prev.MeanWait {
			t.Fatalf("mean wait grew with lanes: %v -> %v\n%s", prev.MeanWait, cur.MeanWait, table.Render())
		}
	}
	// The offered load must actually stress the single-lane runtime, and
	// the extra lanes must relieve it: strict improvement end to end.
	if res.Points[0].MeanWait == 0 {
		t.Fatalf("single-lane sweep point shows no queueing\n%s", table.Render())
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.P99 >= first.P99 {
		t.Fatalf("4 lanes did not improve P99 over 1 lane: %v -> %v\n%s",
			first.P99, last.P99, table.Render())
	}
}
