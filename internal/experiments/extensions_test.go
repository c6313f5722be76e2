package experiments

import (
	"testing"

	"griffin/internal/workload"
)

func extensionFixtures(t *testing.T) (Config, *workload.Corpus, []workload.Query) {
	t.Helper()
	cfg := testConfig()
	cfg.Scale = 0.05
	c, err := cfg.BuildCorpus()
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.GenerateQueryLog(c, workload.QuerySpec{
		NumQueries: 120, PopularityAlpha: 0.5, Seed: cfg.Seed + 11,
	})
	return cfg, c, queries
}

func TestLoadStudyShape(t *testing.T) {
	cfg, c, queries := extensionFixtures(t)
	res, table, err := runLoadStudy(cfg, c, queries)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, cfg, table)
	if len(res.Points) != 5 {
		t.Fatalf("expected 5 load points, got %d", len(res.Points))
	}
	// CPU-only response time must degrade with offered load.
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if last.CPUOnlyP99 <= first.CPUOnlyP99 {
		t.Fatalf("CPU-only P99 did not degrade with load: %v -> %v\n%s",
			first.CPUOnlyP99, last.CPUOnlyP99, table.Render())
	}
	// Approaching CPU saturation (75% of pool capacity), Griffin must
	// hold a large advantage: it runs the same work mostly on the
	// uncongested device. (At loads past 100% the *single* GPU server can
	// itself saturate — the load-balancing extension hook §3.2 mentions —
	// so the guaranteed-win regime is below CPU capacity.)
	at75 := res.Points[2]
	if at75.GriffinP99 >= at75.CPUOnlyP99 {
		t.Fatalf("at 75%% CPU load Griffin P99 %v not better than CPU-only %v\n%s",
			at75.GriffinP99, at75.CPUOnlyP99, table.Render())
	}
}

func TestCacheStudyShape(t *testing.T) {
	cfg, c, queries := extensionFixtures(t)
	res, table, err := runCacheStudy(cfg, c, queries)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, cfg, table)
	if res.CachedList == 0 {
		t.Fatal("no lists cached")
	}
	if res.WarmMean >= res.ColdMean {
		t.Fatalf("warm pass %v not faster than cold %v\n%s",
			res.WarmMean, res.ColdMean, table.Render())
	}
}
