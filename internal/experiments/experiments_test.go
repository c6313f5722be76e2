package experiments

import (
	"testing"
	"time"

	"griffin/internal/workload"
)

// testConfig is a fast, small-scale configuration for shape validation.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.02
	return cfg
}

func TestTable1Shape(t *testing.T) {
	cfg := testConfig()
	res, table, err := runTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, cfg, table)
	// The reproduction target: EF compresses better than PForDelta, both
	// well above 1x (paper: 3.3 vs 4.6).
	if res.EFRatio <= res.PFDRatio {
		t.Fatalf("EF ratio %.2f not better than PFD %.2f", res.EFRatio, res.PFDRatio)
	}
	if res.PFDRatio < 1.5 || res.EFRatio < 2 {
		t.Fatalf("ratios implausibly low: pfd=%.2f ef=%.2f", res.PFDRatio, res.EFRatio)
	}
	if len(table.Rows) != 1 {
		t.Fatal("table shape wrong")
	}
}

func TestFig7Shape(t *testing.T) {
	cfg := testConfig()
	res, table, err := runFig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, cfg, table)
	if len(res.Points) < 3 {
		t.Fatalf("only %d size groups", len(res.Points))
	}
	// Figure 7's conclusion: CPU partial sort wins at small result sizes
	// (the realistic regime; queries rarely exceed a few thousand).
	small := res.Points[0]
	if small.CPUTime >= small.BucketSel || small.CPUTime >= small.RadixSort {
		t.Fatalf("CPU not fastest at %d candidates: cpu=%v bucket=%v radix=%v",
			small.ListSize, small.CPUTime, small.BucketSel, small.RadixSort)
	}
	// bucketSelect beats brute-force radix at the largest size.
	large := res.Points[len(res.Points)-1]
	if large.BucketSel >= large.RadixSort {
		t.Fatalf("bucketSelect %v not faster than radixSort %v at %d",
			large.BucketSel, large.RadixSort, large.ListSize)
	}
}

func TestFig8CrossoverShape(t *testing.T) {
	cfg := testConfig()
	cfg.Scale = 0.1 // crossover needs lists long enough to matter
	res, table, err := runFig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, cfg, table)
	if len(res.Points) != 7 {
		t.Fatalf("expected 7 ratio groups, got %d", len(res.Points))
	}
	// GPU wins at low ratios.
	if res.Points[0].GPUTime >= res.Points[0].CPUTime {
		t.Fatalf("[1,16): GPU %v not faster than CPU %v",
			res.Points[0].GPUTime, res.Points[0].CPUTime)
	}
	// CPU wins at the top ratio group.
	top := res.Points[len(res.Points)-1]
	if top.CPUTime >= top.GPUTime {
		t.Fatalf("[512,1024): CPU %v not faster than GPU %v", top.CPUTime, top.GPUTime)
	}
	// The crossover lands in one of the middle groups (paper: at 128).
	switch res.CrossoverGroup {
	case "[64,128)", "[128,256)", "[256,512)":
	default:
		t.Fatalf("crossover at %q, want a middle group near 128\n%s",
			res.CrossoverGroup, table.Render())
	}
}

func TestFig10Fig11Shapes(t *testing.T) {
	cfg := testConfig()
	c, err := cfg.BuildCorpus()
	if err != nil {
		t.Fatal(err)
	}
	res10, t10, err := runFig10(cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, cfg, t10)
	if res10.CDF[len(res10.CDF)-1] != 1 {
		t.Fatal("CDF must reach 1")
	}
	for i := 1; i < len(res10.CDF); i++ {
		if res10.CDF[i] < res10.CDF[i-1] {
			t.Fatal("CDF not monotone")
		}
	}

	res11, t11, queries, err := runFig11(cfg, c)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, cfg, t11)
	if len(queries) == 0 {
		t.Fatal("no queries generated")
	}
	// Anchors of Figure 11 within tolerance.
	if f := res11.Fractions[3]; f < 0.25 || f > 0.41 {
		t.Fatalf("P(3 terms) = %.2f, want ~0.33", f)
	}
	if f := res11.Fractions[2]; f < 0.19 || f > 0.35 {
		t.Fatalf("P(2 terms) = %.2f, want ~0.27", f)
	}
}

func TestFig12Shape(t *testing.T) {
	cfg := testConfig()
	cfg.Scale = 0.1
	res, table, err := runFig12(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, cfg, table)
	if len(res.Points) < 3 {
		t.Fatalf("only %d size groups", len(res.Points))
	}
	// Speedup grows with list size (overhead amortization + occupancy).
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Speedup <= res.Points[i-1].Speedup {
			t.Fatalf("speedup not monotone: %v\n%s", res.Points, table.Render())
		}
	}
	// The 1K group is in the paper's <2x regime.
	if res.Points[0].Speedup >= 2 {
		t.Fatalf("1K speedup %.1fx, paper says <2x", res.Points[0].Speedup)
	}
	// The largest group shows a large speedup (paper: up to 29.6x at 10M;
	// at this scale 1M should already exceed ~5x).
	last := res.Points[len(res.Points)-1]
	if last.Speedup < 5 {
		t.Fatalf("%s speedup only %.1fx\n%s", fmtSize(last.ListSize), last.Speedup, table.Render())
	}
}

func TestFig13Shape(t *testing.T) {
	cfg := testConfig()
	cfg.Scale = 0.1
	res, table, err := runFig13(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, cfg, table)
	if len(res.Points) < 3 {
		t.Fatal("too few size groups")
	}
	last := res.Points[len(res.Points)-1]
	// Figure 13 on long comparable lists: GPU merge fastest of all four;
	// CPU merge much slower; GPU merge also beats GPU binary.
	if last.GPUMerge >= last.CPUMerge {
		t.Fatalf("GPU merge %v not faster than CPU merge %v\n%s",
			last.GPUMerge, last.CPUMerge, table.Render())
	}
	if last.GPUMerge >= last.GPUBinary {
		t.Fatalf("GPU merge %v not faster than GPU binary %v\n%s",
			last.GPUMerge, last.GPUBinary, table.Render())
	}
	if float64(last.CPUMerge)/float64(last.GPUMerge) < 3 {
		t.Fatalf("GPU merge speedup over CPU merge only %.1fx",
			float64(last.CPUMerge)/float64(last.GPUMerge))
	}
}

// fig14Inputs is Figure 14's corpus and query log at the shape tests'
// scale: 120 queries over a 0.06-scale corpus.
func fig14Inputs(t *testing.T) (Config, *workload.Corpus, []workload.Query) {
	t.Helper()
	cfg := testConfig()
	cfg.Scale = 0.06
	c, err := cfg.BuildCorpus()
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.GenerateQueryLog(c, workload.QuerySpec{
		NumQueries: 120, PopularityAlpha: 0.45, Seed: cfg.Seed + 11,
	})
	return cfg, c, queries
}

func TestFig14Fig15Shapes(t *testing.T) {
	cfg, c, queries := fig14Inputs(t)
	res14, t14, err := runFig14(cfg, c, queries)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, cfg, t14)
	if len(res14.Points) < 3 {
		t.Fatal("too few term groups")
	}
	// Headline shape: Griffin at least matches both baselines on average.
	if res14.SpeedupVsCPU < 1.0 {
		t.Fatalf("Griffin slower than CPU-only: %.2fx\n%s", res14.SpeedupVsCPU, t14.Render())
	}
	if res14.SpeedupVsGPU < 0.95 {
		t.Fatalf("Griffin slower than GPU-only: %.2fx\n%s", res14.SpeedupVsGPU, t14.Render())
	}

	res15, t15 := runFig15(res14.CPURecorder, res14.GriffinRecorder)
	checkGolden(t, cfg, t15)
	if len(res15.Points) != 5 {
		t.Fatal("expected 5 percentiles")
	}
	// Tail speedups: every percentile >= 1 (Griffin never worse).
	for _, p := range res15.Points {
		if p.Speedup < 1.0 {
			t.Fatalf("P%g speedup %.2fx < 1", p.Percentile, p.Speedup)
		}
	}
	// The P99 speedup should be at least the P80 speedup (the paper's
	// "tail gains more" effect); allow slack for small sample sizes.
	if res15.Points[3].Speedup < res15.Points[0].Speedup*0.7 {
		t.Fatalf("tail effect inverted: P80 %.1fx vs P99 %.1fx",
			res15.Points[0].Speedup, res15.Points[3].Speedup)
	}
}

func TestAblationShapes(t *testing.T) {
	cfg := testConfig()
	cfg.Scale = 0.06
	c, err := cfg.BuildCorpus()
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.GenerateQueryLog(c, workload.QuerySpec{
		NumQueries: 60, PopularityAlpha: 0.45, Seed: cfg.Seed + 11,
	})
	abl, table, err := runCrossoverAblation(cfg, c, queries)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, cfg, table)
	if len(abl.Points) != 7 {
		t.Fatal("expected 7 thresholds")
	}
	// The paper's 128 should be competitive: within 25% of the best.
	var at128 time.Duration
	var best time.Duration = 1<<62 - 1
	for _, p := range abl.Points {
		if p.Crossover == 128 {
			at128 = p.MeanLat
		}
		if p.MeanLat < best {
			best = p.MeanLat
		}
	}
	if float64(at128) > float64(best)*1.25 {
		t.Fatalf("crossover 128 (%.3v) >25%% worse than best (%v)\n%s", at128, best, table.Render())
	}

	mig, migTable, err := runMigrationAblation(cfg, c, queries)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, cfg, migTable)
	if mig.StickyMean <= 0 || mig.NonStickyMean <= 0 {
		t.Fatal("ablation produced zero latencies")
	}
}

func TestTableRender(t *testing.T) {
	table := &Table{Title: "T", Columns: []Column{label("a"), times("bb", 1), pct("c %", 0)}}
	table.row("1", 2.0, 3.0)
	table.row("333", 4.25, 50.0)
	table.note("n{}", msec("v").of(1.5))
	want := "== T ==\n" +
		"a    bb    c %\n" +
		"---  ----  ---\n" +
		"1    2.0x  3  \n" +
		"333  4.2x  50 \n" +
		"note: n1.500\n"
	if out := table.Render(); out != want {
		t.Fatalf("render:\n%s\nwant:\n%s", out, want)
	}
}
