package griffin

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§4). Each bench runs the corresponding experiment
// from internal/experiments — real algorithms under the calibrated
// hardware models — and reports the reproduced quantities as custom
// metrics (simulated milliseconds, ratios, speedups) alongside the usual
// wall-clock numbers.
//
// Scale: benches default to GRIFFIN_BENCH_SCALE=0.2 of the paper's data
// sizes to keep -bench runs in minutes; set the environment variable to
// 1.0 for the full paper-scale regeneration (cmd/griffin-bench does the
// same with a flag).

import (
	"os"
	"strconv"
	"sync"
	"testing"
	"time"

	"griffin/internal/experiments"
	"griffin/internal/workload"
)

func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Scale = 0.2
	if s := os.Getenv("GRIFFIN_BENCH_SCALE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			cfg.Scale = v
		}
	}
	return cfg
}

// sharedCorpus caches the end-to-end corpus and query log across benches.
var (
	corpusOnce sync.Once
	corpusVal  *workload.Corpus
	queriesVal []workload.Query
	corpusErr  error
)

func sharedCorpus(b *testing.B, cfg experiments.Config) (*workload.Corpus, []workload.Query) {
	b.Helper()
	corpusOnce.Do(func() {
		corpusVal, corpusErr = cfg.BuildCorpus()
		if corpusErr != nil {
			return
		}
		queriesVal = workload.GenerateQueryLog(corpusVal, workload.QuerySpec{
			NumQueries:      max(int(10_000*cfg.Scale), 150), // the paper's 10,000 queries, scaled
			PopularityAlpha: 0.45,
			Seed:            cfg.Seed + 11,
		})
	})
	if corpusErr != nil {
		b.Fatal(corpusErr)
	}
	return corpusVal, queriesVal
}

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// BenchmarkTable1CompressionRatio regenerates Table 1: average compression
// ratio of PForDelta vs Elias-Fano (paper: 3.3 vs 4.6).
func BenchmarkTable1CompressionRatio(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.RunTable1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PFDRatio, "pfd-ratio")
		b.ReportMetric(res.EFRatio, "ef-ratio")
	}
}

// BenchmarkFig7Ranking regenerates Figure 7: CPU partial_sort vs GPU
// bucketSelect vs GPU radixSort (paper: CPU fastest at realistic sizes).
func BenchmarkFig7Ranking(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.RunFig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		small := res.Points[0]
		b.ReportMetric(msOf(small.CPUTime), "cpu-1K-ms")
		b.ReportMetric(msOf(small.BucketSel), "bucket-1K-ms")
		b.ReportMetric(msOf(small.RadixSort), "radix-1K-ms")
	}
}

// BenchmarkFig8Crossover regenerates Figure 8: the GPU/CPU intersection
// crossover by length-ratio group (paper: crossover at ratio ~128).
func BenchmarkFig8Crossover(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.RunFig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := res.Points[0], res.Points[len(res.Points)-1]
		b.ReportMetric(float64(lo.CPUTime)/float64(lo.GPUTime), "gpu-advantage-low-ratio")
		b.ReportMetric(float64(hi.GPUTime)/float64(hi.CPUTime), "cpu-advantage-high-ratio")
	}
}

// BenchmarkFig10ListSizeCDF regenerates Figure 10: the corpus list-size
// distribution.
func BenchmarkFig10ListSizeCDF(b *testing.B) {
	cfg := benchConfig()
	c, _ := sharedCorpus(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.RunFig10(cfg, c)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CDF[0]*100, "cdf-at-1K-pct")
	}
}

// BenchmarkFig11TermDistribution regenerates Figure 11: the query log's
// term-count distribution (paper: ~27%/33%/24% for 2/3/4 terms).
func BenchmarkFig11TermDistribution(b *testing.B) {
	cfg := benchConfig()
	c, _ := sharedCorpus(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, _, err := experiments.RunFig11(cfg, c)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Fractions[2]*100, "two-term-pct")
		b.ReportMetric(res.Fractions[3]*100, "three-term-pct")
	}
}

// BenchmarkFig12Decompression regenerates Figure 12: CPU PForDelta vs GPU
// Para-EF decompression (paper: <2x at 1K, up to ~29.6x at 10M).
func BenchmarkFig12Decompression(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.RunFig12(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[0].Speedup, "speedup-1K")
		b.ReportMetric(res.Points[len(res.Points)-1].Speedup, "speedup-max")
	}
}

// BenchmarkFig13Intersection regenerates Figure 13: the four-way
// intersection comparison (paper: GPU merge up to 87x over CPU merge,
// up to 2.29x over GPU binary).
func BenchmarkFig13Intersection(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.RunFig13(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last := res.Points[len(res.Points)-1]
		b.ReportMetric(float64(last.CPUMerge)/float64(last.GPUMerge), "gpumerge-vs-cpumerge")
		b.ReportMetric(float64(last.GPUBinary)/float64(last.GPUMerge), "gpumerge-vs-gpubinary")
	}
}

// BenchmarkFig14EndToEnd regenerates Figure 14: end-to-end latency by
// term count for the three modes (paper: Griffin ~10x over CPU-only,
// ~1.5x over GPU-only).
func BenchmarkFig14EndToEnd(b *testing.B) {
	cfg := benchConfig()
	c, queries := sharedCorpus(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.RunFig14(cfg, c, queries)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SpeedupVsCPU, "speedup-vs-cpu")
		b.ReportMetric(res.SpeedupVsGPU, "speedup-vs-gpu")
	}
}

// BenchmarkFig15TailLatency regenerates Figure 15: tail-latency reduction
// (paper: 6.6x/8.3x/10.4x/16.1x/26.8x at P80/P90/P95/P99/P99.9).
func BenchmarkFig15TailLatency(b *testing.B) {
	cfg := benchConfig()
	c, queries := sharedCorpus(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res14, _, err := experiments.RunFig14(cfg, c, queries)
		if err != nil {
			b.Fatal(err)
		}
		res15, _ := experiments.RunFig15(res14.CPURecorder, res14.GriffinRecorder)
		b.ReportMetric(res15.Points[0].Speedup, "p80-speedup")
		b.ReportMetric(res15.Points[3].Speedup, "p99-speedup")
	}
}

// BenchmarkAblationCrossover sweeps the scheduler threshold (the §3.2
// design choice: 128 = block size).
func BenchmarkAblationCrossover(b *testing.B) {
	cfg := benchConfig()
	c, queries := sharedCorpus(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.RunCrossoverAblation(cfg, c, queries)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.BestCrossover, "best-crossover")
	}
}

// BenchmarkAblationMigration compares sticky vs re-evaluating migration.
func BenchmarkAblationMigration(b *testing.B) {
	cfg := benchConfig()
	c, queries := sharedCorpus(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.RunMigrationAblation(cfg, c, queries)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(msOf(res.StickyMean), "sticky-mean-ms")
		b.ReportMetric(msOf(res.NonStickyMean), "nonsticky-mean-ms")
	}
}

// BenchmarkExtensionLoadStudy runs the multi-user queueing study (the
// paper's §6 future work): CPU-only vs Griffin P99 under offered load.
func BenchmarkExtensionLoadStudy(b *testing.B) {
	cfg := benchConfig()
	c, queries := sharedCorpus(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.RunLoadStudy(cfg, c, queries)
		if err != nil {
			b.Fatal(err)
		}
		at := res.Points[3] // CPU saturation point
		b.ReportMetric(msOf(at.CPUOnlyP99), "cpu-p99-at-saturation-ms")
		b.ReportMetric(msOf(at.GriffinP99), "griffin-p99-at-saturation-ms")
	}
}

// BenchmarkExtensionListCache measures the device-resident list cache
// (bounded-LRU middle ground of the §5 caching discussion).
func BenchmarkExtensionListCache(b *testing.B) {
	cfg := benchConfig()
	c, queries := sharedCorpus(b, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.RunCacheStudy(cfg, c, queries)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(msOf(res.ColdMean), "cold-mean-ms")
		b.ReportMetric(msOf(res.WarmMean), "warm-mean-ms")
	}
}
