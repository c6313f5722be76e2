package experiments

import (
	"time"

	"griffin/internal/core"
	"griffin/internal/loadsim"
	"griffin/internal/workload"
)

// LoadPoint is one offered-load level of the multi-user study.
type LoadPoint struct {
	ArrivalRate float64 // queries/second
	CPUOnlyP99  time.Duration
	GriffinP99  time.Duration
	AdaptiveP99 time.Duration // load-aware GPU/CPU spill (§3.2's hook)
	CPUOnlyMean time.Duration
	GriffinMean time.Duration
}

// LoadResult is the heavy-load extension study (the paper's §6 future
// work): per-query traces from the CPU-only and Griffin engines replayed
// through a discrete-event queueing simulation (4-core host pool, single
// device) at increasing Poisson arrival rates. Griffin's offloading keeps
// the CPU pool uncongested, so its response times degrade at much higher
// offered loads.
type LoadResult struct {
	Points []LoadPoint
}

// runLoadStudy traces every query once per engine, then sweeps arrival
// rates through the queueing simulation.
func runLoadStudy(cfg Config, c *workload.Corpus, queries []workload.Query) (LoadResult, *Table, error) {
	cpuE, err := core.New(c.Index, core.Config{Mode: core.CPUOnly, CPU: cfg.CPU})
	if err != nil {
		return LoadResult{}, nil, err
	}
	hybE, err := core.New(c.Index, core.Config{Mode: core.Hybrid, CPU: cfg.CPU, Device: cfg.Device})
	if err != nil {
		return LoadResult{}, nil, err
	}

	sample := termsOf(queries, cfg.scaled(2_000, 150))

	// One plan pair per query: the CPU-only trace is both the CPU-only
	// configuration's plan and the plan Griffin spills to.
	cpuPlans := make([]loadsim.Plan, len(sample))
	hybPlans := make([]loadsim.Plan, len(sample))
	var cpuServiceSum time.Duration
	for i, q := range sample {
		rc, err := cpuE.Search(q)
		if err != nil {
			return LoadResult{}, nil, err
		}
		rh, err := hybE.Search(q)
		if err != nil {
			return LoadResult{}, nil, err
		}
		cpuPlans[i].Segments = loadsim.SegmentsFromStats(rc.Stats)
		hybPlans[i] = loadsim.Plan{Segments: loadsim.SegmentsFromStats(rh.Stats), Spill: cpuPlans[i].Segments}
		cpuServiceSum += rc.Stats.Latency
	}

	// Sweep offered load around the CPU-only pool's saturation point:
	// capacity ~ workers / mean service time.
	meanService := cpuServiceSum / time.Duration(len(sample))
	saturation := 4 / meanService.Seconds()

	var res LoadResult
	t := &Table{
		Title: "Extension: multi-user load study (P99 response ms)",
		Columns: []Column{perSecond("load (q/s)", "q/s"), pct("vs CPU capacity", 0), msec("CPU-only P99"),
			msec("Griffin P99"), msec("adaptive P99"), msec("CPU-only mean"), msec("Griffin mean")},
	}
	t.note("paper §6 future work: heavy system loads with multiple users")
	t.note("4-core host pool, single device, Poisson arrivals, FCFS")
	t.note("adaptive = load-aware spill to CPU when the device backlog grows (§3.2's load-balancing hook)")
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0, 1.5} {
		rate := saturation * frac
		spec := loadsim.Spec{CPUWorkers: 4, ArrivalRate: rate, Seed: cfg.Seed + 77}
		rc := loadsim.Replay(cpuPlans, spec, loadsim.NoSpill)
		rh := loadsim.Replay(hybPlans, spec, loadsim.NoSpill)
		ra := loadsim.Replay(hybPlans, spec, 4)
		p := LoadPoint{
			ArrivalRate: rate,
			CPUOnlyP99:  rc.Latencies.Percentile(99),
			GriffinP99:  rh.Latencies.Percentile(99),
			AdaptiveP99: ra.Latencies.Percentile(99),
			CPUOnlyMean: rc.Latencies.Mean(),
			GriffinMean: rh.Latencies.Mean(),
		}
		res.Points = append(res.Points, p)
		t.row(rate, frac*100, p.CPUOnlyP99, p.GriffinP99, p.AdaptiveP99, p.CPUOnlyMean, p.GriffinMean)
	}
	return res, t, nil
}

// CacheResult is the device-list-cache extension study: repeat-heavy
// query traffic with and without the bounded LRU cache of compressed
// lists (the scalable middle ground between the paper's upload-per-query
// prototype and Ao et al.'s cache-everything design, §5).
type CacheResult struct {
	ColdMean   time.Duration
	WarmMean   time.Duration
	CachedList int
}

// runCacheStudy runs the query log twice through a caching GPU-only
// engine: the first pass pays every upload, the second hits the cache.
func runCacheStudy(cfg Config, c *workload.Corpus, queries []workload.Query) (CacheResult, *Table, error) {
	sample := termsOf(queries, cfg.scaled(500, 80))

	e, err := core.New(c.Index, core.Config{
		Mode: core.GPUOnly, CPU: cfg.CPU, Device: cfg.Device,
		CacheLists: true, CacheBytes: 2 << 30,
	})
	if err != nil {
		return CacheResult{}, nil, err
	}
	defer e.Close()

	cold, err := meanLatency(sample, engineSearch(e))
	if err != nil {
		return CacheResult{}, nil, err
	}
	warm, err := meanLatency(sample, engineSearch(e))
	if err != nil {
		return CacheResult{}, nil, err
	}
	res := CacheResult{ColdMean: cold, WarmMean: warm, CachedList: e.CachedLists()}
	t := &Table{
		Title:   "Extension: device-resident list cache (mean query ms)",
		Columns: []Column{label("pass"), msec("mean latency")},
	}
	t.row("cold (uploads)", cold)
	t.row("warm (cached)", warm)
	t.note("{} compressed lists resident after warmup (LRU, 2 GB bound)", count("resident lists").of(res.CachedList))
	t.note("§5: caching all lists is not scalable; bounded LRU recovers most of the win")
	return res, t, nil
}
