package experiments

import (
	"math"
	"time"

	"griffin/internal/core"
	"griffin/internal/loadsim"
	"griffin/internal/stats"
	"griffin/internal/workload"
)

// EngineLoadPoint is one offered-load level of the engine-driven study.
type EngineLoadPoint struct {
	ArrivalRate float64
	StaticP99   time.Duration // Griffin, ratio policy only
	SpillP99    time.Duration // Griffin + load-aware backlog spill
	StaticWait  time.Duration // mean queueing delay per query, static
	SpillWait   time.Duration // mean queueing delay per query, spill
	Utilization float64       // static engine's device utilization
}

// EngineLoadResult is the real-engine load study: where runLoadStudy
// replays extracted traces through an abstract queueing model, this
// study drives the actual engine — plans, kernels, transfers — through
// its shared device runtime at Poisson arrival rates, and measures the
// promoted load-aware policy (core.Config.SpillBacklog) against the
// static ratio policy on true sojourn times.
type EngineLoadResult struct {
	// MeanService is the contention-free mean latency the rates are
	// calibrated against.
	MeanService time.Duration
	Points      []EngineLoadPoint
}

// runEngineLoadStudy sweeps offered load through the real engine. The
// loadsim shape must reproduce: the static engine's tail grows once the
// device saturates, while the backlog-aware spill keeps P99 bounded by
// taking the CPU plan when the queue is long.
func runEngineLoadStudy(cfg Config, c *workload.Corpus, queries []workload.Query) (EngineLoadResult, *Table, error) {
	sample := termsOf(queries, cfg.scaled(1_500, 120))

	mkEngine := func(streams int, spill time.Duration) (*core.Engine, error) {
		return core.New(c.Index, core.Config{
			Mode: core.Hybrid, CPU: cfg.CPU, Device: cfg.Device,
			Streams: streams, SpillBacklog: spill,
		})
	}

	// Calibrate against a contention-free run (a trickle of arrivals): the
	// mean latency sets the spill threshold, and the offered load is a
	// multiple of the rate the device drains at. A query's copies overlap
	// its kernels, so that rate is set by the busiest engine — the single
	// compute lane — not by the latency.
	probe, err := mkEngine(1, 0)
	if err != nil {
		return EngineLoadResult{}, nil, err
	}
	mean, err := meanLatency(sample, engineSearch(probe))
	if err != nil {
		return EngineLoadResult{}, nil, err
	}
	drain := probe.Runtime().Stats().ComputeBusy / time.Duration(len(sample))
	res := EngineLoadResult{MeanService: mean}

	// What a spilled query pays instead of the queue is its CPU plan, and
	// the tail of that is the floor under the spill engine's P99. No
	// device change moves it, so it is measured here and the overloaded
	// run is sized against it below.
	cpuOnly, err := core.New(c.Index, core.Config{Mode: core.CPUOnly, CPU: cfg.CPU})
	if err != nil {
		return EngineLoadResult{}, nil, err
	}
	cpuLat := stats.NewLatencyRecorder(len(sample))
	for _, q := range sample {
		r, err := cpuOnly.Search(q)
		if err != nil {
			return EngineLoadResult{}, nil, err
		}
		cpuLat.Record(r.Stats.Latency)
	}
	cpuP99 := cpuLat.Percentile(99)

	t := &Table{
		Title: "Extension: engine-driven load study (real plans, shared device runtime)",
		Columns: []Column{perSecond("load (q/s)", "q/s"), pct("vs drain rate", 0), msec("static P99"), msec("spill P99"),
			msec("static wait/q"), msec("spill wait/q"), util("device util")},
	}
	t.note("queries run through the real engine via SearchAt: Poisson arrivals on the runtime's global timeline")
	t.note("static = ratio policy; spill = load-aware policy (SpillBacklog) taking the CPU plan when device backlog grows")
	t.note("rates calibrated to the contention-free compute-engine time per query ({} ms; mean latency {} ms)",
		msec("compute time per query").of(drain), msec("mean latency").of(mean))
	// Spill when the queue would add more than two mean service times:
	// low enough to bound the tail at overload, high enough that light
	// load's transient bursts don't push heavy queries onto their much
	// slower CPU plans.
	spillAt := 2 * mean
	fracs := []float64{0.5, 1.5, 3.0}
	for i, frac := range fracs {
		rate := frac / drain.Seconds()
		spec := loadsim.Spec{ArrivalRate: rate, Seed: cfg.Seed + 177}
		arrivals := sample
		if i == len(fracs)-1 {
			// The overload point. n arrivals at frac times the drain rate
			// leave a queue of at most n x drain x (1 - 1/frac) behind
			// them, so on a short sample "overload" is a bounded burst,
			// and the faster the device drains the smaller it is. The
			// static engine's tail is unbounded only against the spill's
			// once that queue outgrows the plan the spill falls back on:
			// replay the sample until it reaches twice the CPU plan's P99.
			need := float64(2*cpuP99) / (float64(drain) * (1 - 1/frac))
			arrivals = replay(sample, int(math.Ceil(need)))
			t.note("{} row: {} arrivals, enough for an undrained queue to reach 2x the CPU-only P99 ({} ms); other rows {}",
				pct("overload row", 0).of(frac*100), count("overload arrivals").of(len(arrivals)),
				msec("CPU-only P99").of(cpuP99), count("arrivals").of(len(sample)))
		}

		static, err := mkEngine(1, 0)
		if err != nil {
			return EngineLoadResult{}, nil, err
		}
		rs, err := loadsim.Drive(loadsim.EngineTarget(static), arrivals, spec)
		if err != nil {
			return EngineLoadResult{}, nil, err
		}
		spillE, err := mkEngine(1, spillAt)
		if err != nil {
			return EngineLoadResult{}, nil, err
		}
		ra, err := loadsim.Drive(loadsim.EngineTarget(spillE), arrivals, spec)
		if err != nil {
			return EngineLoadResult{}, nil, err
		}

		nq := time.Duration(len(arrivals))
		p := EngineLoadPoint{
			ArrivalRate: rate,
			StaticP99:   rs.Latencies.Percentile(99),
			SpillP99:    ra.Latencies.Percentile(99),
			StaticWait:  static.Runtime().Stats().Waited / nq,
			SpillWait:   spillE.Runtime().Stats().Waited / nq,
			Utilization: rs.GPUBusy,
		}
		res.Points = append(res.Points, p)
		t.row(rate, frac*100, p.StaticP99, p.SpillP99, p.StaticWait, p.SpillWait, p.Utilization)
	}
	return res, t, nil
}

// replay cycles through sample until it has n arrivals; a sample that is
// already long enough is returned as it is.
func replay(sample [][]string, n int) [][]string {
	if n <= len(sample) {
		return sample
	}
	out := make([][]string, n)
	for i := range out {
		out[i] = sample[i%len(sample)]
	}
	return out
}

// StreamSweepPoint is one compute-lane count of the concurrency sweep.
type StreamSweepPoint struct {
	Streams     int
	P99         time.Duration
	MeanWait    time.Duration
	Utilization float64
}

// StreamSweepResult is the device-concurrency sweep: the same Poisson
// load offered to runtimes with 1, 2, and 4 simulated compute lanes.
// Service times are identical across configurations (the plans don't
// change), so added lanes can only remove queueing: P99 must be
// monotone non-increasing in the stream count.
type StreamSweepResult struct {
	Rate   float64
	Points []StreamSweepPoint
}

// runStreamSweep measures tail latency against compute-lane count under
// an offered load that saturates the single-lane configuration.
func runStreamSweep(cfg Config, c *workload.Corpus, queries []workload.Query) (StreamSweepResult, *Table, error) {
	sample := termsOf(queries, cfg.scaled(1_000, 100))

	// The engines cache hot compressed lists on the device: with repeat
	// uploads gone, compute (decompression + intersection kernels) is the
	// bottleneck, so the lane count — not the single copy engine — governs
	// queueing. Each engine is Closed after its run to return the cache's
	// device memory before the next configuration allocates its own.
	mkEngine := func(streams int) (*core.Engine, error) {
		return core.New(c.Index, core.Config{
			Mode: core.Hybrid, CPU: cfg.CPU, Device: cfg.Device, Streams: streams,
			CacheLists: true, CacheBytes: 1 << 30,
		})
	}
	probe, err := mkEngine(1)
	if err != nil {
		return StreamSweepResult{}, nil, err
	}
	mean, err := meanLatency(sample, engineSearch(probe))
	probe.Close()
	if err != nil {
		return StreamSweepResult{}, nil, err
	}
	rate := 2.5 / mean.Seconds() // past single-lane saturation
	res := StreamSweepResult{Rate: rate}

	t := &Table{
		Title:   "Extension: device-concurrency sweep (compute lanes vs tail latency)",
		Columns: []Column{count("streams"), msec("P99"), msec("mean wait/q"), util("device util")},
	}
	t.note("Poisson load at {} q/s (2.5x the single-lane drain rate), identical per-query plans", perSecond("load", "q/s").of(rate))
	t.note("compressed lists cached on device: compute lanes, not the copy engine, govern queueing")
	t.note("added lanes only remove queueing: P99 is monotone non-increasing in stream count")
	for _, streams := range []int{1, 2, 4} {
		e, err := mkEngine(streams)
		if err != nil {
			return StreamSweepResult{}, nil, err
		}
		r, err := loadsim.Drive(loadsim.EngineTarget(e), sample, loadsim.Spec{ArrivalRate: rate, Seed: cfg.Seed + 271})
		if err != nil {
			e.Close()
			return StreamSweepResult{}, nil, err
		}
		p := StreamSweepPoint{
			Streams:     streams,
			P99:         r.Latencies.Percentile(99),
			MeanWait:    e.Runtime().Stats().Waited / time.Duration(len(sample)),
			Utilization: r.GPUBusy,
		}
		e.Close()
		res.Points = append(res.Points, p)
		t.row(streams, p.P99, p.MeanWait, p.Utilization)
	}
	return res, t, nil
}
