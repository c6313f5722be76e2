package experiments

import (
	"fmt"
	"time"

	"griffin/internal/core"
	"griffin/internal/stats"
	"griffin/internal/workload"
)

// Fig14Point is one term-count group of the end-to-end comparison (§4.4,
// Figure 14): mean query latency for CPU-only, GPU-only, and Griffin.
type Fig14Point struct {
	Terms    int // 7 means ">6"
	Queries  int
	CPUOnly  time.Duration
	GPUOnly  time.Duration
	PerQuery time.Duration // Figure 1(c): static whole-query placement
	Griffin  time.Duration
}

// Fig14Result reproduces the end-to-end latency comparison, extended with
// the Figure 1(c) per-query static-hybrid baseline the paper's related
// work contrasts against (Ding et al.). The paper measures Griffin ~10x
// faster than CPU-only and ~1.5x faster than GPU-only on average.
type Fig14Result struct {
	Points []Fig14Point
	// Mean speedups across all queries.
	SpeedupVsCPU      float64
	SpeedupVsGPU      float64
	SpeedupVsPerQuery float64
	// Recorders feed the Figure 15 tail study from the same run.
	CPURecorder     *stats.LatencyRecorder
	GriffinRecorder *stats.LatencyRecorder
}

// runFig14 runs the query log under all three engine modes and groups
// mean latency by term count.
func runFig14(cfg Config, c *workload.Corpus, queries []workload.Query) (Fig14Result, *Table, error) {
	cpuE, err := core.New(c.Index, core.Config{Mode: core.CPUOnly, CPU: cfg.CPU})
	if err != nil {
		return Fig14Result{}, nil, err
	}
	gpuE, err := core.New(c.Index, core.Config{Mode: core.GPUOnly, CPU: cfg.CPU, Device: cfg.Device})
	if err != nil {
		return Fig14Result{}, nil, err
	}
	pqE, err := core.New(c.Index, core.Config{Mode: core.PerQueryHybrid, CPU: cfg.CPU, Device: cfg.Device})
	if err != nil {
		return Fig14Result{}, nil, err
	}
	hybE, err := core.New(c.Index, core.Config{Mode: core.Hybrid, CPU: cfg.CPU, Device: cfg.Device})
	if err != nil {
		return Fig14Result{}, nil, err
	}

	type agg struct {
		n                 int
		cpu, gpu, pq, hyb time.Duration
	}
	groups := map[int]*agg{}
	res := Fig14Result{
		CPURecorder:     stats.NewLatencyRecorder(len(queries)),
		GriffinRecorder: stats.NewLatencyRecorder(len(queries)),
	}
	var cpuTot, gpuTot, pqTot, hybTot time.Duration
	for _, q := range queries {
		rc, err := cpuE.Search(q.Terms)
		if err != nil {
			return res, nil, err
		}
		rg, err := gpuE.Search(q.Terms)
		if err != nil {
			return res, nil, err
		}
		rp, err := pqE.Search(q.Terms)
		if err != nil {
			return res, nil, err
		}
		rh, err := hybE.Search(q.Terms)
		if err != nil {
			return res, nil, err
		}
		k := len(q.Terms)
		if k > 6 {
			k = 7
		}
		g := groups[k]
		if g == nil {
			g = &agg{}
			groups[k] = g
		}
		g.n++
		g.cpu += rc.Stats.Latency
		g.gpu += rg.Stats.Latency
		g.pq += rp.Stats.Latency
		g.hyb += rh.Stats.Latency
		cpuTot += rc.Stats.Latency
		gpuTot += rg.Stats.Latency
		pqTot += rp.Stats.Latency
		hybTot += rh.Stats.Latency
		res.CPURecorder.Record(rc.Stats.Latency)
		res.GriffinRecorder.Record(rh.Stats.Latency)
	}

	t := &Table{
		Title: "Figure 14: End-to-End Query Latency by #Terms (mean ms)",
		Columns: []Column{label("#terms"), count("queries"), msec("CPU only"), msec("GPU only"),
			msec("per-query (1c)"), msec("Griffin")},
	}
	t.note("paper: Griffin ~10x over CPU-only, ~1.5x over GPU-only on average")
	t.note("per-query (1c) = static whole-query placement (Ding et al.), added baseline")
	for _, k := range []int{2, 3, 4, 5, 6, 7} {
		g := groups[k]
		if g == nil || g.n == 0 {
			continue
		}
		p := Fig14Point{
			Terms:    k,
			Queries:  g.n,
			CPUOnly:  g.cpu / time.Duration(g.n),
			GPUOnly:  g.gpu / time.Duration(g.n),
			PerQuery: g.pq / time.Duration(g.n),
			Griffin:  g.hyb / time.Duration(g.n),
		}
		res.Points = append(res.Points, p)
		t.row(termsLabel(k), g.n, p.CPUOnly, p.GPUOnly, p.PerQuery, p.Griffin)
	}
	if hybTot > 0 {
		res.SpeedupVsCPU = float64(cpuTot) / float64(hybTot)
		res.SpeedupVsGPU = float64(gpuTot) / float64(hybTot)
		res.SpeedupVsPerQuery = float64(pqTot) / float64(hybTot)
		t.note("measured mean speedup: {} vs CPU-only, {} vs GPU-only, {} vs per-query",
			times("mean speedup vs CPU-only", 1).of(res.SpeedupVsCPU),
			times("mean speedup vs GPU-only", 2).of(res.SpeedupVsGPU),
			times("mean speedup vs per-query", 2).of(res.SpeedupVsPerQuery))
	}
	return res, t, nil
}

// Fig15Point is one percentile of the tail-latency study (§4.5, Figure 15).
type Fig15Point struct {
	Percentile float64
	CPUOnly    time.Duration
	Griffin    time.Duration
	Speedup    float64
}

// Fig15Result reproduces the tail-latency reduction: the paper measures
// 6.6x / 8.3x / 10.4x / 16.1x / 26.8x at P80/P90/P95/P99/P99.9, the
// speedup growing with the percentile because the heaviest queries gain
// the most from the GPU.
type Fig15Result struct {
	Points []Fig15Point
}

// runFig15 derives the tail comparison from Figure 14's recorders.
func runFig15(cpuRec, hybRec *stats.LatencyRecorder) (Fig15Result, *Table) {
	var res Fig15Result
	t := &Table{
		Title:   "Figure 15: Tail Latency Reduction",
		Columns: []Column{label("percentile"), msec("CPU only (ms)"), msec("Griffin (ms)"), times("speedup", 1)},
	}
	t.note("paper: 6.6x/8.3x/10.4x/16.1x/26.8x at P80/P90/P95/P99/P99.9")
	for _, p := range []float64{80, 90, 95, 99, 99.9} {
		cp := cpuRec.Percentile(p)
		hp := hybRec.Percentile(p)
		pt := Fig15Point{Percentile: p, CPUOnly: cp, Griffin: hp}
		if hp > 0 {
			pt.Speedup = float64(cp) / float64(hp)
		}
		res.Points = append(res.Points, pt)
		t.row(fmt.Sprintf("P%g", p), cp, hp, pt.Speedup)
	}
	return res, t
}
