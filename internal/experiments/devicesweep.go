package experiments

import (
	"fmt"
	"time"

	"griffin/internal/core"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/loadsim"
)

// DeviceSweepPoint is one device count of the multi-GPU scaling study.
type DeviceSweepPoint struct {
	Devices int
	// IsolatedMean is the contention-free mean latency. A single query
	// runs on exactly one device regardless of the node size, so this
	// must stay flat across device counts — multi-GPU buys throughput,
	// not single-query speed.
	IsolatedMean time.Duration
	// Throughput is the drain rate under deep saturation: completed
	// queries per second of makespan. Devices have independent compute
	// and copy timelines, so throughput scales with the device count
	// until the offered load itself becomes the ceiling.
	Throughput float64
	// Mean and P99 are saturated sojourn times (queueing included).
	Mean time.Duration
	P99  time.Duration
	// Utilization is node-level: busy time over capacity summed across
	// all devices.
	Utilization float64
	// PeerCopies counts cache misses served over the inter-device
	// interconnect from a sibling device's cache instead of a host
	// re-upload (zero at one device — there is no sibling).
	PeerCopies int64
}

// DeviceSweepResult is the multi-GPU node scaling study over 1, 2, 4,
// and 8 simulated devices on one un-sharded corpus. Where the shard
// sweep splits the *data* (lists shrink ~1/N, cutting isolated latency),
// the device sweep splits only the *load*: every device sees the full
// index, the affinity placement policy spreads queries across devices
// weighing backlog against cached-list residency, and per-device caches
// pull hot lists over the modeled peer interconnect rather than back
// across host PCIe. Results are byte-identical across device counts
// (placement moves work, never changes answers — the parity guarantee
// tested in internal/core).
type DeviceSweepResult struct {
	// Rate is the offered saturating load in queries/second, calibrated
	// far past the 1-device drain rate.
	Rate   float64
	Points []DeviceSweepPoint
}

// RunDeviceSweep measures contention-free latency and saturated
// throughput against the node's device count.
func RunDeviceSweep(cfg Config) (DeviceSweepResult, *Table, error) {
	c, queries, err := studyCorpus(cfg, shardSweepShape)
	if err != nil {
		return DeviceSweepResult{}, nil, err
	}
	sample := termsOf(queries, len(queries))

	// Fresh device per engine: a shared one would leak timeline state
	// (and cache contents) across configurations.
	mkEngine := func(devices int) (*core.Engine, error) {
		return core.New(c.Index, core.Config{
			Mode: core.Hybrid, CPU: cfg.CPU,
			Device:     gpu.New(hwmodel.DefaultGPU(), 0),
			Devices:    devices,
			CacheLists: true, CacheBytes: 1 << 30,
		})
	}

	res := DeviceSweepResult{}
	t := &Table{
		Title: "Extension: device-count sweep (multi-GPU node scaling)",
		Header: []string{"devices", "isolated mean", "throughput (q/s)", "speedup",
			"sat. mean", "sat. P99", "node util", "peer copies"},
		Notes: []string{
			"one engine, one shard: N simulated devices with independent compute/copy timelines behind affinity placement",
			"isolated mean: contention-free single-query latency — flat across device counts (one query runs on one device)",
			"saturated columns: Poisson load far past the 1-device drain rate; throughput = completed/makespan",
			"peer copies: cache misses served device-to-device over the modeled interconnect instead of host PCIe",
			"per-query results are byte-identical across device counts (placement moves work, never changes answers)",
		},
	}

	var rate, base float64
	for _, devices := range []int{1, 2, 4, 8} {
		// Contention-free pass: fresh engine, sequential searches.
		iso, err := mkEngine(devices)
		if err != nil {
			return DeviceSweepResult{}, nil, err
		}
		isoMean, err := meanLatency(sample, engineSearch(iso))
		iso.Close()
		if err != nil {
			return DeviceSweepResult{}, nil, err
		}
		p := DeviceSweepPoint{Devices: devices, IsolatedMean: isoMean}

		if rate == 0 {
			// Calibrate the saturating load off the 1-device mean: deep
			// overload so completed/makespan measures drain capacity.
			rate = 24 / p.IsolatedMean.Seconds()
			res.Rate = rate
		}

		// Saturated pass: fresh engine under the common Poisson load.
		e, err := mkEngine(devices)
		if err != nil {
			return DeviceSweepResult{}, nil, err
		}
		r, err := loadsim.Drive(loadsim.EngineTarget(e), sample, loadsim.Spec{ArrivalRate: rate, Seed: cfg.Seed + 331})
		if err != nil {
			e.Close()
			return DeviceSweepResult{}, nil, err
		}
		p.Throughput = float64(r.Latencies.Count()) / r.Makespan.Seconds()
		p.Mean = r.Latencies.Mean()
		p.P99 = r.Latencies.Percentile(99)
		p.Utilization = r.GPUBusy
		p.PeerCopies = e.CacheStats().PeerCopies
		e.Close()
		if base == 0 {
			base = p.Throughput
		}
		res.Points = append(res.Points, p)
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", devices),
			ms(p.IsolatedMean),
			fmt.Sprintf("%.0f", p.Throughput),
			fmt.Sprintf("%.2fx", p.Throughput/base),
			ms(p.Mean), ms(p.P99),
			fmt.Sprintf("%.2f", p.Utilization),
			fmt.Sprintf("%d", p.PeerCopies),
		})
	}
	return res, t, nil
}
