package experiments

import (
	"time"

	"griffin/internal/ef"
	"griffin/internal/gpu"
	"griffin/internal/index"
	"griffin/internal/intersect"
	"griffin/internal/kernels"
	"griffin/internal/stats"
	"griffin/internal/workload"
)

// Fig8Point is one ratio group of the crossover study (§3.2, Figure 8).
type Fig8Point struct {
	Group   stats.RatioGroup
	GPUTime time.Duration // Griffin-GPU intersection (mergepath / binary-skips)
	CPUTime time.Duration // CPU implementation (merge / skip search)
}

// Fig8Result reproduces the GPU/CPU crossover observation: Griffin-GPU
// wins while the length ratio is below ~128 and loses above it.
type Fig8Result struct {
	Points []Fig8Point
	// CrossoverGroup is the first group where the CPU wins.
	CrossoverGroup string
}

// gpuIntersectPair runs one intersection the way Griffin-GPU would (§3.1.2):
// upload both lists compressed; MergePath below the internal crossover,
// parallel binary search over skip pointers above it. Returns the
// simulated device time.
func gpuIntersectPair(dev *gpu.Device, shortIDs, longIDs []uint32, crossover float64) (time.Duration, error) {
	s := dev.NewStream()
	shortList, err := ef.Compress(shortIDs)
	if err != nil {
		return 0, err
	}
	longList, err := ef.Compress(longIDs)
	if err != nil {
		return 0, err
	}
	shortComp, err := kernels.UploadEF(s, shortList)
	if err != nil {
		return 0, err
	}
	defer shortComp.Free()
	shortDec, _, err := kernels.ParaEFDecompress(s, shortComp)
	if err != nil {
		return 0, err
	}
	defer shortDec.Free()

	ratio := float64(len(longIDs)) / float64(len(shortIDs))
	if ratio < crossover {
		longComp, err := kernels.UploadEF(s, longList)
		if err != nil {
			return 0, err
		}
		defer longComp.Free()
		longDec, _, err := kernels.ParaEFDecompress(s, longComp)
		if err != nil {
			return 0, err
		}
		defer longDec.Free()
		res, err := kernels.IntersectMergePath(s, shortDec, longDec)
		if err != nil {
			return 0, err
		}
		res.Out.Free()
	} else {
		longComp, err := kernels.UploadEF(s, longList)
		if err != nil {
			return 0, err
		}
		defer longComp.Free()
		res, err := kernels.IntersectBinarySkips(s, shortDec, longComp)
		if err != nil {
			return 0, err
		}
		res.Out.Free()
	}
	return s.Elapsed(), nil
}

// cpuIntersectPair runs the same intersection on the CPU baseline and
// returns its simulated time.
func cpuIntersectPair(cfg Config, shortIDs, longIDs []uint32) (time.Duration, error) {
	shortList, err := ef.Compress(shortIDs)
	if err != nil {
		return 0, err
	}
	longList, err := ef.Compress(longIDs)
	if err != nil {
		return 0, err
	}
	res := intersect.Pair(index.EFView{L: shortList}, index.EFView{L: longList}, 0)
	return cfg.CPU.Time(res.Work), nil
}

// runFig8 measures both implementations over the paper's seven ratio
// groups, longer list length fixed within a window (paper: [1M, 2M]).
func runFig8(cfg Config) (Fig8Result, *Table, error) {
	rng := cfg.rng(8)
	// The crossover ratio is length-dependent (GPU cost tracks the long
	// list, CPU cost the short one), so the long list stays paper-sized
	// ([1M,2M], §3.2) at every scale; only the pair count shrinks.
	longLen := cfg.scaled(1_500_000, 1_000_000)
	pairsPerGroup := cfg.scaled(10, 2)

	var res Fig8Result
	var cross stats.RatioGroup
	t := &Table{
		Title:   "Figure 8: GPU/CPU Cross Over Point (avg intersection ms)",
		Columns: []Column{label("ratio group"), msec("Griffin-GPU"), msec("CPU")},
	}
	t.note("paper: Griffin-GPU wins below ratio 128; CPU wins above")
	for _, g := range stats.PaperRatioGroups() {
		var gpuSum, cpuSum time.Duration
		for p := 0; p < pairsPerGroup; p++ {
			// Pick a ratio inside the group and derive the short length.
			ratio := float64(g.Lo) + rng.Float64()*float64(g.Hi-g.Lo)
			nShort := int(float64(longLen) / ratio)
			if nShort < 8 {
				nShort = 8
			}
			short, long := workload.GenPair(rng, nShort, longLen, uint32(longLen*6), 0.4)
			if len(short) == 0 || len(long) == 0 {
				continue
			}
			gt, err := gpuIntersectPair(cfg.Device, short, long, 128)
			if err != nil {
				return res, nil, err
			}
			ct, err := cpuIntersectPair(cfg, short, long)
			if err != nil {
				return res, nil, err
			}
			gpuSum += gt
			cpuSum += ct
		}
		p := Fig8Point{
			Group:   g,
			GPUTime: gpuSum / time.Duration(pairsPerGroup),
			CPUTime: cpuSum / time.Duration(pairsPerGroup),
		}
		res.Points = append(res.Points, p)
		if res.CrossoverGroup == "" && p.CPUTime < p.GPUTime {
			res.CrossoverGroup, cross = g.String(), g
		}
		t.row(g.String(), p.GPUTime, p.CPUTime)
	}
	if res.CrossoverGroup != "" {
		t.note("measured crossover at group [{},{})",
			count("crossover from ratio").of(cross.Lo), count("crossover below ratio").of(cross.Hi))
	}
	return res, t, nil
}
