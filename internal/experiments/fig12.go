package experiments

import (
	"fmt"
	"time"

	"griffin/internal/ef"
	"griffin/internal/hwmodel"
	"griffin/internal/kernels"
	"griffin/internal/pfordelta"
	"griffin/internal/workload"
)

// Fig12Point is one list-size group of the decompression study (§4.3.1,
// Figure 12): CPU PForDelta decode vs GPU Para-EF decode, plus the direct
// GPU PForDelta port the paper argues against (§3.1.1's claim, added as a
// fourth series).
type Fig12Point struct {
	ListSize   int
	CPUTime    time.Duration
	GPUTime    time.Duration
	GPUPFDTime time.Duration // the "poor match" direct port
	Speedup    float64
}

// Fig12Result reproduces the decompression comparison. The paper measures
// speedups below 2x on 1K/10K lists rising to ~11x-29.6x on 100K-10M
// lists as occupancy and overhead amortization improve.
type Fig12Result struct {
	Points []Fig12Point
}

// RunFig12 decompresses lists of each size group on both paths and
// reports average times and speedups.
func RunFig12(cfg Config) (Fig12Result, *Table, error) {
	rng := cfg.rng(12)
	cpuModel := cfg.CPU
	reps := cfg.scaled(5, 2)

	sizes := []int{1_000, 10_000, 100_000, 1_000_000, 10_000_000}
	maxSize := cfg.scaled(10_000_000, 100_000)

	var res Fig12Result
	t := &Table{
		Title: "Figure 12: Decompression Speed Comparison",
		Header: []string{"list size", "CPU PforDelta (ms)", "GPU Para-EF (ms)",
			"GPU PFD port (ms)", "speedup"},
		Notes: []string{
			"paper: speedup <2x at 1K-10K, ~11x to ~29.6x at 100K-10M",
			"GPU PFD port added: the direct port §3.1.1 calls a poor match (sequential exception chains)",
		},
	}
	for _, n := range sizes {
		if n > maxSize {
			break
		}
		var cpuSum, gpuSum, gpuPFDSum time.Duration
		for r := 0; r < reps; r++ {
			ids := workload.GenList(rng, n, uint32(n*30))
			pfd, err := pfordelta.Compress(ids)
			if err != nil {
				return res, nil, err
			}
			efl, err := ef.Compress(ids)
			if err != nil {
				return res, nil, err
			}

			// CPU path: decode every PForDelta block.
			buf := make([]uint32, pfordelta.BlockSize)
			var decoded int64
			for _, pg := range pfd.Blocks.Pages() {
				for i := range pg {
					decoded += int64(pg[i].DecompressInto(buf))
				}
			}
			cpuSum += cpuModel.Time(hwmodel.CPUWork{PFDDecodedElems: decoded})

			// GPU path: upload compressed, Para-EF decompress, deliver the
			// decompressed list back to the host (a standalone
			// decompression microbenchmark must return its output; inside
			// a query the data would instead stay on-device for the
			// intersection kernels).
			s := cfg.Device.NewStream()
			comp, err := kernels.UploadEF(s, efl)
			if err != nil {
				return res, nil, err
			}
			out, _, err := kernels.ParaEFDecompress(s, comp)
			if err != nil {
				return res, nil, err
			}
			s.D2H(out, int64(efl.N)*4)
			gpuSum += s.Elapsed()
			out.Free()
			comp.Free()

			// GPU PForDelta direct port (same protocol).
			sp := cfg.Device.NewStream()
			pfdComp, err := kernels.UploadPFD(sp, pfd)
			if err != nil {
				return res, nil, err
			}
			pfdOut, _, err := kernels.PFDDecompressGPU(sp, pfdComp)
			if err != nil {
				return res, nil, err
			}
			sp.D2H(pfdOut, int64(pfd.N)*4)
			gpuPFDSum += sp.Elapsed()
			pfdOut.Free()
			pfdComp.Free()
		}
		p := Fig12Point{
			ListSize:   n,
			CPUTime:    cpuSum / time.Duration(reps),
			GPUTime:    gpuSum / time.Duration(reps),
			GPUPFDTime: gpuPFDSum / time.Duration(reps),
		}
		p.Speedup = float64(p.CPUTime) / float64(p.GPUTime)
		res.Points = append(res.Points, p)
		t.Rows = append(t.Rows, []string{
			fmtSize(n), ms(p.CPUTime), ms(p.GPUTime), ms(p.GPUPFDTime),
			fmt.Sprintf("%.1fx", p.Speedup),
		})
	}
	return res, t, nil
}
