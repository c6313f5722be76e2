package experiments

import (
	"time"

	"griffin/internal/ef"
	"griffin/internal/index"
	"griffin/internal/intersect"
	"griffin/internal/workload"
)

// Fig13Point is one size group of the intersection comparison (§4.3.2,
// Figure 13): CPU merge, CPU binary (skip search), GPU merge (MergePath),
// GPU binary (parallel binary search), on comparable-length list pairs.
type Fig13Point struct {
	LongerListSize int
	CPUMerge       time.Duration
	CPUBinary      time.Duration
	GPUMerge       time.Duration
	GPUBinary      time.Duration
}

// Fig13Result reproduces the four-way intersection comparison. The paper
// measures GPU merge up to 87.35x over CPU merge and up to 2.29x over GPU
// binary on long comparable-length lists.
type Fig13Result struct {
	Points []Fig13Point
}

// runFig13 intersects comparable-length pairs (ratio < 16, as the paper
// selects) of each size group under all four methods.
func runFig13(cfg Config) (Fig13Result, *Table, error) {
	rng := cfg.rng(13)
	reps := cfg.scaled(4, 2)
	sizes := []int{1_000, 10_000, 100_000, 1_000_000, 10_000_000}
	maxSize := cfg.scaled(10_000_000, 100_000)

	var res Fig13Result
	t := &Table{
		Title: "Figure 13: List Intersection Comparison (ms)",
		Columns: []Column{label("longer list"), msec("CPU merge"), msec("CPU binary"),
			msec("GPU merge"), msec("GPU binary")},
	}
	t.note("pairs with comparable lengths (ratio < 16), as in the paper")
	t.note("paper: GPU merge fastest on long lists; CPU binary slowest")
	for _, n := range sizes {
		if n > maxSize {
			break
		}
		var p Fig13Point
		p.LongerListSize = n
		for r := 0; r < reps; r++ {
			ratio := 1.5 + rng.Float64()*10 // comparable lengths
			nShort := int(float64(n) / ratio)
			if nShort < 4 {
				nShort = 4
			}
			short, long := workload.GenPair(rng, nShort, n, uint32(n*8), 0.3)
			if len(short) == 0 || len(long) == 0 {
				continue
			}
			shortEF, err := ef.Compress(short)
			if err != nil {
				return res, nil, err
			}
			longEF, err := ef.Compress(long)
			if err != nil {
				return res, nil, err
			}

			// CPU merge.
			m := intersect.Merge(index.EFView{L: shortEF}, index.EFView{L: longEF})
			p.CPUMerge += cfg.CPU.Time(m.Work)

			// CPU binary (skip-pointer search), forced regardless of ratio.
			b := intersect.SkipSearch(index.EFView{L: shortEF}, index.EFView{L: longEF})
			p.CPUBinary += cfg.CPU.Time(b.Work)

			// GPU merge: upload + decompress both + MergePath.
			gm, err := gpuIntersectPair(cfg.Device, short, long, 1e18) // force mergepath
			if err != nil {
				return res, nil, err
			}
			p.GPUMerge += gm

			// GPU binary: decompress short, then parallel binary search
			// over the long list's skip pointers.
			gb, err := gpuIntersectPair(cfg.Device, short, long, 0) // force binary-skips
			if err != nil {
				return res, nil, err
			}
			p.GPUBinary += gb

			// Cross-check: all four must agree on the match count.
			if len(m.IDs) != len(b.IDs) {
				return res, nil, errMismatch(n, "cpu merge vs cpu binary", len(m.IDs), len(b.IDs))
			}
		}
		p.CPUMerge /= time.Duration(reps)
		p.CPUBinary /= time.Duration(reps)
		p.GPUMerge /= time.Duration(reps)
		p.GPUBinary /= time.Duration(reps)
		res.Points = append(res.Points, p)
		t.row(fmtSize(n), p.CPUMerge, p.CPUBinary, p.GPUMerge, p.GPUBinary)
	}
	if len(res.Points) > 0 {
		last := res.Points[len(res.Points)-1]
		t.note("largest group: GPU merge {} over CPU merge, {} over GPU binary",
			times("GPU merge over CPU merge", 1).of(float64(last.CPUMerge)/float64(last.GPUMerge)),
			times("GPU merge over GPU binary", 1).of(float64(last.GPUBinary)/float64(last.GPUMerge)))
	}
	return res, t, nil
}

type mismatchError struct {
	size int
	what string
	a, b int
}

func (e *mismatchError) Error() string {
	return "fig13: result mismatch at size " + fmtSize(e.size) + " (" + e.what + ")"
}

func errMismatch(size int, what string, a, b int) error {
	return &mismatchError{size: size, what: what, a: a, b: b}
}
