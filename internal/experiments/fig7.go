package experiments

import (
	"fmt"
	"time"

	"griffin/internal/kernels"
	"griffin/internal/rank"
)

// Fig7Point is one list-size group of Figure 7's ranking comparison.
type Fig7Point struct {
	ListSize  int
	CPUTime   time.Duration // CPU partial_sort
	BucketSel time.Duration // GPU bucketSelect
	RadixSort time.Duration // GPU radixSort
}

// Fig7Result reproduces §3.1.3's ranking-selection study: the CPU partial
// sort beats both GPU selectors on realistic result sizes because the
// small inputs cannot amortize GPU initialization and transfer.
type Fig7Result struct {
	Points []Fig7Point
}

// fig7Sizes mirrors the figure's x-axis (1K..10M), trimmed by scale.
func fig7Sizes(cfg Config) []int {
	all := []int{1_000, 10_000, 100_000, 1_000_000, 10_000_000}
	out := make([]int, 0, len(all))
	for _, s := range all {
		if s <= cfg.scaled(10_000_000, 100_000) {
			out = append(out, s)
		}
	}
	return out
}

// runFig7 times the three ranking algorithms on candidate lists of each
// size (k = 10, as in top-10 retrieval).
func runFig7(cfg Config) (Fig7Result, *Table, error) {
	rng := cfg.rng(7)
	cpuModel := cfg.CPU
	const k = 10

	var res Fig7Result
	t := &Table{
		Title:   "Figure 7: Ranking Performance Comparison (ms)",
		Columns: []Column{label("list size"), msec("CPU partial_sort"), msec("GPU bucketSelect"), msec("GPU radixSort")},
	}
	t.note("paper: CPU fastest at every size; queries rarely exceed a few thousand matches")
	for _, n := range fig7Sizes(cfg) {
		docs := make([]kernels.ScoredDoc, n)
		for i := range docs {
			docs[i] = kernels.ScoredDoc{DocID: uint32(i), Score: float32(rng.NormFloat64() * 5)}
		}

		_, work := rank.TopKCPU(docs, k)
		cpuTime := cpuModel.Time(work)

		sBucket := cfg.Device.NewStream()
		if _, err := rank.TopKGPUBucket(sBucket, docs, k); err != nil {
			return res, nil, err
		}
		sRadix := cfg.Device.NewStream()
		if _, err := rank.TopKGPURadix(sRadix, docs, k); err != nil {
			return res, nil, err
		}

		p := Fig7Point{
			ListSize:  n,
			CPUTime:   cpuTime,
			BucketSel: sBucket.Elapsed(),
			RadixSort: sRadix.Elapsed(),
		}
		res.Points = append(res.Points, p)
		t.row(fmtSize(n), p.CPUTime, p.BucketSel, p.RadixSort)
	}
	return res, t, nil
}

// fmtSize renders 1000 as "1K" etc., matching the paper's axis labels.
func fmtSize(n int) string {
	switch {
	case n >= 1_000_000 && n%1_000_000 == 0:
		return fmt.Sprintf("%dM", n/1_000_000)
	case n >= 1_000 && n%1_000 == 0:
		return fmt.Sprintf("%dK", n/1_000)
	default:
		return fmt.Sprintf("%d", n)
	}
}
