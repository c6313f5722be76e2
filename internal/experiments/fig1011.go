package experiments

import (
	"strconv"

	"griffin/internal/stats"
	"griffin/internal/workload"
)

// Fig10Result is the inverted-list size CDF of the benchmark corpus
// (§4.2, Figure 10): the paper's lists mostly fall between 1K and 1M
// elements with a tail to 26M.
type Fig10Result struct {
	Thresholds []int
	CDF        []float64
}

// runFig10 builds the shared corpus and reports its list-size CDF.
func runFig10(cfg Config, c *workload.Corpus) (Fig10Result, *Table, error) {
	sizes := c.Index.ListSizes()
	maxSize := 0
	if n := len(sizes); n > 0 {
		maxSize = sizes[n-1]
	}
	thresholds := []int{1_000, 10_000, 100_000, 1_000_000, 10_000_000, 26_000_000}
	// Trim thresholds beyond the generated maximum (scaled runs).
	for len(thresholds) > 1 && thresholds[len(thresholds)-2] >= maxSize {
		thresholds = thresholds[:len(thresholds)-1]
	}
	cdf := stats.CDF(sizes, thresholds)
	res := Fig10Result{Thresholds: thresholds, CDF: cdf}

	t := &Table{
		Title:   "Figure 10: Inverted List Size Distribution (CDF)",
		Columns: []Column{label("list size <="), pct("CDF %", 1)},
	}
	t.note("paper: most lists between 1K and 1M elements")
	for i, th := range thresholds {
		t.row(fmtSize(th), cdf[i]*100)
	}
	return res, t, nil
}

// termsLabel names a term-count group; 7 stands for ">6".
func termsLabel(n int) string {
	if n == 7 {
		return ">6"
	}
	return strconv.Itoa(n)
}

// Fig11Result is the query term-count distribution (§4.2, Figure 11):
// ~27% two-term, ~33% three-term, ~24% four-term queries.
type Fig11Result struct {
	Fractions map[int]float64 // term count -> fraction; key 7 means ">6"
}

// runFig11 synthesizes the query log and reports its term-count histogram.
func runFig11(cfg Config, c *workload.Corpus) (Fig11Result, *Table, []workload.Query, error) {
	queries := workload.GenerateQueryLog(c, workload.QuerySpec{
		NumQueries:      cfg.scaled(10_000, 400),
		PopularityAlpha: 0.45,
		// Drop the top 0.5% of term ranks, the stopword removal standard
		// in IR pipelines (TREC queries arrive stopworded).
		StopwordRanks: len(c.Terms) / 200,
		Seed:          cfg.Seed + 11,
	})
	h := stats.NewHistogram()
	for _, q := range queries {
		n := len(q.Terms)
		if n > 6 {
			n = 7 // ">6" bucket
		}
		h.Add(n)
	}
	res := Fig11Result{Fractions: map[int]float64{}}
	t := &Table{
		Title:   "Figure 11: Number of Terms Distribution",
		Columns: []Column{label("#terms"), pct("percentage %", 1)},
	}
	t.note("paper: ~27% / 33% / 24% for 2/3/4 terms")
	for _, n := range []int{2, 3, 4, 5, 6, 7} {
		f := h.Fraction(n)
		res.Fractions[n] = f
		t.row(termsLabel(n), f*100)
	}
	return res, t, queries, nil
}
