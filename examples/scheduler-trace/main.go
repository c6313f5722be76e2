// Scheduler trace: watch Griffin's dynamic intra-query scheduling make
// its decisions (§3.2). The example builds posting lists whose lengths
// force a multi-term query through both regimes: the first intersections
// have comparable lengths (ratio < 128, scheduled on the GPU), and as SvS
// shrinks the intermediate result the ratio against the remaining longer
// lists crosses the threshold, so the query migrates to the CPU for its
// final stages — the Figure 1(d) execution the paper contrasts with
// static placements.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"griffin"
)

// genList makes n sorted distinct docIDs over the universe.
func genList(rng *rand.Rand, n int, universe uint32) []uint32 {
	gap := universe / uint32(n+1)
	out := make([]uint32, 0, n)
	cur := uint32(0)
	for len(out) < n {
		cur += 1 + uint32(rng.Int63n(int64(2*gap)))
		if cur >= universe {
			break
		}
		out = append(out, cur)
	}
	return out
}

func main() {
	rng := rand.New(rand.NewSource(99))
	const universe = 8_000_000

	// Four terms: two mid-size lists (the query's rare terms), one large,
	// one very large. SvS intersects smallest-first, so the ratio grows
	// step by step.
	b := griffin.NewIndexBuilder()
	listSpecs := []struct {
		term string
		n    int
	}{
		{"kepler", 60_000},
		{"gpu", 90_000},
		{"parallel", 900_000},
		{"computing", 3_000_000},
	}
	for _, s := range listSpecs {
		if err := b.AddPostings(s.term, genList(rng, s.n, universe), nil); err != nil {
			log.Fatal(err)
		}
	}
	ix, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}

	eng, err := griffin.NewEngine(ix, griffin.Config{
		Mode:   griffin.Hybrid,
		Device: griffin.NewDevice(),
	})
	if err != nil {
		log.Fatal(err)
	}

	query := []string{"kepler", "gpu", "parallel", "computing"}
	res, err := eng.Search(query)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("query %v\n", query)
	fmt.Printf("posting lists: ")
	for _, s := range listSpecs {
		pl, _ := ix.Lookup(s.term)
		fmt.Printf("%s=%d ", s.term, pl.Len())
	}
	fmt.Printf("\n\nphysical plan (crossover ratio = 128, sticky migration; one line per executed operator;\ndevice operators of a step overlap):\n")
	for _, op := range res.Stats.Plan {
		algo := op.Algo.String()
		if algo != "" {
			algo = " [" + algo + "]"
		}
		term := op.Term
		if term != "" {
			term = " " + term
		}
		fmt.Printf("  %-10s -> %-3s%-15s  in=%-8d out=%-8d at %-12v took %-12v est %v\n",
			op.Kind, op.Where, algo+term, op.NIn, op.NOut, op.Start, op.Took, op.Est)
	}

	fmt.Printf("\nmigrated GPU->CPU: %v\n", res.Stats.Migrated)
	fmt.Printf("simulated latency: %.3f ms (GPU %.3f ms + CPU %.3f ms; %.3f ms of device work hidden by overlap)\n",
		float64(res.Stats.Latency.Microseconds())/1000,
		float64(res.Stats.GPUTime.Microseconds())/1000,
		float64(res.Stats.CPUTime.Microseconds())/1000,
		float64(res.Stats.Overlapped.Microseconds())/1000)
	fmt.Printf("matches: %d\n", res.Stats.Candidates)
}
