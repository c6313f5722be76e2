// Multi-user load: the scenario the paper's conclusion leaves as future
// work — "more complex scenarios under heavy system loads with multiple
// users". Per-query execution traces from the CPU-only and Griffin
// engines are replayed through a discrete-event queueing simulation
// (4-core host pool + single GPU, Poisson arrivals, FCFS) at increasing
// offered load. Griffin's offloading keeps the host pool uncongested, so
// its tail response times stay flat well past the load that saturates the
// CPU-only configuration.
package main

import (
	"fmt"
	"log"
	"time"

	"griffin"
	"griffin/internal/loadsim"
)

func main() {
	fmt.Println("generating corpus and tracing 200 queries under both engines...")
	corpus, err := griffin.GenerateCorpus(griffin.CorpusSpec{
		NumDocs:    3_000_000,
		NumTerms:   100,
		MaxListLen: 1_000_000,
		MinListLen: 5_000,
		Alpha:      0.85,
		Seed:       51,
	})
	if err != nil {
		log.Fatal(err)
	}
	queries := griffin.GenerateQueryLog(corpus, griffin.QuerySpec{
		NumQueries:      200,
		PopularityAlpha: 0.5,
		Seed:            52,
	})

	dev := griffin.NewDevice()
	cpuEng, err := griffin.NewEngine(corpus.Index, griffin.Config{Mode: griffin.CPUOnly})
	if err != nil {
		log.Fatal(err)
	}
	hybEng, err := griffin.NewEngine(corpus.Index, griffin.Config{Mode: griffin.Hybrid, Device: dev})
	if err != nil {
		log.Fatal(err)
	}

	cpuPlans := make([]loadsim.Plan, len(queries))
	hybPlans := make([]loadsim.Plan, len(queries))
	var meanService time.Duration
	for i, q := range queries {
		rc, err := cpuEng.Search(q.Terms)
		if err != nil {
			log.Fatal(err)
		}
		rh, err := hybEng.Search(q.Terms)
		if err != nil {
			log.Fatal(err)
		}
		cpuPlans[i].Segments = loadsim.SegmentsFromStats(rc.Stats)
		hybPlans[i].Segments = loadsim.SegmentsFromStats(rh.Stats)
		meanService += rc.Stats.Latency
	}
	meanService /= time.Duration(len(queries))
	saturation := 4 / meanService.Seconds() // 4-core pool capacity

	fmt.Printf("\nCPU-only mean service time %.2f ms -> host pool saturates near %.0f q/s\n\n",
		float64(meanService.Microseconds())/1000, saturation)
	fmt.Printf("%-12s %16s %16s %10s\n", "load (q/s)", "CPU-only P99(ms)", "Griffin P99(ms)", "advantage")
	for _, frac := range []float64{0.25, 0.5, 0.75, 1.0, 1.25, 1.5} {
		rate := saturation * frac
		spec := loadsim.Spec{CPUWorkers: 4, ArrivalRate: rate, Seed: 99}
		rc := loadsim.Replay(cpuPlans, spec, loadsim.NoSpill)
		rh := loadsim.Replay(hybPlans, spec, loadsim.NoSpill)
		c, h := rc.Latencies.Percentile(99), rh.Latencies.Percentile(99)
		fmt.Printf("%-12.0f %16.2f %16.2f %9.1fx\n",
			rate,
			float64(c.Microseconds())/1000,
			float64(h.Microseconds())/1000,
			float64(c)/float64(h))
	}
}
