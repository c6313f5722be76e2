// Command griffin-bench regenerates every table and figure of the paper's
// evaluation (§4) and prints them as plain-text tables.
//
// Usage:
//
//	griffin-bench [-scale 0.2] [-seed 1] [-only table1,fig8,...] [-results out.json]
//
// Scale 1.0 approximates the paper's data sizes (several minutes);
// the default 0.2 finishes in about a minute. Absolute times are
// simulated on the calibrated K20/Xeon hardware models; the reproduction
// targets are the shapes (who wins, by what factor, where crossovers
// fall). -results writes the run as one typed record (experiments.Record);
// the records under results/ are what EXPERIMENTS.md and the paper-anchor
// tests read.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"griffin/internal/experiments"
)

func main() {
	// The valid -only keys, in run order.
	keys := make([]string, len(experiments.Studies))
	for i, st := range experiments.Studies {
		keys[i] = st.Key
	}
	scale := flag.Float64("scale", 0.2, "workload scale relative to the paper (1.0 = full)")
	seed := flag.Int64("seed", 1, "workload generation seed")
	only := flag.String("only", "", "comma-separated experiment list (default: all): "+strings.Join(keys, ","))
	results := flag.String("results", "", "also write the run's typed record (scale, seed, studies, tables) to this JSON file")
	flag.Parse()

	if !(*scale > 0) {
		fmt.Fprintf(os.Stderr, "griffin-bench: -scale must be > 0, got %v\n", *scale)
		os.Exit(2)
	}

	cfg := experiments.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed

	// Unknown -only keys fail fast: a typo like "clsuter" used to be
	// silently ignored, running everything but the experiment asked for.
	want := map[string]bool{}
	for _, k := range strings.Split(*only, ",") {
		k = strings.TrimSpace(k)
		if k == "" {
			continue
		}
		if !slices.Contains(keys, k) {
			fmt.Fprintf(os.Stderr, "griffin-bench: unknown experiment %q in -only (valid: %s)\n",
				k, strings.Join(keys, ", "))
			os.Exit(2)
		}
		want[k] = true
	}

	fmt.Printf("griffin-bench: scale=%.2f seed=%d (simulated K20 + Xeon E5-2609v2 models)\n\n", *scale, *seed)
	start := time.Now()

	rec := experiments.Record{Scale: *scale, Seed: *seed}
	// The shared corpus and query log live from the first study that
	// shares them to the first that does not: the extension sweeps build
	// their own corpora and should not run beside the largest one.
	var session *experiments.Session
	for _, st := range experiments.Studies {
		if len(want) > 0 && !want[st.Key] {
			continue
		}
		if !st.Shared {
			session = nil
		} else if session == nil {
			session = experiments.NewSession(cfg)
		}
		fmt.Printf("running %s...\n", st.Key)
		tables, err := st.Run(cfg, session)
		exitOn(err)
		for _, t := range tables {
			fmt.Println(t.Render())
		}
		rec.Only = append(rec.Only, st.Key)
		rec.Tables = append(rec.Tables, tables...)
	}

	if *results != "" {
		exitOn(rec.WriteFile(*results))
		fmt.Printf("wrote %d tables to %s\n", len(rec.Tables), *results)
	}
	fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Millisecond))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "griffin-bench:", err)
		os.Exit(1)
	}
}
