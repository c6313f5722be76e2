// Command griffin-bench regenerates every table and figure of the paper's
// evaluation (§4) and prints them as plain-text tables.
//
// Usage:
//
//	griffin-bench [-scale 0.2] [-seed 1] [-only table1,fig8,...] [-json out.json]
//
// Scale 1.0 approximates the paper's data sizes (several minutes);
// the default 0.2 finishes in about a minute. Absolute times are
// simulated on the calibrated K20/Xeon hardware models; the reproduction
// targets are the shapes (who wins, by what factor, where crossovers
// fall), recorded against the paper in EXPERIMENTS.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"griffin/internal/experiments"
	"griffin/internal/gpu"
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
	batchWindow := flag.Duration("batch-window", 0, "batching-on window for the batch sweep (0 = sweep default 2ms)")
	batchMax := flag.Int("batch-max", gpu.DefaultBatchMax, "batching-on member cap for the batch sweep")
	csvDir := flag.String("csvdir", "", "also write each table as CSV into this directory")
	jsonPath := flag.String("json", "", "also write all tables as one JSON document to this path")
	flag.Parse()

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			exitOn(err)
		}
	}

	if !(*scale > 0) {
		fmt.Fprintf(os.Stderr, "griffin-bench: -scale must be > 0, got %v\n", *scale)
		os.Exit(2)
	}
	if *batchWindow < 0 {
		fmt.Fprintf(os.Stderr, "griffin-bench: -batch-window must be >= 0, got %v\n", *batchWindow)
		os.Exit(2)
	}
	if *batchMax <= 0 {
		fmt.Fprintf(os.Stderr, "griffin-bench: -batch-max must be >= 1, got %d\n", *batchMax)
		os.Exit(2)
	}

	cfg := experiments.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.BatchWindow = *batchWindow
	cfg.BatchMax = *batchMax

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

	var jsonTables []experiments.TableJSON
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
			if *csvDir != "" {
				exitOn(os.WriteFile(filepath.Join(*csvDir, t.Slug()+".csv"), []byte(t.CSV()), 0o644))
			}
			jsonTables = append(jsonTables, t.JSON())
		}
	}

	if *jsonPath != "" {
		doc := benchJSON{
			Scale:      *scale,
			Seed:       *seed,
			Generated:  time.Now().UTC().Format(time.RFC3339),
			WallTimeMS: time.Since(start).Milliseconds(),
			Tables:     jsonTables,
		}
		data, err := json.MarshalIndent(&doc, "", "  ")
		exitOn(err)
		exitOn(os.WriteFile(*jsonPath, append(data, '\n'), 0o644))
		fmt.Printf("wrote %d tables to %s\n", len(jsonTables), *jsonPath)
	}

	fmt.Printf("total wall time: %v\n", time.Since(start).Round(time.Millisecond))
}

// benchJSON is the -json output document: one object per figure/table
// plus the run's provenance.
type benchJSON struct {
	Scale      float64                 `json:"scale"`
	Seed       int64                   `json:"seed"`
	Generated  string                  `json:"generated"`
	WallTimeMS int64                   `json:"wall_time_ms"`
	Tables     []experiments.TableJSON `json:"tables"`
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "griffin-bench:", err)
		os.Exit(1)
	}
}
