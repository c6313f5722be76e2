// Command griffin-search runs interactive or one-shot conjunctive queries
// over a serialized Griffin index, reporting per-query simulated latency
// and, with -trace, the physical plan the scheduler placed. With -log it
// replays a query file (one query per line) and prints the latency
// distribution — the §4.5 tail study over your own workload.
//
// Usage:
//
//	griffin-search -index index.grif -mode griffin "quick brown fox"
//	griffin-search -index index.grif -mode cpu -compare "search engines"
//	griffin-search -index index.grif -log queries.txt
//	echo "one query per line" | griffin-search -index index.grif
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"griffin/internal/core"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/stats"
)

func main() {
	indexPath := flag.String("index", "index.grif", "serialized index file")
	modeName := flag.String("mode", "griffin", "execution mode: cpu, gpu, or griffin")
	topK := flag.Int("k", 10, "number of results")
	compare := flag.Bool("compare", false, "run the query under all three modes and compare latencies")
	trace := flag.Bool("trace", false, "print the physical plan: one row per executed operator")
	logFile := flag.String("log", "", "replay a query-log file (one query per line) and print the latency distribution")
	flag.Parse()

	ix, err := index.Open(*indexPath)
	exitOn(err)
	fmt.Printf("loaded %s: %d docs, %d terms\n", *indexPath, ix.NumDocs, ix.NumTerms())

	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	engines := map[string]*core.Engine{}
	for name, mode := range map[string]core.Mode{
		"cpu": core.CPUOnly, "gpu": core.GPUOnly, "griffin": core.Hybrid,
	} {
		e, err := core.New(ix, core.Config{Mode: mode, Device: dev, TopK: *topK})
		exitOn(err)
		engines[name] = e
	}
	if _, ok := engines[*modeName]; !ok {
		fmt.Fprintf(os.Stderr, "griffin-search: unknown mode %q\n", *modeName)
		os.Exit(2)
	}

	runQuery := func(line string) {
		terms := index.Tokenize(line)
		if len(terms) == 0 {
			return
		}
		if *compare {
			for _, name := range []string{"cpu", "gpu", "griffin"} {
				res, err := engines[name].Search(terms)
				exitOn(err)
				fmt.Printf("  %-7s %8.3f ms  (%d candidates)\n",
					name, float64(res.Stats.Latency.Microseconds())/1000, res.Stats.Candidates)
			}
			return
		}
		res, err := engines[*modeName].Search(terms)
		exitOn(err)
		fmt.Printf("query %v: %d candidates, %.3f ms simulated (cpu %.3f + gpu %.3f)\n",
			terms, res.Stats.Candidates,
			float64(res.Stats.Latency.Microseconds())/1000,
			float64(res.Stats.CPUTime.Microseconds())/1000,
			float64(res.Stats.GPUTime.Microseconds())/1000)
		if *trace {
			for _, op := range res.Stats.Plan {
				fmt.Printf("  %-10s on %-3s %-12s %-10s in=%-8d out=%-8d at %-10v took %v (est %v)\n",
					op.Kind, op.Where, op.Algo, op.Term, op.NIn, op.NOut, op.Start, op.Took, op.Est)
			}
		}
		for rank, d := range res.Docs {
			fmt.Printf("  %2d. doc %-10d score %.4f\n", rank+1, d.DocID, d.Score)
		}
	}

	if *logFile != "" {
		replayLog(engines[*modeName], *logFile)
		return
	}
	if args := flag.Args(); len(args) > 0 {
		runQuery(strings.Join(args, " "))
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	fmt.Println("enter queries, one per line (ctrl-D to exit):")
	for sc.Scan() {
		runQuery(sc.Text())
	}
}

// replayLog runs every query of the file and prints the simulated-latency
// distribution.
func replayLog(e *core.Engine, path string) {
	f, err := os.Open(path)
	exitOn(err)
	defer f.Close()

	rec := stats.NewLatencyRecorder(1024)
	sc := bufio.NewScanner(f)
	skipped := 0
	for sc.Scan() {
		terms := index.Tokenize(sc.Text())
		if len(terms) == 0 {
			skipped++
			continue
		}
		res, err := e.Search(terms)
		exitOn(err)
		rec.Record(res.Stats.Latency)
	}
	exitOn(sc.Err())
	if rec.Count() == 0 {
		fmt.Println("no queries in log")
		return
	}
	fmt.Printf("replayed %d queries (%d blank lines skipped)\n", rec.Count(), skipped)
	fmt.Printf("mean %.3f ms, max %.3f ms\n",
		float64(rec.Mean().Microseconds())/1000, float64(rec.Max().Microseconds())/1000)
	for _, p := range []float64{50, 80, 90, 95, 99, 99.9} {
		fmt.Printf("  P%-5g %10.3f ms\n", p, float64(rec.Percentile(p).Microseconds())/1000)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "griffin-search:", err)
		os.Exit(1)
	}
}
