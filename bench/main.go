// Command bench is the repo's serving benchmark: it generates one seeded
// fixture, builds cmd/griffin-server, drives the real server binary over
// loopback HTTP through four workloads, checks every output against its
// own reference, and reports end-to-end metrics on two clocks (host wall
// clock and the modeled K20/Xeon clock) plus per-layer probes. See
// README.md in this directory.
//
//	go run -C bench .                                  all four workloads
//	go run -C bench . -workload search_cpu             one workload
//	go run -C bench . -workload search_cpu -trace 1    plus the traced in-process pass
//	go run -C bench . -compare a.json b.json           compare two reports
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// report is the JSON document one invocation writes.
type report struct {
	Provenance provenance        `json:"provenance"`
	Fixture    fixtureSpec       `json:"fixture"`
	Workloads  []*workloadReport `json:"workloads"`
	// Sweep holds the off-contract -rates study.
	Sweep []sweepPoint `json:"sweep,omitempty"`
}

// provenance says where, when and how a report was produced.
type provenance struct {
	GitSHA      string             `json:"git_sha"`
	GoVersion   string             `json:"go_version"`
	NumCPU      int                `json:"nproc"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	LoadAvg     float64            `json:"loadavg_1m_at_start"`
	Seed        int64              `json:"seed"`
	Phases      phaseLengths       `json:"phases"`
	Clients     int                `json:"clients"`
	Rates       map[string]float64 `json:"frozen_rates_ops"`
	ServerFlags map[string]string  `json:"server_flags"`
	WALFS       string             `json:"wal_filesystem"`
	Started     string             `json:"started"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	outDir   string
	smoke    bool
	rates    string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload (search_engine, search_cpu, search_cluster, mixed_ingest); empty runs all four")
	flag.Int64Var(&o.seed, "seed", 1, "data seed: every docID and frequency in the index, and the mutation script, derive from it")
	flag.Float64Var(&o.seconds, "seconds", runSeconds, "measured seconds per workload, split evenly between the closed and the open phase")
	flag.IntVar(&o.trace, "trace", 0, "1 adds the traced in-process pass and reports the per-layer metrics")
	flag.StringVar(&o.outDir, "out-dir", "", "directory for report.json, the server logs and the span file (default <repo>/.bench_build/out)")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny fixture and short fixed phases (what the end-to-end test runs)")
	flag.StringVar(&o.rates, "rates", "", "off-contract: comma-separated open-loop rates to sweep on the chosen workload(s) instead of the frozen rate")
	compare := flag.Bool("compare", false, "compare two report files given as arguments; exit 1 when a bound is exceeded")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(2, "usage: bench -compare a.json b.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal(2, "unexpected arguments: %v", flag.Args())
	}

	installSignalCleanup()
	code := 0
	func() {
		// A panic still kills children and removes temp dirs before it
		// is re-raised.
		defer func() {
			janitor.run()
			if r := recover(); r != nil {
				panic(r)
			}
		}()
		if err := run(&o); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
	}()
	os.Exit(code)
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(code)
}

func run(o *options) error {
	root, err := repoRoot()
	if err != nil {
		return err
	}
	var selected []*workloadDef
	if o.workload == "" {
		for i := range workloads {
			selected = append(selected, &workloads[i])
		}
	} else if w := workloadByName(o.workload); w != nil {
		selected = []*workloadDef{w}
	} else {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds < 2 {
		return errors.New("-seconds must be at least 2")
	}
	var sweep []float64
	for _, s := range strings.Split(o.rates, ",") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		r, err := strconv.ParseFloat(s, 64)
		if err != nil || r <= 0 {
			return fmt.Errorf("-rates: bad rate %q", s)
		}
		sweep = append(sweep, r)
	}

	buildDir := filepath.Join(root, ".bench_build")
	if o.outDir == "" {
		o.outDir = filepath.Join(buildDir, "out")
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	// Temp state (built server, index file, WAL dirs) lives in a directory
	// the benchmark creates itself, so the removal on exit can only ever
	// delete what this run wrote.
	workDir, err := os.MkdirTemp(buildDir, "work-")
	if err != nil {
		return err
	}
	janitor.addDir(workDir)

	phases := defaultPhases
	if o.smoke {
		phases = smokePhases
	}
	phases.ClosedS, phases.OpenS = o.seconds/2, o.seconds/2
	prov := gatherProvenance(root, o, phases, workDir)
	if prov.LoadAvg > float64(prov.NumCPU)/2 {
		fmt.Fprintf(os.Stderr, "bench: WARNING: load average %.2f exceeds nproc/2 = %.1f; timings will be noisy\n",
			prov.LoadAvg, float64(prov.NumCPU)/2)
	}

	t0 := time.Now()
	bin, err := buildServer(root, workDir)
	if err != nil {
		return err
	}
	spec := defaultFixtureSpec(o.seed)
	if o.smoke {
		spec = smokeFixtureSpec(o.seed)
	}
	fx, err := buildFixture(spec, workDir)
	if err != nil {
		return err
	}
	fmt.Printf("bench: seed %d, fixture %d docs / %d terms / %d queries, index %.1f MB (build %.2fs, write %.2fs), server built, %.1fs so far\n",
		o.seed, spec.NumDocs, spec.NumTerms, len(fx.queries), float64(fx.fileBytes)/1e6, fx.buildS, fx.writeS, time.Since(t0).Seconds())

	env := &runEnv{
		fx: fx, ref: newReference(fx.corpus.Index), serverBin: bin,
		workDir: workDir, outDir: o.outDir, clients: prov.Clients, phases: phases,
	}
	rep := &report{Provenance: prov, Fixture: spec}
	for _, w := range selected {
		if len(sweep) > 0 {
			pts, err := runSweep(env, w, sweep)
			if err != nil {
				return err
			}
			rep.Sweep = append(rep.Sweep, pts...)
			continue
		}
		wr, err := runWorkload(env, w, w.Rate)
		if err != nil {
			return err
		}
		rep.Workloads = append(rep.Workloads, wr)
	}
	if o.trace == 1 {
		probes, err := runProbes(env, filepath.Join(o.outDir, "spans.json"))
		if err != nil {
			return fmt.Errorf("traced pass: %w", err)
		}
		// The in-process probes are the same for every workload; each
		// workload's per-layer list is the probes plus what its own
		// server run supplied.
		for _, wr := range rep.Workloads {
			for name, m := range probes {
				if _, own := wr.PerLayer[name]; !own {
					wr.PerLayer[name] = m
				}
			}
		}
	}

	for _, wr := range rep.Workloads {
		printWorkload(os.Stdout, wr)
	}
	printSweep(os.Stdout, rep.Sweep)
	out := filepath.Join(o.outDir, "report.json")
	if err := writeJSON(out, rep); err != nil {
		return err
	}
	fmt.Printf("\nbench: report written to %s (%.1fs total)\n", out, time.Since(t0).Seconds())

	// The contract line: one workload's result as the last line of stdout.
	if len(rep.Workloads) == 1 {
		line, err := contractLine(rep.Workloads[0], o.trace == 1)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// contractLine renders {"correct","attempted","failed","metrics"}: the
// metrics BENCHMARK.json lists end to end with tracing off, the ones it
// lists per layer with it on.
func contractLine(wr *workloadReport, traced bool) ([]byte, error) {
	defs := driverEndToEnd()
	if traced {
		defs = driverPerLayer()
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]mv{}
	for _, d := range defs {
		m, ok := wr.EndToEnd[d.Name]
		if !ok {
			m, ok = wr.PerLayer[d.Name]
		}
		if !ok && d.Workload != "" && d.Workload != wr.Name {
			// The driver wants every listed metric from every workload;
			// one only another workload produces reads 0 here.
			m, ok = metric{Unit: d.Unit}, true
		}
		if !ok {
			return nil, fmt.Errorf("metric %s was not produced", d.Name)
		}
		ms[d.Name] = mv{m.Value, m.Unit}
	}
	return json.Marshal(map[string]any{
		"correct": wr.Correct, "attempted": wr.Attempted, "failed": wr.Failed, "metrics": ms,
	})
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// repoRoot finds the griffin module root: the parent of this package's
// directory, whether the benchmark runs from the root (go run -C bench .)
// or from bench/ itself.
func repoRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for dir := wd; ; dir = filepath.Dir(dir) {
		b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil && strings.HasPrefix(strings.TrimSpace(string(b)), "module griffin\n") {
			return dir, nil
		}
		if dir == filepath.Dir(dir) {
			return "", fmt.Errorf("no griffin module root above %s: the benchmark builds cmd/griffin-server from the repo it sits in", wd)
		}
	}
}

func gatherProvenance(root string, o *options, phases phaseLengths, walDir string) provenance {
	p := provenance{
		GitSHA: "unknown", GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Phases: phases, Clients: runtime.NumCPU(),
		Rates: map[string]float64{}, ServerFlags: map[string]string{},
		WALFS: filesystemOf(walDir), Started: time.Now().UTC().Format(time.RFC3339),
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = root
	if out, err := cmd.Output(); err == nil {
		p.GitSHA = strings.TrimSpace(string(out))
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(b)); len(f) > 0 {
			p.LoadAvg, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	for _, w := range workloads {
		p.Rates[w.Name] = w.Rate
		p.ServerFlags[w.Name] = strings.Join(w.Flags, " ")
	}
	return p
}

// filesystemOf names the filesystem type holding dir, from the longest
// matching mount point in /proc/mounts.
func filesystemOf(dir string) string {
	b, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, f[2]+" ("+f[0]+")"
		}
	}
	return fs
}
