package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"griffin/internal/core"
	"griffin/internal/ingest"
	"griffin/internal/server"
)

// workloadDef is one server configuration plus the traffic sent to it.
type workloadDef struct {
	Name string
	Why  string
	// Flags are the server flags after -index/-addr; "<wal>" is replaced
	// by the run's fresh WAL directory.
	Flags []string
	// Rate is the frozen open-loop rate in ops/s: 0.45 x the closed-loop
	// capacity measured at the seed commit on the builder's machine (medians
	// of three ten-seed sets: 290, 780, 320 and 290 ops/s in workload order),
	// rounded to 10. It is never adapted at run time: two commits are
	// compared at the same offered load.
	Rate float64
	// WriteShare is the probability that an op is a write.
	WriteShare float64
}

func (w *workloadDef) ingest() bool { return w.WriteShare > 0 }

// workloads are final: names, flags and rates are part of the contract in
// BENCHMARK.json and bench/README.md.
var workloads = []workloadDef{
	{
		Name:  "search_engine",
		Why:   "single Hybrid engine, one device, no cache or batching: gpu executor, kernels, rank/index scoring, exec and core do the work; simulator-speed changes must show here",
		Flags: []string{"-mode", "griffin"},
		Rate:  130,
	},
	{
		Name:  "search_cpu",
		Why:   "CPU-only engine on the same index and log: bypasses gpu/kernels/runtime, so ef decode, intersect, rank and the HTTP handler carry sub-ms requests; device-side changes must not move it",
		Flags: []string{"-mode", "cpu"},
		Rate:  350,
	},
	{
		Name: "search_cluster",
		Why:  "4 shards x 2 replicas x 2 devices with cache, batching, hedging, deadlines and admission gate: cluster scatter-gather, routing, batcher, caches and overload bookkeeping take their largest share",
		Flags: []string{"-shards", "4", "-replicas", "2", "-devices", "2", "-placement", "affinity",
			"-routing", "least-pending", "-cache", "-batch-window", "200us", "-batch-max", "16",
			"-hedge-delay", "2ms", "-default-deadline", "50ms", "-retry-budget", "0.1", "-max-inflight", "64"},
		Rate: 140,
	},
	{
		Name: "mixed_ingest",
		Why:  "80 % reads / 20 % durable writes on a live Hybrid engine: delta overlay, background merges, WAL append+fsync, checkpoints and crash recovery contend with search for device and cores",
		Flags: []string{"-mode", "griffin", "-ingest", "-wal-dir", "<wal>", "-wal-sync", "1",
			"-checkpoint-every", "512", "-merge-threshold", "256"},
		Rate:       130,
		WriteShare: 0.2,
	},
}

func workloadByName(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// phaseLengths are recorded in the output; they never differ between two
// commits that are compared. Only the closed and open lengths follow a flag
// (-seconds, half each); the rest are constants of the benchmark.
type phaseLengths struct {
	// Setups is how many fresh server processes are started; setup_s is
	// their median.
	Setups int `json:"setups"`
	// Replay is how many log queries are replayed one at a time for the
	// modeled-clock metrics.
	Replay int `json:"replay_queries"`
	// Cycle is how many log queries the closed and open loops cycle.
	Cycle   int     `json:"cycle_queries"`
	WarmupS float64 `json:"warmup_s"`
	ClosedS float64 `json:"closed_s"`
	OpenS   float64 `json:"open_s"`
	// ProbeQueries and ProbeMutations size the traced in-process pass.
	ProbeQueries   int `json:"probe_queries"`
	ProbeMutations int `json:"probe_mutations"`
}

var (
	defaultPhases = phaseLengths{Setups: 3, Replay: 400, Cycle: 250, WarmupS: 1, ProbeQueries: 300, ProbeMutations: 300}
	smokePhases   = phaseLengths{Setups: 1, Replay: 40, Cycle: 60, WarmupS: 0.2, ProbeQueries: 30, ProbeMutations: 45}
)

func secs(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// runEnv is what every workload run shares.
type runEnv struct {
	fx        *fixture
	ref       *reference
	serverBin string
	workDir   string // temp: WAL dirs
	outDir    string // kept: server logs
	clients   int
	phases    phaseLengths
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind a timing or ratio (0 = a single reading).
	N int `json:"n,omitempty"`
	// Source says how the number was obtained: probe, span, span-diff,
	// statz, plan, memstats, loadgen, proc.
	Source string `json:"source,omitempty"`
}

// phaseInfo records what a phase did.
type phaseInfo struct {
	Ops     int     `json:"ops"`
	Seconds float64 `json:"seconds"`
}

// workloadReport is one workload run's full outcome.
type workloadReport struct {
	Name        string               `json:"name"`
	ServerFlags []string             `json:"server_flags"`
	RateOps     float64              `json:"open_rate_ops"`
	Attempted   int                  `json:"attempted"`
	Failed      int                  `json:"failed"`
	Correct     bool                 `json:"correct"`
	FailReasons []string             `json:"fail_reasons,omitempty"`
	Phases      map[string]phaseInfo `json:"phases"`
	EndToEnd    map[string]metric    `json:"end_to_end"`
	PerLayer    map[string]metric    `json:"per_layer"`
}

func (e *runEnv) serverFlags(w *workloadDef, walDir string) []string {
	flags := []string{"-index", e.fx.indexPath}
	for _, f := range w.Flags {
		if f == "<wal>" {
			f = walDir
		}
		flags = append(flags, f)
	}
	return flags
}

func (e *runEnv) freshWALDir(w *workloadDef, n int) (string, error) {
	if !w.ingest() {
		return "", nil
	}
	dir := filepath.Join(e.workDir, fmt.Sprintf("wal-%s-%d", w.Name, n))
	os.RemoveAll(dir)
	return dir, os.MkdirAll(dir, 0o755)
}

// runWorkload drives one workload through its phases against fresh server
// processes and returns its metrics. An error means the run itself could
// not be carried out (server would not start); wrong or failed operations
// are counted in the report instead.
func runWorkload(e *runEnv, w *workloadDef, rate float64) (*workloadReport, error) {
	rep := &workloadReport{
		Name: w.Name, ServerFlags: w.Flags, RateOps: rate,
		Phases: map[string]phaseInfo{}, EndToEnd: map[string]metric{}, PerLayer: map[string]metric{},
	}
	hc := newHTTPClient(e.clients)
	defer hc.CloseIdleConnections()

	// setup: exec until /healthz is 200, several fresh processes; the last
	// one serves the run.
	var setups []float64
	var srv *serverProc
	var walDir string
	for i := 0; i < e.phases.Setups; i++ {
		if srv != nil {
			srv.kill()
		}
		var err error
		if walDir, err = e.freshWALDir(w, i); err != nil {
			return nil, err
		}
		logPath := filepath.Join(e.outDir, fmt.Sprintf("%s.setup%d.log", w.Name, i))
		if srv, err = startServer(e.serverBin, e.serverFlags(w, walDir), logPath, hc); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		setups = append(setups, srv.setupS)
	}
	defer func() { srv.kill() }()
	rep.EndToEnd["setup_s"] = metric{Value: median(setups), Unit: "s", N: len(setups), Source: "proc"}
	rep.Phases["setup"] = phaseInfo{Ops: len(setups), Seconds: sum(setups)}

	d := &driver{fx: e.fx, base: "http://" + srv.addr, hc: hc}
	if w.ingest() {
		for c := 0; c < e.clients; c++ {
			d.muts = append(d.muts, newMutator(e.fx, c))
		}
	}

	// replay: one client, first queries of the log in order, caches empty.
	replay := d.replay(e.phases.Replay)
	rep.Phases["replay"] = phaseInfo{Ops: len(replay.ops), Seconds: replay.elapsed.Seconds()}

	// warmup: not recorded beyond its failures.
	cycle := min(e.phases.Cycle, len(e.fx.queries))
	warm := d.closed(e.clients, secs(e.phases.WarmupS), cycle, w.WriteShare, nil)
	rep.Phases["warmup"] = phaseInfo{Ops: len(warm.ops), Seconds: warm.elapsed.Seconds()}

	// closed: the throughput, latency and host-cost phase.
	var cpuErr error
	closed := d.closed(e.clients, secs(e.phases.ClosedS), cycle, w.WriteShare, func() float64 {
		v, err := procCPUSeconds(srv.pid())
		if err != nil {
			cpuErr = err
		}
		return v
	})
	if cpuErr != nil {
		return nil, cpuErr
	}
	rep.Phases["closed"] = phaseInfo{Ops: len(closed.ops), Seconds: closed.elapsed.Seconds()}

	// open: Poisson arrivals at the frozen rate, timed from the due time.
	open := d.open(e.clients, rate, secs(e.phases.OpenS), cycle, w.WriteShare)
	rep.Phases["open"] = phaseInfo{Ops: len(open.ops), Seconds: open.elapsed.Seconds()}

	rss, err := procPeakRSSMB(srv.pid())
	if err != nil {
		return nil, err
	}
	statz, err := scrapeStatz(hc, d.base)
	if err != nil {
		return nil, fmt.Errorf("%s: /statz: %w", w.Name, err)
	}
	if !srv.alive() {
		return nil, fmt.Errorf("%s: server died during the run\n%s", w.Name, tailFile(srv.logPath, 20))
	}

	// ---- everything below runs after the timed phases ----
	chk := &checker{fx: e.fx, ref: e.ref, exact: map[int]bool{}}
	exact := !w.ingest()
	if exact {
		e.ref.prepare(e.fx.queries, e.clients)
	} else {
		e.ref.prepare(e.fx.queries[:min(e.phases.Replay, len(e.fx.queries))], e.clients)
	}
	replies := chk.checkReads("replay", replay.ops, true) // replay precedes every write
	for _, ph := range []struct {
		name string
		res  *phaseResult
	}{{"warmup", &warm}, {"closed", &closed}, {"open", &open}} {
		chk.checkReads(ph.name, ph.res.ops, exact)
	}
	acked := 0
	if w.ingest() {
		acked = chk.checkWrites("warmup", warm.ops) + chk.checkWrites("closed", closed.ops) + chk.checkWrites("open", open.ops)
		recoverS := e.checkDurability(chk, w, d, srv, statz, acked, walDir, hc)
		rep.PerLayer["wal.sigkill_restart_s"] = metric{Value: recoverS, Unit: "s", Source: "proc"}
	} else {
		rep.PerLayer["wal.sigkill_restart_s"] = metric{Unit: "s", Source: "proc"}
		// Read-only: every one of the log's queries must have been checked.
		var missing []int
		for q := range e.fx.queries {
			if !chk.exact[q] {
				missing = append(missing, q)
			}
		}
		ops := make([]opResult, len(missing))
		forEach(len(missing), e.clients, func(i int) { ops[i] = d.read(missing[i]) })
		chk.checkReads("coverage", ops, true)
	}

	// end-to-end metrics
	var modeled []float64
	for _, r := range replies {
		modeled = append(modeled, r.LatencyMS)
	}
	sm := sortedCopy(modeled)
	rep.EndToEnd["modeled_mean_ms"] = metric{Value: mean(modeled), Unit: "ms", N: len(modeled), Source: "loadgen"}
	rep.EndToEnd["modeled_p99_ms"] = metric{Value: percentile(sm, 99), Unit: "ms", N: len(modeled), Source: "loadgen"}

	var readLat, writeLat []float64
	for i := range closed.ops {
		op := &closed.ops[i]
		if !op.ok() {
			continue
		}
		if op.write() {
			writeLat = append(writeLat, ms(op.lat))
		} else {
			readLat = append(readLat, ms(op.lat))
		}
	}
	rl := sortedCopy(readLat)
	rates, cpuPerKop := cycleStats(&closed)
	if len(rates) == 0 {
		return nil, fmt.Errorf("%s: the closed phase finished no full pass over its %d queries; lengthen -seconds", w.Name, cycle)
	}
	rep.EndToEnd["throughput_qps"] = metric{Value: midmean(rates), Unit: "1/s", N: len(rates), Source: "loadgen"}
	rep.EndToEnd["cpu_s_per_kop"] = metric{Value: midmean(cpuPerKop), Unit: "s", N: len(cpuPerKop), Source: "proc"}
	rep.EndToEnd["latency_p50_ms"] = metric{Value: percentile(rl, 50), Unit: "ms", N: len(rl), Source: "loadgen"}
	rep.EndToEnd["latency_p99_ms"] = metric{Value: percentile(rl, 99), Unit: "ms", N: len(rl), Source: "loadgen"}
	rep.EndToEnd["peak_rss_mb"] = metric{Value: rss, Unit: "MB", Source: "proc"}

	// Open-loop percentiles are medians over the passes, which all offer
	// the same requests at the same offsets.
	var lag []float64
	byPass := map[int][]float64{}
	openReads := 0
	for i := range open.ops {
		op := &open.ops[i]
		lag = append(lag, ms(op.lag))
		if op.ok() && !op.write() {
			byPass[op.pass] = append(byPass[op.pass], ms(op.lat))
			openReads++
		}
	}
	var p50s, p99s []float64
	for _, lat := range byPass {
		sl := sortedCopy(lat)
		p50s = append(p50s, percentile(sl, 50))
		p99s = append(p99s, percentile(sl, 99))
	}
	rep.EndToEnd["open_p50_ms"] = metric{Value: median(p50s), Unit: "ms", N: openReads, Source: "loadgen"}
	rep.EndToEnd["open_p99_ms"] = metric{Value: median(p99s), Unit: "ms", N: openReads, Source: "loadgen"}
	if w.ingest() {
		wl := sortedCopy(writeLat)
		rep.EndToEnd["write_ack_p50_ms"] = metric{Value: percentile(wl, 50), Unit: "ms", N: len(wl), Source: "loadgen"}
		rep.EndToEnd["write_ack_p99_ms"] = metric{Value: percentile(wl, 99), Unit: "ms", N: len(wl), Source: "loadgen"}
	}

	// per-layer metrics this run can supply from outside the process
	rep.PerLayer["loadgen.lag_p99_ms"] = metric{Value: percentile(sortedCopy(lag), 99), Unit: "ms", N: len(lag), Source: "loadgen"}
	rep.PerLayer["loadgen.achieved_rate"] = metric{Value: float64(len(open.ops)) / open.scheduled.Seconds(), Unit: "1/s", N: len(open.ops), Source: "loadgen"}
	statzMetrics(rep.PerLayer, statz, replies, lagPeak(warm.ops, closed.ops, open.ops))

	rep.Attempted, rep.Failed, rep.FailReasons = chk.attempted, chk.failed, chk.reasons
	rep.Correct = chk.failed == 0
	share := 0.0
	if chk.attempted > 0 {
		share = float64(chk.failed) / float64(chk.attempted)
	}
	rep.EndToEnd["failed_share"] = metric{Value: share, Unit: "ratio", N: chk.attempted, Source: "loadgen"}
	return rep, nil
}

// lagPeak is the largest merge lag any write acknowledgement reported.
func lagPeak(phases ...[]opResult) float64 {
	peak := 0.0
	for _, ops := range phases {
		for i := range ops {
			if !ops[i].write() || !ops[i].ok() {
				continue
			}
			var ack server.IngestResponse
			if json.Unmarshal(ops[i].body, &ack) == nil && float64(ack.Lag) > peak {
				peak = float64(ack.Lag)
			}
		}
	}
	return peak
}

func scrapeStatz(hc *http.Client, base string) (*server.StatsResponse, error) {
	resp, err := hc.Get(base + "/statz")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.100s", resp.StatusCode, body)
	}
	var st server.StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// checkDurability is mixed_ingest's post-run check: the server's writer
// generation equals the acknowledged writes; after SIGKILL and a restart
// on the same WAL directory the recovered generation still does; and 50
// log queries answer exactly like an in-process ingest engine that applied
// the same acknowledged script. It returns the restart's setup time.
func (e *runEnv) checkDurability(chk *checker, w *workloadDef, d *driver, srv *serverProc,
	statz *server.StatsResponse, acked int, walDir string, hc *http.Client) float64 {
	chk.attempted++
	if statz.Ingest == nil || int(statz.Ingest.Gen) != acked {
		chk.fail("durability: /statz ingest.gen %v, acknowledged writes %d", statz.Ingest, acked)
	}
	srv.kill() // SIGKILL: no drain, no final sync
	logPath := filepath.Join(e.outDir, w.Name+".recover.log")
	re, err := startServer(e.serverBin, e.serverFlags(w, walDir), logPath, hc)
	chk.attempted++
	if err != nil {
		chk.fail("durability: restart on the same WAL dir: %v", err)
		return 0
	}
	defer re.kill()
	base := "http://" + re.addr
	st, err := scrapeStatz(hc, base)
	if err != nil || st.Ingest == nil || int(st.Ingest.Gen) != acked {
		chk.fail("durability: recovered gen %+v (err %v), acknowledged writes %d", st, err, acked)
	}

	// The same acknowledged script applied in process. Clients own
	// disjoint docID ranges, so applying client by client reaches the
	// state the interleaved run reached.
	live, err := ingest.New(e.fx.corpus.Index, ingest.Config{Engine: core.Config{Mode: core.CPUOnly}})
	if err != nil {
		chk.fail("durability: reference engine: %v", err)
		return re.setupS
	}
	defer live.Close()
	for _, m := range d.muts {
		for _, mu := range m.acked {
			switch mu.Op {
			case "add":
				err = live.Add(mu.DocID, mu.Tokens)
			case "update":
				err = live.Update(mu.DocID, mu.Tokens)
			default:
				err = live.Delete(mu.DocID)
			}
			if err != nil {
				chk.fail("durability: reference engine refused acknowledged %s %d: %v", mu.Op, mu.DocID, err)
			}
		}
	}
	rd := &driver{fx: e.fx, base: base, hc: hc}
	n := 50
	if n > len(e.fx.queries) {
		n = len(e.fx.queries)
	}
	for q := 0; q < n; q++ {
		chk.attempted++
		r := rd.read(q)
		if !r.ok() {
			chk.fail("recovered: query %d: status %d err %v", q, r.status, r.err)
			continue
		}
		rep, err := parseReply(r.body)
		if err != nil {
			chk.fail("recovered: query %d: %v", q, err)
			continue
		}
		wantRes, err := live.Search(e.fx.queries[q])
		if err != nil {
			chk.fail("recovered: reference query %d: %v", q, err)
			continue
		}
		wantDocs := wantRes.Docs
		if len(wantDocs) > topK {
			wantDocs = wantDocs[:topK]
		}
		if !sameDocs(rep.docs(), wantDocs) {
			chk.fail("recovered: query %d %v: got %v want %v", q, e.fx.queries[q], rep.docs(), wantDocs)
		}
	}
	return re.setupS
}

// statzMetrics derives the per-layer numbers a /statz scrape and the
// replay replies carry. Shares are over the server's whole life (replay,
// warmup, closed and open).
func statzMetrics(out map[string]metric, st *server.StatsResponse, replies []*searchReply, lagPeak float64) {
	q := float64(st.Queries)
	per := func(x float64) float64 {
		if q == 0 {
			return 0
		}
		return x / q
	}
	n := int(st.Queries)

	// Device rows: the engine's own, or every replica's devices.
	var devs []server.DeviceStatsJSON
	if st.Device != nil && len(st.Devices) == 0 {
		devs = append(devs, *st.Device)
	}
	devs = append(devs, st.Devices...)
	for _, sh := range st.Shards {
		if len(sh.Devices) > 0 {
			devs = append(devs, sh.Devices...)
		} else if sh.Device != nil {
			devs = append(devs, *sh.Device)
		}
	}
	busy, span, wait := 0.0, 0.0, 0.0
	for _, dv := range devs {
		busy += dv.ComputeBusyMS
		span += dv.TimelineSpanMS * float64(max(dv.Streams, 1))
		wait += dv.QueueWaitMS
	}
	util := 0.0
	if span > 0 {
		util = busy / span
	}
	out["gpu.utilization"] = metric{Value: util, Unit: "ratio", N: len(devs), Source: "statz"}
	out["gpu.wait_modeled_ms_per_query"] = metric{Value: per(wait), Unit: "ms", N: n, Source: "statz"}

	bm, bs := 0.0, 0.0
	if b := st.Batching; b != nil && b.Batches > 0 {
		bm = float64(b.Members) / float64(b.Batches)
		bs = per(b.SavedUS)
	}
	out["gpu.batch_mean_size"] = metric{Value: bm, Unit: "count", Source: "statz"}
	out["gpu.batch_saved_us_per_query"] = metric{Value: bs, Unit: "us", N: n, Source: "statz"}

	hit, peer := 0.0, 0.0
	if c := st.Cache; c != nil && c.Hits+c.Misses > 0 {
		hit = float64(c.Hits) / float64(c.Hits+c.Misses)
		peer = per(float64(c.PeerCopies))
	}
	out["core.cache_hit_rate"] = metric{Value: hit, Unit: "ratio", Source: "statz"}
	out["gpu.peer_copies_per_query"] = metric{Value: peer, Unit: "count", N: n, Source: "statz"}

	retries, hedges, degraded := 0.0, 0.0, 0.0
	if sh := st.SelfHeal; sh != nil {
		retries, hedges, degraded = per(float64(sh.Retries))*1000, per(float64(sh.Hedges))*1000, per(float64(sh.Degraded))
	}
	out["cluster.retries_per_kquery"] = metric{Value: retries, Unit: "count", N: n, Source: "statz"}
	out["cluster.hedges_per_kquery"] = metric{Value: hedges, Unit: "count", N: n, Source: "statz"}
	out["cluster.degraded_share"] = metric{Value: degraded, Unit: "ratio", N: n, Source: "statz"}

	shed, miss, denied := 0.0, 0.0, 0.0
	if o := st.Overload; o != nil {
		if tot := q + float64(o.ShedRequests); tot > 0 {
			shed = float64(o.ShedRequests) / tot
		}
		miss = per(float64(o.DeadlineMisses))
		if o.RetryBudget != nil {
			denied = float64(o.RetryBudget.Denied)
		}
	}
	out["overload.shed_share"] = metric{Value: shed, Unit: "ratio", N: n, Source: "statz"}
	out["overload.deadline_miss_share"] = metric{Value: miss, Unit: "ratio", N: n, Source: "statz"}
	out["overload.retry_tokens_denied"] = metric{Value: denied, Unit: "count", Source: "statz"}

	merges, mergeMS, syncs := 0.0, 0.0, 0.0
	if in := st.Ingest; in != nil {
		merges = float64(in.Merges)
		mergeMS = in.MergeDeviceMS + in.MergeCPUMS
		if in.WAL != nil && in.WAL.Appends > 0 {
			syncs = float64(in.WAL.Syncs) / float64(in.WAL.Appends)
		}
	}
	out["ingest.merges"] = metric{Value: merges, Unit: "count", Source: "statz"}
	out["ingest.merge_modeled_ms"] = metric{Value: mergeMS, Unit: "ms", Source: "statz"}
	out["ingest.lag_peak"] = metric{Value: lagPeak, Unit: "count", Source: "loadgen"}
	out["wal.syncs_per_append"] = metric{Value: syncs, Unit: "ratio", Source: "statz"}

	migrated := 0
	for _, r := range replies {
		if r.Migrated {
			migrated++
		}
	}
	ms := 0.0
	if len(replies) > 0 {
		ms = float64(migrated) / float64(len(replies))
	}
	out["sched.migrated_share"] = metric{Value: ms, Unit: "ratio", N: len(replies), Source: "loadgen"}
}

// printReport writes a workload's metrics by name with unit and sample
// count, end-to-end first.
func printWorkload(w io.Writer, rep *workloadReport) {
	fmt.Fprintf(w, "\n== %s  (open loop %.0f ops/s; flags: %s)\n", rep.Name, rep.RateOps, strings.Join(rep.ServerFlags, " "))
	names := make([]string, 0, len(rep.Phases))
	for n := range rep.Phases {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "   phase %-7s %6d ops in %6.2f s\n", n, rep.Phases[n].Ops, rep.Phases[n].Seconds)
	}
	fmt.Fprintf(w, "   attempted %d, failed %d, correct %v\n", rep.Attempted, rep.Failed, rep.Correct)
	for _, r := range rep.FailReasons {
		fmt.Fprintf(w, "   FAIL %s\n", r)
	}
	printMetrics(w, "end-to-end", rep.EndToEnd)
	printMetrics(w, "per-layer", rep.PerLayer)
}

func printMetrics(w io.Writer, title string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  -- %s\n", title)
	for _, n := range names {
		m := ms[n]
		fmt.Fprintf(w, "   %-42s %14.6g %-6s", n, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		if m.Source != "" {
			fmt.Fprintf(w, " [%s]", m.Source)
		}
		fmt.Fprintln(w)
	}
}
