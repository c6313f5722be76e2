package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/ef"
	"griffin/internal/exec"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/ingest"
	"griffin/internal/intersect"
	"griffin/internal/kernels"
	"griffin/internal/overload"
	"griffin/internal/pfordelta"
	"griffin/internal/rank"
	"griffin/internal/sched"
	"griffin/internal/server"
	"griffin/internal/wal"
	"griffin/internal/workload"
)

// The traced pass runs in process on the run's fixture, after every server
// child has exited. It times the public functions of each internal/* layer
// from outside: spans are recorded around the benchmark's own calls, and
// where the repo already takes an interface (exec.CandidateScorer,
// exec.ListProvider, sched.Policy, sched.DevicePlacement, gpu.SubmitHook,
// http.Handler) a recording wrapper yields true child spans and boundary
// counts. Everything here runs on one goroutine unless noted.

// span is one timed call. Spans of one request share Req; Parent is the ID
// of the span that caused this one (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the pass began
	End    int64  `json:"end_ns"`
}

// tracer keeps spans and boundary counts in memory until the pass ends.
// With on == false begin/end/count do nothing, which is how the same
// replay measures the tracer's own overhead.
type tracer struct {
	on     bool
	t0     time.Time
	spans  []span
	stack  []int // open spans, innermost last
	counts map[string]int64
	req    int // request id the wrappers attribute their spans to
}

func newTracer() *tracer {
	return &tracer{on: true, t0: time.Now(), counts: map[string]int64{}}
}

// innermost, as begin's parent, means the innermost span still open.
const innermost = -2

// begin opens a span under parent and returns its id (-1 with tracing off).
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return -1
	}
	if parent == innermost {
		parent = -1
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1]
		}
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: t.req, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
	t.stack = t.stack[:len(t.stack)-1]
}

func (t *tracer) count(name string) {
	if t.on {
		t.counts[name]++
	}
}

func (t *tracer) dur(id int) time.Duration {
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// ---- recording wrappers over the repo's own interfaces ----

type tracedScorer struct {
	inner exec.CandidateScorer
	tr    *tracer
}

func (s tracedScorer) ScoreCandidates(lists []*index.PostingList, cands []uint32) ([]kernels.ScoredDoc, hwmodel.CPUWork) {
	id := s.tr.begin("rank.ScoreCandidates", innermost)
	defer s.tr.end(id)
	return s.inner.ScoreCandidates(lists, cands)
}

// tracedLists is the uncached upload path (what the executor does itself
// when no provider is set) with a span around it.
type tracedLists struct{ tr *tracer }

func (l tracedLists) DeviceCompressed(s *gpu.Stream, dev int, pl *index.PostingList) (exec.DeviceList, error) {
	id := l.tr.begin("kernels.UploadEF", innermost)
	defer l.tr.end(id)
	buf, err := kernels.UploadEF(s, pl.EF)
	return exec.DeviceList{Buf: buf, Uploaded: true}, err
}

type tracedPolicy struct {
	inner sched.Policy
	tr    *tracer
}

func (p tracedPolicy) Decide(shortLen, longLen int) sched.Decision {
	id := p.tr.begin("sched.Decide", innermost)
	d := p.inner.Decide(shortLen, longLen)
	p.tr.end(id)
	if d.Where == sched.GPU {
		p.tr.count("sched.decide.gpu")
	} else {
		p.tr.count("sched.decide.cpu")
	}
	return d
}

func (p tracedPolicy) Fresh() sched.Policy { return tracedPolicy{p.inner.Fresh(), p.tr} }

// countingPlacement counts device placements. Cluster sub-queries call it
// from several goroutines, so it keeps a count and records no span.
type countingPlacement struct {
	inner  sched.DevicePlacement
	placed *atomic.Int64
}

func (p countingPlacement) Place(info sched.NodeInfo) int {
	p.placed.Add(1)
	return p.inner.Place(info)
}

type tracedHandler struct {
	inner http.Handler
	tr    *tracer
}

func (h tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := h.tr.begin("server.ServeHTTP", innermost)
	defer h.tr.end(id)
	h.inner.ServeHTTP(w, r)
}

// ---- the pass ----

type prober struct {
	e   *runEnv
	fx  *fixture
	ix  *index.Index
	tr  *tracer
	out map[string]metric
	nq  int // queries replayed per level
	nm  int // mutations

	// per-request results of the level replay
	l1, l3, l4 []int // span ids per query
}

func (p *prober) set(name string, v float64, unit string, n int, source string) {
	p.out[name] = metric{Value: v, Unit: unit, N: n, Source: source}
}

func nsPer(d time.Duration, n int) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// runProbes executes the traced pass and writes the span file.
func runProbes(e *runEnv, spanPath string) (map[string]metric, error) {
	p := &prober{
		e: e, fx: e.fx, ix: e.fx.corpus.Index, tr: newTracer(),
		out: map[string]metric{},
		nq:  min(e.phases.ProbeQueries, len(e.fx.queries)), nm: e.phases.ProbeMutations,
	}
	t0 := time.Now()
	for _, step := range []struct {
		name string
		fn   func() error
	}{
		{"levels", p.levels}, {"leaves", p.leaves}, {"codecs+index", p.codecsAndIndex},
		{"kernels+device", p.kernelsAndDevice}, {"cluster", p.cluster}, {"ingest+wal", p.ingestAndWAL},
	} {
		s := time.Now()
		if err := step.fn(); err != nil {
			return nil, fmt.Errorf("%s: %w", step.name, err)
		}
		fmt.Printf("bench: traced pass: %-14s %.2fs\n", step.name, time.Since(s).Seconds())
	}
	// The span file also says how each number was obtained.
	method := map[string]string{}
	for name, m := range p.out {
		method[name] = m.Source
	}
	doc := map[string]any{
		"queries": p.nq, "mutations": p.nm,
		"spans": p.tr.spans, "counts": p.tr.counts, "method": method,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(spanPath, b, 0o644); err != nil {
		return nil, err
	}
	fmt.Printf("bench: traced pass: %d spans written to %s (%.1fs)\n", len(p.tr.spans), spanPath, time.Since(t0).Seconds())
	return p.out, nil
}

func hybridConfig() core.Config {
	return core.Config{Mode: core.Hybrid, Device: gpu.New(hwmodel.DefaultGPU(), 0)}
}

// readMallocs returns the process's cumulative heap-object and byte counts.
func readMallocs() (objects, bytes uint64) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs, m.TotalAlloc
}

// countMallocs runs fn and returns the heap objects allocated meanwhile and
// fn's wall time.
func countMallocs(fn func()) (objects uint64, wall time.Duration) {
	o0, _ := readMallocs()
	t0 := time.Now()
	fn()
	wall = time.Since(t0)
	o1, _ := readMallocs()
	return o1 - o0, wall
}

// levels replays the first nq log queries once per level, the levels of
// one query back to back and each the parent of the next:
// server.ServeHTTP into a recorder, core.Engine.SearchContext, then
// exec.Run on a benchmark-built context whose scorer, list provider, policy
// and submit hook are recording wrappers, once with spans on and once off.
// (The cluster level has its own step.) A level's self time is the median
// over queries of its duration minus the next level's for the same query
// ("span-diff"), except under exec.Run, whose children are real spans
// ("span"). Object counts are read around each call, outside its span.
func (p *prober) levels() error {
	tr, n := p.tr, p.nq
	eng, err := core.New(p.ix, hybridConfig())
	if err != nil {
		return err
	}
	defer eng.Close()
	cpuEng, err := core.New(p.ix, core.Config{Mode: core.CPUOnly})
	if err != nil {
		return err
	}
	handler := tracedHandler{server.New(eng), tr}

	// exec.Run on our own context.
	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	node := gpu.NewNode(dev, 1, 0)
	node.SetSubmitHook(0, func(class gpu.EngineClass, at time.Duration) error {
		tr.count("gpu.submit." + class.String())
		return nil
	})
	scorer := rank.NewScorer(p.ix, rank.DefaultBM25())
	runExec := func(q int) error {
		terms := p.fx.queries[q]
		fetches := make([]exec.Fetch, len(terms))
		for i, t := range terms {
			fetches[i] = exec.Fetch{Term: t}
			if pl, ok := p.ix.Lookup(t); ok {
				fetches[i].List = pl
			}
		}
		h := node.AdmitOn(0)
		defer h.Release()
		ctx := &exec.Context{
			CPU: hwmodel.DefaultCPU(), Device: dev, Handle: h,
			Lists:  tracedLists{tr},
			Scorer: tracedScorer{scorer, tr}, SkipThreshold: intersect.DefaultSkipThreshold, TopK: topK,
		}
		_, err := exec.Run(ctx, fetches, func(ordered []*index.PostingList) exec.Builder {
			// Cacheable uploads are what route through the ListProvider.
			return cacheableBuilder{exec.NewHybridBuilder(ordered, tracedPolicy{sched.NewRatioPolicy(), tr}, sched.DefaultCrossover)}
		})
		return err
	}

	p.l1, p.l3, p.l4 = make([]int, n), make([]int, n), make([]int, n)
	var plans [][]exec.OpRecord
	var modeled, cpuModeled, coreSelfs []float64
	var l1Tot, l3Tot, onTot, offTot time.Duration
	var l1Objs, l3Objs, l3Bytes uint64
	respBytes, migrated := 0, 0
	launches0 := dev.Launches()
	var gc0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&gc0)
	t0 := time.Now()
	for q := 0; q < n; q++ {
		tr.req = q
		// Level 1: the HTTP handler.
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, p.fx.urls[q], nil)
		o0, _ := readMallocs()
		p.l1[q] = len(tr.spans) // the handler's span is the next one opened
		handler.ServeHTTP(rec, req)
		o1, b1 := readMallocs()
		if rec.Code != http.StatusOK {
			return fmt.Errorf("ServeHTTP %s: status %d", p.fx.urls[q], rec.Code)
		}
		l1Objs += o1 - o0
		l1Tot += tr.dur(p.l1[q])
		respBytes += rec.Body.Len()

		// Level 3: the engine; also the plan records and the modeled clock.
		id := tr.begin("core.SearchContext", p.l1[q])
		res, err := eng.SearchContext(context.Background(), p.fx.queries[q])
		tr.end(id)
		if err != nil {
			return err
		}
		o2, b2 := readMallocs()
		l3Objs, l3Bytes = l3Objs+o2-o1, l3Bytes+b2-b1
		p.l3[q] = id
		l3Tot += tr.dur(id)
		plans = append(plans, res.Stats.Plan)
		modeled = append(modeled, ms(res.Stats.Latency))
		if res.Stats.Migrated {
			migrated++
		}

		// Level 4: the plan executor, spans on then off.
		id = tr.begin("exec.Run", p.l3[q])
		err = runExec(q)
		tr.end(id)
		if err != nil {
			return err
		}
		p.l4[q] = id
		onTot += tr.dur(id)
		tr.on = false
		s := time.Now()
		err = runExec(q)
		off := time.Since(s)
		tr.on = true
		if err != nil {
			return err
		}
		offTot += off
		coreSelfs = append(coreSelfs, float64(tr.dur(p.l3[q])-off))

		// The CPU-only engine on the same query gives Fig. 14's ratio.
		cres, err := cpuEng.SearchContext(context.Background(), p.fx.queries[q])
		if err != nil {
			return err
		}
		cpuModeled = append(cpuModeled, ms(cres.Stats.Latency))
	}
	wall := time.Since(t0)
	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	launches := (dev.Launches() - launches0) / 2 // two exec.Run per query
	var pauses []float64
	for i := gc0.NumGC; i < gc1.NumGC && gc1.NumGC-i <= uint32(len(gc1.PauseNs)); i++ {
		pauses = append(pauses, float64(gc1.PauseNs[i%uint32(len(gc1.PauseNs))])/1e6)
	}

	// The handler's own cost drowns in a 4 ms query, so it is taken where
	// the query is cheap: the log's lightest query on the CPU-only engine,
	// handler and engine call paired a thousand times.
	light, lightCost := 0, -1
	for q := 0; q < n; q++ {
		cost := 0
		for _, t := range p.fx.queries[q] {
			if pl, ok := p.ix.Lookup(t); ok {
				cost += pl.N
			}
		}
		if lightCost < 0 || cost < lightCost {
			light, lightCost = q, cost
		}
	}
	cpuHandler := server.New(cpuEng)
	var handlerSelfs []float64
	for i := 0; i < 1000; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, p.fx.urls[light], nil)
		s := time.Now()
		cpuHandler.ServeHTTP(rec, req)
		mid := time.Now()
		if _, err := cpuEng.SearchContext(req.Context(), p.fx.queries[light]); err != nil {
			return err
		}
		handlerSelfs = append(handlerSelfs, float64(mid.Sub(s)-time.Since(mid)))
	}

	// ---- derive ----
	var childTot time.Duration
	for _, s := range tr.spans {
		if s.Parent >= 0 && tr.spans[s.Parent].Name == "exec.Run" {
			childTot += time.Duration(s.End - s.Start)
		}
	}
	coreMean, serverSelf := nsPer(l3Tot, n), median(handlerSelfs)
	coreSelf, execSelf := median(coreSelfs), nsPer(onTot-childTot, n)
	p.set("server.search_handle_ns", nsPer(l1Tot, n), "ns", n, "span")
	p.set("server.self_host_ns_per_req", serverSelf, "ns", len(handlerSelfs), "span-diff")
	p.set("server.allocs_per_req", (float64(l1Objs)-float64(l3Objs))/float64(n), "count", n, "memstats")
	p.set("server.resp_bytes", float64(respBytes)/float64(n), "B", n, "probe")
	p.set("core.search_host_ns_per_query", coreMean, "ns", n, "span")
	p.set("core.self_host_ns_per_query", coreSelf, "ns", n, "span-diff")
	p.set("core.allocs_per_query", float64(l3Objs)/float64(n), "count", n, "memstats")
	p.set("core.bytes_per_query", float64(l3Bytes)/float64(n), "B", n, "memstats")
	p.set("exec.run_host_ns_per_query", nsPer(offTot, n), "ns", n, "probe")
	p.set("exec.self_host_ns_per_query", execSelf, "ns", n, "span")
	p.set("trace.overhead_share", (float64(onTot)-float64(offTot))/float64(offTot), "ratio", n, "probe")
	p.set("gpu.launches_per_query", float64(launches)/float64(n), "count", n, "probe")
	p.set("proc.alloc_mb_per_s", float64(gc1.TotalAlloc-gc0.TotalAlloc)/1e6/wall.Seconds(), "MB/s", n, "memstats")
	const searchesPerQuery = 5 // handler, engine, exec.Run twice, CPU engine
	p.set("proc.gc_cycles_per_kquery", float64(gc1.NumGC-gc0.NumGC)/float64(n*searchesPerQuery)*1000, "count", n*searchesPerQuery, "memstats")
	p.set("proc.gc_pause_ms_p99", percentile(sortedCopy(pauses), 99), "ms", len(pauses), "memstats")
	p.set("hwmodel.fig14_speedup", mean(cpuModeled)/mean(modeled), "ratio", n, "plan")
	p.set("hwmodel.sim_slowdown", coreMean/1e6/mean(modeled), "ratio", n, "probe")
	p.set("sched.migrated_share", float64(migrated)/float64(n), "ratio", n, "plan")
	p.planMetrics(plans)

	// The acceptance check of the issue: the per-level self times add up
	// to the engine's search time plus the handler's self time.
	sumSelf := serverSelf + coreSelf + execSelf + nsPer(childTot, n)
	want := coreMean + serverSelf
	fmt.Printf("bench: traced pass: self times sum to %.0f ns/query against core.search+server.self = %.0f ns (%+.1f%%); paper Fig. 14 speed-up ~10x, here %.2fx\n",
		sumSelf, want, (sumSelf-want)/want*100, mean(cpuModeled)/mean(modeled))
	return nil
}

// cacheableBuilder marks list uploads cacheable so the executor asks the
// context's ListProvider for them, which is where tracedLists records.
type cacheableBuilder struct{ inner exec.Builder }

func (b cacheableBuilder) Next(st exec.State) []exec.Op {
	ops := b.inner.Next(st)
	for i := range ops {
		if ops[i].Kind == exec.OpUpload && ops[i].Arg.List != nil {
			ops[i].Cacheable = true
		}
	}
	return ops
}

// planMetrics turns the executed plans into modeled-clock counts, all of
// which repeat exactly at a fixed seed.
func (p *prober) planMetrics(plans [][]exec.OpRecord) {
	n := float64(len(plans))
	byKind := map[string]time.Duration{}
	ops, gpuIsect, isect := 0, 0, 0
	var ratios []float64
	for _, plan := range plans {
		ops += len(plan)
		for _, op := range plan {
			key := op.Kind.String()
			if op.Kind == exec.OpIntersect {
				isect++
				if op.Where == sched.GPU {
					gpuIsect++
					key = "intersect_gpu"
				} else {
					key = "intersect_cpu"
				}
			}
			byKind[key] += op.Took
			if op.Est > 0 {
				ratios = append(ratios, float64(op.Took)/float64(op.Est))
			}
		}
	}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / n }
	for metricKey, kind := range map[string]string{
		"upload": exec.OpUpload.String(), "decompress": exec.OpDecompress.String(),
		"intersect_gpu": "intersect_gpu", "intersect_cpu": "intersect_cpu",
		"migrate": exec.OpMigrate.String(), "score": exec.OpScore.String(), "topk": exec.OpTopK.String(),
	} {
		p.set("exec.modeled_us_per_query."+metricKey, us(byKind[kind]), "us", len(plans), "plan")
	}
	p.set("exec.ops_per_query", float64(ops)/n, "count", len(plans), "plan")
	share := 0.0
	if isect > 0 {
		share = float64(gpuIsect) / float64(isect)
	}
	p.set("sched.gpu_op_share", share, "ratio", isect, "plan")
	sr := sortedCopy(ratios)
	p.set("exec.est_ratio_p50", percentile(sr, 50), "ratio", len(sr), "plan")
	p.set("exec.est_ratio_p99", percentile(sr, 99), "ratio", len(sr), "plan")
}

// leaves times the host-side building blocks on the same queries, as
// children of each request's exec.Run span.
func (p *prober) leaves() error {
	tr := p.tr
	scorer := rank.NewScorer(p.ix, rank.DefaultBM25())
	var svs, score, topk time.Duration
	cands := 0
	for q := 0; q < p.nq; q++ {
		tr.req = q
		var lists []*index.PostingList
		var views []index.BlockList
		for _, t := range p.fx.queries[q] {
			pl, ok := p.ix.Lookup(t)
			if !ok {
				return fmt.Errorf("term %s missing from the fixture index", t)
			}
			lists = append(lists, pl)
			views = append(views, index.EFView{L: pl.EF})
		}
		id := tr.begin("intersect.SvS", p.l4[q])
		res := intersect.SvS(views, intersect.DefaultSkipThreshold)
		tr.end(id)
		svs += tr.dur(id)

		id = tr.begin("rank.ScoreCandidates", p.l4[q])
		scored, _ := scorer.ScoreCandidates(lists, res.IDs)
		tr.end(id)
		score += tr.dur(id)
		cands += len(res.IDs)

		id = tr.begin("rank.TopKCPU", p.l4[q])
		rank.TopKCPU(scored, topK)
		tr.end(id)
		topk += tr.dur(id)
	}
	p.set("intersect.svs_ns_per_query", nsPer(svs, p.nq), "ns", p.nq, "span")
	p.set("rank.score_ns_per_cand", nsPer(score, cands), "ns", cands, "span")
	p.set("rank.topk_ns_per_query", nsPer(topk, p.nq), "ns", p.nq, "span")
	return nil
}

// probeLists picks three posting lists across the length range.
func (p *prober) probeLists() []*index.PostingList {
	terms := p.fx.corpus.Terms
	var out []*index.PostingList
	for _, r := range []int{len(terms) / 50, len(terms) / 12, len(terms) / 3} {
		pl, _ := p.ix.Lookup(terms[r])
		out = append(out, pl)
	}
	return out
}

func (p *prober) codecsAndIndex() error {
	lists := p.probeLists()
	var dec, comp time.Duration
	elems := 0
	var pfdBits int64
	for _, pl := range lists {
		s := time.Now()
		ids := pl.EF.Decompress()
		dec += time.Since(s)
		s = time.Now()
		if _, err := ef.Compress(ids); err != nil {
			return err
		}
		comp += time.Since(s)
		elems += len(ids)
		pl2, err := pfordelta.Compress(ids)
		if err != nil {
			return err
		}
		pfdBits += pl2.CompressedBits()
	}
	p.set("ef.decompress_ns_per_elem", nsPer(dec, elems), "ns", elems, "probe")
	p.set("ef.compress_ns_per_elem", nsPer(comp, elems), "ns", elems, "probe")
	p.set("pfordelta.bits_per_elem", float64(pfdBits)/float64(elems), "bits", elems, "probe")
	var efBits int64
	total := 0
	for _, t := range p.ix.Terms() {
		pl, _ := p.ix.Lookup(t)
		efBits += pl.EF.CompressedBits()
		total += pl.N
	}
	p.set("ef.bits_per_elem", float64(efBits)/float64(total), "bits", total, "probe")

	p.set("index.build_s", p.fx.buildS, "s", 0, "probe")
	p.set("index.file_mb", float64(p.fx.fileBytes)/1e6, "MB", 0, "probe")
	s := time.Now()
	f, err := os.Open(p.fx.indexPath)
	if err != nil {
		return err
	}
	_, err = index.ReadIndex(f)
	f.Close()
	if err != nil {
		return err
	}
	p.set("index.load_s", time.Since(s).Seconds(), "s", 0, "probe")

	pl := lists[1]
	ids := pl.EF.Decompress()
	step := max(len(ids)/2000, 1)
	lookups := 0
	s = time.Now()
	for i := 0; i < len(ids); i += step {
		if _, _, ok := pl.FreqForDoc(ids[i]); !ok {
			return fmt.Errorf("FreqForDoc lost doc %d of %s", ids[i], pl.Term)
		}
		lookups++
	}
	p.set("index.freq_lookup_ns", nsPer(time.Since(s), lookups), "ns", lookups, "probe")
	return nil
}

func (p *prober) kernelsAndDevice() error {
	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	s := dev.NewStream()
	lists := p.probeLists()
	a, b := lists[0], lists[1]

	compA, err := kernels.UploadEF(s, a.EF)
	if err != nil {
		return err
	}
	// A single kernel call is at the mercy of one GC cycle, so each is
	// timed five times and the median kept; the modeled cost repeats.
	const reps = 5
	timeKernel := func(fn func() error) (host, modeled time.Duration, err error) {
		var hosts []float64
		for i := 0; i < reps && err == nil; i++ {
			e0, t0 := s.Elapsed(), time.Now()
			err = fn()
			hosts, modeled = append(hosts, float64(time.Since(t0))), s.Elapsed()-e0
		}
		return time.Duration(median(hosts)), modeled, err
	}
	var decA *gpu.Buffer
	host, modeled, err := timeKernel(func() (err error) {
		decA, _, err = kernels.ParaEFDecompress(s, compA)
		return err
	})
	if err != nil {
		return err
	}
	p.set("kernels.paraef_host_ns_per_elem", nsPer(host, a.N), "ns", a.N, "probe")
	p.set("kernels.paraef_modeled_ns_per_elem", nsPer(modeled, a.N), "ns", a.N, "probe")

	compB, err := kernels.UploadEF(s, b.EF)
	if err != nil {
		return err
	}
	decB, _, err := kernels.ParaEFDecompress(s, compB)
	if err != nil {
		return err
	}
	host, modeled, err = timeKernel(func() error {
		_, err := kernels.IntersectMergePath(s, decB, decA)
		return err
	})
	if err != nil {
		return err
	}
	p.set("kernels.mergepath_host_ns_per_elem", nsPer(host, a.N+b.N), "ns", a.N+b.N, "probe")
	p.set("kernels.mergepath_modeled_ns_per_elem", nsPer(modeled, a.N+b.N), "ns", a.N+b.N, "probe")

	// Short decompressed list against the longest compressed one.
	short := lists[2]
	compS, err := kernels.UploadEF(s, short.EF)
	if err != nil {
		return err
	}
	decS, _, err := kernels.ParaEFDecompress(s, compS)
	if err != nil {
		return err
	}
	long, _ := p.ix.Lookup(p.fx.corpus.Terms[0])
	compL, err := kernels.UploadEF(s, long.EF)
	if err != nil {
		return err
	}
	host, _, err = timeKernel(func() error {
		_, err := kernels.IntersectBinarySkips(s, decS, compL)
		return err
	})
	if err != nil {
		return err
	}
	p.set("kernels.binsearch_host_ns_per_probe", nsPer(host, short.N), "ns", short.N, "probe")

	// An empty kernel: what one launch costs the host, in time and objects.
	empty := &gpu.Kernel{Name: "empty", Grid: 1, Block: kernels.ThreadsPerBlock, Phases: []gpu.Phase{func(*gpu.Ctx) {}}}
	const launches = 2000
	objs, wall := countMallocs(func() {
		for i := 0; i < launches; i++ {
			s.Launch(empty)
		}
	})
	p.set("gpu.launch_host_ns", nsPer(wall, launches), "ns", launches, "probe")
	p.set("gpu.launch_allocs", float64(objs)/launches, "count", launches, "memstats")

	rt := gpu.NewRuntime(gpu.New(hwmodel.DefaultGPU(), 0), 1)
	const submits = 20000
	t0 := time.Now()
	for i := 0; i < submits; i++ {
		h := rt.Admit()
		if _, err := h.SubmitOp(gpu.ComputeEngine, "", func(*gpu.Stream) error { return nil }); err != nil {
			return err
		}
		h.Release()
	}
	p.set("gpu.submit_host_ns", nsPer(time.Since(t0), submits), "ns", submits, "probe")

	gate := overload.NewGate(64, 0, 0)
	t0 = time.Now()
	for i := 0; i < submits; i++ {
		if err := gate.Enter(context.Background()); err != nil {
			return err
		}
		gate.Leave()
	}
	p.set("overload.gate_ns", nsPer(time.Since(t0), submits), "ns", submits, "probe")
	return nil
}

// clusterConfig mirrors the search_cluster workload's server flags.
func clusterConfig(placement sched.DevicePlacement) cluster.Config {
	return cluster.Config{
		Engine: core.Config{
			Mode: core.Hybrid, CacheLists: true, Devices: 2, Placement: placement,
			BatchWindow: 200 * time.Microsecond, BatchMax: 16,
		},
		TopK: topK, Replicas: 2, Routing: cluster.LeastPending, HedgeDelay: 2 * time.Millisecond,
		Overload: overload.Config{DefaultDeadline: 50 * time.Millisecond, RetryBudget: 0.1},
	}
}

// cluster times Cluster.Search against the slowest shard engine's own
// search of the same query; the difference is what scatter, routing,
// overload bookkeeping and merge cost on the host.
func (p *prober) cluster() error {
	const shards = 4
	ixs, err := workload.PartitionIndex(p.ix, shards)
	if err != nil {
		return err
	}
	placement := countingPlacement{sched.AffinityDevices{}, new(atomic.Int64)}
	cl, err := cluster.New(ixs, clusterConfig(placement))
	if err != nil {
		return err
	}
	defer cl.Close()
	engines := make([]*core.Engine, shards)
	for i := range engines {
		cfg := clusterConfig(sched.AffinityDevices{}).Engine
		cfg.Device = gpu.New(hwmodel.DefaultGPU(), 0)
		cfg.TopK = topK
		if engines[i], err = core.New(ixs[i], cfg); err != nil {
			return err
		}
		defer engines[i].Close()
	}

	tr, n := p.tr, p.nq
	var total, overhead, mergeModeled time.Duration
	objs, _ := countMallocs(func() {
		for q := 0; q < n; q++ {
			tr.req = q
			id := tr.begin("cluster.Search", p.l1[q])
			res, e := cl.Search(context.Background(), p.fx.queries[q])
			tr.end(id)
			if e != nil {
				err = e
				return
			}
			total += tr.dur(id)
			mergeModeled += res.Stats.MergeTime
		}
	})
	if err != nil {
		return err
	}
	for q := 0; q < n; q++ {
		tr.req = q
		var slowest time.Duration
		for s, eng := range engines {
			id := tr.begin(fmt.Sprintf("core.SearchContext.shard%d", s), -1)
			_, err := eng.SearchContext(context.Background(), p.fx.queries[q])
			tr.end(id)
			if err != nil {
				return err
			}
			slowest = max(slowest, tr.dur(id))
		}
		overhead -= slowest
	}
	overhead += total
	tr.counts["sched.place"] = placement.placed.Load()
	p.set("cluster.search_host_ns_per_query", nsPer(total, n), "ns", n, "span")
	p.set("cluster.fanout_overhead_ns", nsPer(overhead, n), "ns", n, "span-diff")
	p.set("cluster.allocs_per_query", float64(objs)/float64(n), "count", n, "memstats")
	p.set("cluster.merge_modeled_us", float64(mergeModeled)/float64(time.Microsecond)/float64(n), "us", n, "plan")
	return nil
}

func applyMutation(e *ingest.Engine, mu mutation) error {
	switch mu.Op {
	case "add":
		return e.Add(mu.DocID, mu.Tokens)
	case "update":
		return e.Update(mu.DocID, mu.Tokens)
	default:
		return e.Delete(mu.DocID)
	}
}

// script returns the first n mutations of client 0's stream, assuming
// every one is acknowledged.
func (p *prober) script(n int) []mutation {
	m := newMutator(p.fx, 0)
	for len(m.acked) < n {
		mu, target := m.generate()
		m.commit(mu, target)
	}
	return m.acked
}

func (p *prober) ingestAndWAL() error {
	script := p.script(p.nm)
	deltaAt := p.nm * 2 / 3 // the overlay probe's delta size: 200 of 300

	// In-memory live engine: direct mutations, overlay cost, the handler's
	// write path, one merge.
	live, err := ingest.New(p.ix, ingest.Config{Engine: hybridConfig()})
	if err != nil {
		return err
	}
	defer live.Close()
	t0 := time.Now()
	for _, mu := range script[:deltaAt] {
		if err := applyMutation(live, mu); err != nil {
			return err
		}
	}
	p.set("ingest.mutate_host_ns", nsPer(time.Since(t0), deltaAt), "ns", deltaAt, "probe")

	// Overlay cost: the live engine with its 200-record delta against a
	// frozen engine, the same query back to back, median of the pairs.
	frozen, err := core.New(p.ix, hybridConfig())
	if err != nil {
		return err
	}
	defer frozen.Close()
	nOverlay := min(p.nq, 100)
	var overlay []float64
	for q := 0; q < nOverlay; q++ {
		s := time.Now()
		if _, err := frozen.SearchContext(context.Background(), p.fx.queries[q]); err != nil {
			return err
		}
		mid := time.Now()
		if _, err := live.Search(p.fx.queries[q]); err != nil {
			return err
		}
		overlay = append(overlay, float64(time.Since(mid)-mid.Sub(s)))
	}
	p.set("ingest.overlay_overhead_ns", median(overlay), "ns", nOverlay, "span-diff")

	h := server.NewLive(live, 0)
	rest := script[deltaAt:]
	t0 = time.Now()
	for _, mu := range rest {
		body, _ := json.Marshal(mu)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("POST /ingest %s %d: status %d: %s", mu.Op, mu.DocID, rec.Code, rec.Body)
		}
	}
	p.set("server.ingest_handle_ns", nsPer(time.Since(t0), len(rest)), "ns", len(rest), "probe")

	t0 = time.Now()
	if err := live.Merge(); err != nil {
		return err
	}
	p.set("ingest.merge_wall_ms", ms(time.Since(t0)), "ms", 0, "probe")

	// The log on its own: synced and unsynced appends, record size, one
	// checkpoint of the fixture's segment.
	walBase := filepath.Join(p.e.workDir, "probe-wal")
	if err := os.RemoveAll(walBase); err != nil {
		return err
	}
	appendAll := func(dir string, syncEvery int) (time.Duration, *wal.Store, error) {
		st, _, err := wal.Open(filepath.Join(walBase, dir), wal.Options{Shards: 1, SyncEvery: syncEvery})
		if err != nil {
			return 0, nil, err
		}
		ops := map[string]wal.Op{"add": wal.OpAdd, "update": wal.OpUpdate, "delete": wal.OpDelete}
		t0 := time.Now()
		for i, mu := range script {
			if err := st.Append(0, wal.Record{Gen: uint64(i + 1), Op: ops[mu.Op], DocID: mu.DocID, Tokens: mu.Tokens}); err != nil {
				st.Close()
				return 0, nil, err
			}
		}
		return time.Since(t0), st, nil
	}
	if err := os.MkdirAll(walBase, 0o755); err != nil {
		return err
	}
	d, st, err := appendAll("sync", 1)
	if err != nil {
		return err
	}
	ws := st.Stats()
	p.set("wal.append_sync_ns", nsPer(d, len(script)), "ns", len(script), "probe")
	p.set("wal.bytes_per_record", float64(ws.AppendedBytes)/float64(ws.Appends), "B", int(ws.Appends), "probe")
	t0 = time.Now()
	err = st.Checkpoint(p.ix, uint64(len(script)))
	p.set("wal.checkpoint_ms", ms(time.Since(t0)), "ms", 0, "probe")
	st.Close()
	if err != nil {
		return err
	}
	d, st, err = appendAll("nosync", 0)
	if err != nil {
		return err
	}
	st.Close()
	p.set("wal.append_nosync_ns", nsPer(d, len(script)), "ns", len(script), "probe")

	// Crash and recover in process: Crash() discards unsynced bytes, which
	// kill -9 of a child cannot (the OS page cache survives it).
	cfg := ingest.Config{Engine: core.Config{Mode: core.CPUOnly}, WALDir: filepath.Join(walBase, "recover"), WALSyncEvery: 1}
	dur, err := ingest.Open(p.ix, cfg)
	if err != nil {
		return err
	}
	for _, mu := range script {
		if err := applyMutation(dur, mu); err != nil {
			dur.Close()
			return err
		}
	}
	dur.Crash()
	t0 = time.Now()
	re, err := ingest.Open(p.ix, cfg)
	if err != nil {
		return err
	}
	p.set("wal.recover_s", time.Since(t0).Seconds(), "s", len(script), "probe")
	gen := re.Gen()
	re.Close()
	if gen != uint64(len(script)) {
		return fmt.Errorf("in-process recovery: gen %d after %d synced mutations", gen, len(script))
	}

	// The filesystem under the WAL, so the numbers above read as this
	// sandbox's and not as a device's.
	f, err := os.Create(filepath.Join(walBase, "fsync-probe"))
	if err != nil {
		return err
	}
	defer f.Close()
	block := make([]byte, 4096)
	var syncs []float64
	for i := 0; i < 50; i++ {
		s := time.Now()
		if _, err := f.Write(block); err != nil {
			return err
		}
		if err := f.Sync(); err != nil {
			return err
		}
		syncs = append(syncs, float64(time.Since(s))/float64(time.Microsecond))
	}
	p.set("wal.fsync_probe_us", median(syncs), "us", len(syncs), "probe")
	return nil
}
