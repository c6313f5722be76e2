package server

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/fault"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/sched"
	"griffin/internal/workload"
)

func testIndex(t *testing.T) *index.Index {
	t.Helper()
	b := index.NewBuilder(index.CodecEF)
	docs := []string{
		"the quick brown fox jumps over the lazy dog",
		"a quick brown dog outpaces a lazy fox",
		"graphics processors accelerate retrieval",
		"posting lists intersect quickly on devices",
	}
	for i, text := range docs {
		if err := b.AddDocument(uint32(i), index.Tokenize(text)); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func newTestServer(t *testing.T) *Server {
	t.Helper()
	ix := testIndex(t)
	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	e, err := core.New(ix, core.Config{Mode: core.Hybrid, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	return New(e)
}

func newTestClusterServer(t *testing.T, shards, replicas int, timeout time.Duration) *Server {
	t.Helper()
	ixs, err := workload.PartitionIndex(testIndex(t), shards)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(ixs, cluster.Config{
		Engine:       core.Config{Mode: core.Hybrid, CacheLists: true},
		TopK:         10,
		Replicas:     replicas,
		ShardTimeout: timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return NewCluster(cl)
}

func get(t *testing.T, srv *Server, path string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

func TestSearchEndpoint(t *testing.T) {
	srv := newTestServer(t)
	rec, body := get(t, srv, "/search?q=quick+fox")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Candidates != 2 || len(resp.Results) != 2 {
		t.Fatalf("unexpected response: %+v", resp)
	}
	if resp.LatencyMS <= 0 {
		t.Fatal("no simulated latency reported")
	}
	for _, h := range resp.Results {
		if h.DocID != 0 && h.DocID != 1 {
			t.Fatalf("wrong doc %d", h.DocID)
		}
	}
}

// TestSearchKParameter: k defaults to the backend's configured top-k (not
// a fixed 10), a smaller or equal k is honoured, and a larger one is
// refused with a 400 that names the limit — on one engine and on a
// cluster.
func TestSearchKParameter(t *testing.T) {
	const topK, docs = 20, 40
	b := index.NewBuilder(index.CodecEF)
	for i := 0; i < docs; i++ {
		toks := []string{"fox"}
		for j := 0; j <= i%7; j++ {
			toks = append(toks, "fox", "den")
		}
		if err := b.AddDocument(uint32(i), toks); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.New(ix, core.Config{Mode: core.CPUOnly, TopK: topK})
	if err != nil {
		t.Fatal(err)
	}
	ixs, err := workload.PartitionIndex(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(ixs, cluster.Config{Engine: core.Config{Mode: core.CPUOnly}, TopK: topK})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)

	for name, srv := range map[string]*Server{"engine": New(e), "cluster": NewCluster(cl)} {
		for _, c := range []struct {
			query string
			want  int // results, or -1 for a 400
		}{{"", topK}, {"&k=5", 5}, {"&k=20", topK}, {"&k=21", -1}} {
			rec, body := get(t, srv, "/search?q=fox"+c.query)
			if c.want < 0 {
				if rec.Code != http.StatusBadRequest || !bytes.Contains(body, []byte("[1,20]")) {
					t.Errorf("%s %q: status %d %q, want 400 naming the limit 20", name, c.query, rec.Code, body)
				}
				continue
			}
			var resp SearchResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatalf("%s %q: %v (%s)", name, c.query, err, body)
			}
			if len(resp.Results) != c.want {
				t.Errorf("%s %q: %d results, want %d", name, c.query, len(resp.Results), c.want)
			}
		}
	}
}

func TestSearchValidation(t *testing.T) {
	srv := newTestServer(t)
	cases := []string{
		"/search",                 // missing q
		"/search?q=",              // empty q
		"/search?q=%21%40%23",     // tokenizes to nothing
		"/search?q=fox&k=0",       // bad k
		"/search?q=fox&k=99999",   // k too large
		"/search?q=fox&k=notanum", // non-numeric k
	}
	for _, path := range cases {
		rec, _ := get(t, srv, path)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", path, rec.Code)
		}
	}
}

func TestSearchNoMatches(t *testing.T) {
	srv := newTestServer(t)
	rec, body := get(t, srv, "/search?q=nonexistent+words")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var resp SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Candidates != 0 || len(resp.Results) != 0 {
		t.Fatalf("expected empty result: %+v", resp)
	}
}

func TestHealthAndStats(t *testing.T) {
	srv := newTestServer(t)
	rec, body := get(t, srv, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz status %d", rec.Code)
	}
	var health map[string]any
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" || health["mode"] != "griffin" {
		t.Fatalf("health: %v", health)
	}

	// Issue a couple of searches, then check counters.
	get(t, srv, "/search?q=quick+fox")
	get(t, srv, "/search?q=lazy+dog")
	_, body = get(t, srv, "/statz")
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Queries != 2 || st.Errors != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.MeanLatencyMS <= 0 {
		t.Fatal("mean latency not aggregated")
	}
}

func TestConcurrentRequests(t *testing.T) {
	srv := newTestServer(t)
	var wg sync.WaitGroup
	codes := make([]int, 20)
	for i := range codes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, _ := get(t, srv, "/search?q=quick+brown")
			codes[i] = rec.Code
		}(i)
	}
	wg.Wait()
	for i, c := range codes {
		if c != http.StatusOK {
			t.Fatalf("request %d: status %d", i, c)
		}
	}
}

// /statz must surface the shared device runtime: after a burst of
// concurrent searches the modeled GPU shows non-zero utilization and
// admissions (the acceptance probe for the runtime being wired through
// the service path), while a CPU-only engine reports no device at all.
func TestStatsDeviceTelemetry(t *testing.T) {
	srv := newTestServer(t)

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			get(t, srv, "/search?q=quick+fox")
		}()
	}
	wg.Wait()

	_, body := get(t, srv, "/statz")
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Device == nil {
		t.Fatal("hybrid engine reports no device telemetry")
	}
	d := st.Device
	if d.Streams < 1 {
		t.Fatalf("streams = %d", d.Streams)
	}
	if d.Admitted < 16 {
		t.Fatalf("admitted = %d, want >= 16", d.Admitted)
	}
	if d.Utilization <= 0 || d.Utilization > 1 {
		t.Fatalf("utilization %v not in (0,1] after concurrent batch", d.Utilization)
	}
	if d.ComputeBusyMS <= 0 && d.CopyBusyMS <= 0 {
		t.Fatal("no device busy time accumulated")
	}
	if d.ActiveQueries != 0 {
		t.Fatalf("active queries %d after all requests returned", d.ActiveQueries)
	}
	if d.QueueWaitMS < 0 || d.BacklogMS < 0 || d.TimelineSpanMS <= 0 {
		t.Fatalf("implausible device stats: %+v", d)
	}
	// The memory-pool columns are always present on a device row, and
	// every allocation is either a hit or a miss.
	for _, key := range []string{`"pool_hits"`, `"pool_misses"`, `"pool_reserved_mb"`, `"pool_trims"`} {
		if !bytes.Contains(body, []byte(key)) {
			t.Errorf("/statz device row has no %s: %s", key, body)
		}
	}
	if d.PoolHits < 0 || d.PoolMisses < 0 || d.PoolTrims < 0 || d.PoolReservedMB < 0 ||
		(d.PoolMisses == 0) != (d.PoolReservedMB == 0) {
		t.Fatalf("implausible pool stats: %+v", d)
	}

	// CPU-only engines have no runtime: the field is omitted.
	b := index.NewBuilder(index.CodecEF)
	if err := b.AddDocument(0, index.Tokenize("plain host search")); err != nil {
		t.Fatal(err)
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := core.New(ix, core.Config{Mode: core.CPUOnly})
	if err != nil {
		t.Fatal(err)
	}
	_, body = get(t, New(e), "/statz")
	st = StatsResponse{}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Device != nil {
		t.Fatalf("CPU-only engine reports device telemetry: %+v", st.Device)
	}
}

// A multi-GPU engine grows a per-device telemetry array on /statz; a
// single-GPU engine omits it so devices=1 output stays identical to
// older builds.
func TestStatsMultiDeviceTelemetry(t *testing.T) {
	ix := testIndex(t)
	e, err := core.New(ix, core.Config{
		Mode: core.Hybrid, Device: gpu.New(hwmodel.DefaultGPU(), 0),
		Devices: 2, Placement: &sched.RoundRobinDevices{}, CacheLists: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(e)
	for i := 0; i < 8; i++ {
		get(t, srv, "/search?q=quick+fox")
	}

	_, body := get(t, srv, "/statz")
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Devices) != 2 {
		t.Fatalf("devices array has %d rows, want 2", len(st.Devices))
	}
	var admitted int64
	for _, d := range st.Devices {
		admitted += d.Admitted
	}
	if admitted < 8 {
		t.Fatalf("per-device admissions sum to %d, want >= 8", admitted)
	}
	if st.Device == nil || st.Device.Admitted != st.Devices[0].Admitted {
		t.Fatalf("device field %+v does not mirror devices[0] %+v", st.Device, st.Devices[0])
	}

	// Single-GPU server: no devices array, and no peer copies in the cache
	// counters.
	_, body = get(t, newTestServer(t), "/statz")
	st = StatsResponse{}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Devices != nil {
		t.Fatalf("single-GPU engine reports a devices array: %+v", st.Devices)
	}
	if st.Cache != nil && st.Cache.PeerCopies != 0 {
		t.Fatalf("single-GPU engine reports peer copies: %+v", st.Cache)
	}
}

func TestSearchTraceParameter(t *testing.T) {
	srv := newTestServer(t)

	// Without trace=1 the plan is omitted.
	rec, body := get(t, srv, "/search?q=quick+fox")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Plan) != 0 {
		t.Fatalf("untraced response carries a plan: %+v", resp.Plan)
	}

	rec, body = get(t, srv, "/search?q=quick+fox&trace=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	resp = SearchResponse{}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Plan) == 0 {
		t.Fatal("trace=1 response has no plan")
	}
	if n := bytes.Count(body, []byte(`"start_us"`)); n != len(resp.Plan) {
		t.Errorf("%d of %d plan rows carry start_us", n, len(resp.Plan))
	}
	kinds := map[string]bool{}
	var end float64
	for _, op := range resp.Plan {
		kinds[op.Op] = true
		if op.Where == "" {
			t.Errorf("plan op %q missing placement", op.Op)
		}
		if op.StartUS < 0 {
			t.Errorf("plan op %q starts at %v us", op.Op, op.StartUS)
		}
		end = max(end, op.StartUS+op.TookUS)
	}
	// The rows place themselves on the query's timeline: the last one
	// ends at the response's latency.
	if math.Abs(end-resp.LatencyMS*1000) > 1e-6 {
		t.Errorf("plan rows end at %v us, simulated latency is %v us", end, resp.LatencyMS*1000)
	}
	for _, want := range []string{"fetch", "intersect", "score", "topk"} {
		if !kinds[want] {
			t.Errorf("plan missing %q operator (got %v)", want, kinds)
		}
	}
}

// The cluster-backed server answers /search with the same documents as
// the single-engine server over the unpartitioned corpus, and a healthy
// query carries no degradation markers.
func TestClusterSearchEndpoint(t *testing.T) {
	single := newTestServer(t)
	srv := newTestClusterServer(t, 2, 1, 0)

	_, wantBody := get(t, single, "/search?q=quick+fox")
	rec, body := get(t, srv, "/search?q=quick+fox")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var want, resp SearchResponse
	if err := json.Unmarshal(wantBody, &want); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Degraded || len(resp.MissingShards) != 0 {
		t.Fatalf("healthy query degraded: %+v", resp)
	}
	if resp.Candidates != want.Candidates || len(resp.Results) != len(want.Results) {
		t.Fatalf("cluster response %+v != single-engine %+v", resp, want)
	}
	for i := range want.Results {
		if resp.Results[i] != want.Results[i] {
			t.Fatalf("result[%d] = %+v != single-engine %+v", i, resp.Results[i], want.Results[i])
		}
	}
	if resp.LatencyMS <= 0 {
		t.Fatal("no simulated latency reported")
	}
}

func TestClusterSearchTraceShards(t *testing.T) {
	srv := newTestClusterServer(t, 2, 1, 0)
	rec, body := get(t, srv, "/search?q=quick+fox&trace=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Shards) != 2 {
		t.Fatalf("trace=1 returned %d shard records, want 2", len(resp.Shards))
	}
	for _, ss := range resp.Shards {
		if ss.TimedOut || ss.Error != "" {
			t.Fatalf("healthy shard marked degraded: %+v", ss)
		}
		if ss.LatencyMS <= 0 {
			t.Fatalf("shard %d reports no latency", ss.Shard)
		}
	}
	if len(resp.Plan) != 0 {
		t.Fatalf("cluster trace carries a single-engine plan: %+v", resp.Plan)
	}
}

func TestClusterSearchTimeoutDegrades(t *testing.T) {
	srv := newTestClusterServer(t, 2, 1, time.Nanosecond)
	rec, body := get(t, srv, "/search?q=quick+fox")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded {
		t.Fatal("1ns shard timeout did not degrade the response")
	}
	if len(resp.MissingShards) != 2 {
		t.Fatalf("missing shards %v, want both", resp.MissingShards)
	}
	if len(resp.Results) != 0 {
		t.Fatalf("fully degraded query returned results: %+v", resp.Results)
	}

	_, body = get(t, srv, "/statz")
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Degraded != 1 {
		t.Fatalf("degraded counter %d, want 1", st.Degraded)
	}
}

func TestClusterHealthz(t *testing.T) {
	srv := newTestClusterServer(t, 2, 2, 0)
	rec, body := get(t, srv, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var health map[string]any
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health["status"] != "ok" {
		t.Fatalf("health: %v", health)
	}
	if health["shards"] != float64(2) || health["replicas"] != float64(2) {
		t.Fatalf("topology not reported: %v", health)
	}
	if health["docs"] != float64(4) {
		t.Fatalf("cluster reports %v docs, want the global count 4", health["docs"])
	}
	if health["routing"] == "" || health["mode"] == "" {
		t.Fatalf("routing/mode missing: %v", health)
	}
}

// /statz on a cluster server carries one telemetry row per shard replica
// with device and cache counters, plus the cluster-wide cache aggregate.
func TestClusterStatsTelemetry(t *testing.T) {
	srv := newTestClusterServer(t, 2, 2, 0)
	for i := 0; i < 4; i++ {
		get(t, srv, "/search?q=quick+fox")
	}
	_, body := get(t, srv, "/statz")
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Queries != 4 {
		t.Fatalf("queries %d, want 4", st.Queries)
	}
	if len(st.Shards) != 4 {
		t.Fatalf("%d telemetry rows, want 2 shards x 2 replicas = 4", len(st.Shards))
	}
	var served, admitted, hits, misses int64
	for _, row := range st.Shards {
		served += row.Queries
		if row.Device == nil {
			t.Fatalf("shard %d replica %d: hybrid replica missing device stats", row.Shard, row.Replica)
		}
		admitted += row.Device.Admitted
		if row.Cache == nil {
			t.Fatalf("shard %d replica %d: caching replica missing cache stats", row.Shard, row.Replica)
		}
		hits += row.Cache.Hits
		misses += row.Cache.Misses
	}
	if served != 8 {
		t.Fatalf("replicas served %d sub-queries, want 4 queries x 2 shards = 8", served)
	}
	if admitted == 0 {
		t.Fatal("no replica admitted device work")
	}
	if st.Cache == nil {
		t.Fatal("cluster cache aggregate missing")
	}
	if st.Cache.Hits != hits || st.Cache.Misses != misses {
		t.Fatalf("aggregate cache %+v != sum of rows (hits %d, misses %d)", st.Cache, hits, misses)
	}
	if st.Cache.Misses == 0 {
		t.Fatal("cache counters never moved")
	}
}

// The single-engine /statz surfaces the list-cache counters when caching
// is on and omits them when it is off.
func TestStatsCacheCounters(t *testing.T) {
	ix := testIndex(t)
	e, err := core.New(ix, core.Config{
		Mode: core.Hybrid, Device: gpu.New(hwmodel.DefaultGPU(), 0), CacheLists: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(e)
	get(t, srv, "/search?q=quick+fox")
	get(t, srv, "/search?q=quick+fox")
	_, body := get(t, srv, "/statz")
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache == nil {
		t.Fatal("caching engine reports no cache counters")
	}
	if st.Cache.Misses == 0 {
		t.Fatalf("cache misses never counted: %+v", st.Cache)
	}
	if st.Cache.Hits == 0 {
		t.Fatalf("repeated query did not hit the cache: %+v", st.Cache)
	}

	// The non-caching hybrid server omits the object.
	_, body = get(t, newTestServer(t), "/statz")
	st = StatsResponse{}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Cache != nil {
		t.Fatalf("non-caching engine reports cache counters: %+v", st.Cache)
	}
}

// newChaosClusterServer builds a cluster server with a caller-supplied
// cluster config (fault plan, breakers, replication) over the tiny test
// corpus.
func newChaosClusterServer(t *testing.T, shards int, cfg cluster.Config) *Server {
	t.Helper()
	ixs, err := workload.PartitionIndex(testIndex(t), shards)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(ixs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return NewCluster(cl)
}

// /healthz must flip to 503 "unhealthy" when a majority of shards have
// every replica's breaker open, and report the per-shard breaker rows.
func TestClusterHealthzUnhealthy503(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Seed: 3, Rules: []fault.Rule{
		{Kind: fault.EngineError, Rate: 1},
	}})
	srv := newChaosClusterServer(t, 2, cluster.Config{
		Engine:   core.Config{Mode: core.CPUOnly},
		TopK:     10,
		Replicas: 1,
		Fault:    inj,
		Breaker:  fault.BreakerConfig{Threshold: 3, Cooldown: 50 * time.Millisecond},
	})

	// Every sub-query fails; three strikes trip each shard's only
	// replica. The searches themselves come back as 500s.
	for i := 0; i < 3; i++ {
		if rec, _ := get(t, srv, "/search?q=quick+fox"); rec.Code != http.StatusInternalServerError {
			t.Fatalf("failing search %d: status %d, want 500", i, rec.Code)
		}
	}

	rec, body := get(t, srv, "/healthz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("healthz status %d, want 503: %s", rec.Code, body)
	}
	var health struct {
		Status      string            `json:"status"`
		Unreachable int               `json:"unreachable_shards"`
		Shards      []ShardHealthJSON `json:"shard_health"`
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "unhealthy" || health.Unreachable != 2 {
		t.Fatalf("health = %+v, want unhealthy with 2 unreachable shards", health)
	}
	if len(health.Shards) != 2 {
		t.Fatalf("%d shard rows, want 2", len(health.Shards))
	}
	for _, sh := range health.Shards {
		if sh.Reachable || sh.OpenBreakers != 1 {
			t.Fatalf("shard %d row %+v, want unreachable with 1 open breaker", sh.Shard, sh)
		}
	}

	// /statz reflects the same story: failures and breaker trips.
	_, body = get(t, srv, "/statz")
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.SelfHeal == nil || st.SelfHeal.Failed != 3 || st.SelfHeal.BreakerTrips != 2 {
		t.Fatalf("self-heal snapshot %+v, want 3 failed queries and 2 breaker trips", st.SelfHeal)
	}
	open := 0
	for _, row := range st.Shards {
		if row.Breaker == "open" {
			open++
		}
	}
	if open != 2 {
		t.Fatalf("%d open breakers in /statz rows, want 2", open)
	}
}

// /statz surfaces the self-healing counters, the per-kind fault totals,
// and the capped injected-fault log; per-query traces carry the
// CPU-fallback markers.
func TestClusterStatzChaosSurface(t *testing.T) {
	inj := fault.NewInjector(fault.Plan{Seed: 9, Rules: []fault.Rule{
		{Kind: fault.KernelLaunch, Rate: 1}, // every device query falls back to CPU
	}})
	srv := newChaosClusterServer(t, 2, cluster.Config{
		Engine:   core.Config{Mode: core.Hybrid, CacheLists: true},
		TopK:     10,
		Replicas: 1,
		Fault:    inj,
		Breaker:  fault.BreakerConfig{Threshold: -1},
	})

	rec, body := get(t, srv, "/search?q=quick+fox&trace=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	var resp SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Fallbacks == 0 {
		t.Fatalf("response reports no CPU fallbacks: %+v", resp)
	}
	if len(resp.Results) == 0 {
		t.Fatal("fallback query returned no results")
	}
	fellBack := false
	for _, ss := range resp.Shards {
		if ss.FallbackCPU {
			fellBack = true
			if ss.Fault == "" {
				t.Fatalf("fallback shard row missing its fault cause: %+v", ss)
			}
		}
		if ss.EffectiveMS <= 0 {
			t.Fatalf("shard row missing effective latency: %+v", ss)
		}
	}
	if !fellBack {
		t.Fatalf("no shard trace row marked fallback_cpu: %+v", resp.Shards)
	}

	_, body = get(t, srv, "/statz")
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.SelfHeal == nil {
		t.Fatal("cluster /statz missing self_heal")
	}
	if st.SelfHeal.Fallbacks == 0 || st.SelfHeal.InjectedFaults == 0 {
		t.Fatalf("self-heal counters did not move: %+v", st.SelfHeal)
	}
	if st.FaultCounts["kernel-launch"] == 0 {
		t.Fatalf("fault_counts missing kernel-launch: %v", st.FaultCounts)
	}
	if len(st.Faults) == 0 || len(st.Faults) > 100 {
		t.Fatalf("fault log has %d events, want 1..100", len(st.Faults))
	}
	for _, ev := range st.Faults {
		if ev.Site == "" || ev.Kind == "" {
			t.Fatalf("malformed fault event: %+v", ev)
		}
	}

	// A fault-free cluster server omits the whole chaos surface.
	_, body = get(t, newTestClusterServer(t, 2, 1, 0), "/statz")
	st = StatsResponse{}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.FaultCounts != nil || st.Faults != nil {
		t.Fatalf("un-faulted cluster reports fault telemetry: %v %v", st.FaultCounts, st.Faults)
	}
}

// A batching-enabled server surfaces the stage's configuration and
// telemetry in /statz; a batching-off server's output must not mention
// batching at all (the byte-identity guarantee for existing consumers).
func TestStatsBatchingBlock(t *testing.T) {
	ix := testIndex(t)
	mk := func(window time.Duration) *Server {
		e, err := core.New(ix, core.Config{
			Mode:        core.Hybrid,
			Device:      gpu.New(hwmodel.DefaultGPU(), 0),
			BatchWindow: window,
			BatchMax:    4,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		return New(e)
	}

	_, body := get(t, mk(0), "/statz")
	if bytes.Contains(body, []byte("batching")) {
		t.Fatalf("batching-off /statz mentions batching: %s", body)
	}

	srv := mk(250 * time.Microsecond)
	if rec, body := get(t, srv, "/search?q=quick+fox"); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	_, body = get(t, srv, "/statz")
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Batching == nil {
		t.Fatalf("batching-on /statz has no batching block: %s", body)
	}
	if st.Batching.WindowUS != 250 || st.Batching.Max != 4 {
		t.Fatalf("batching config %+v, want window 250us max 4", st.Batching)
	}
	if st.Batching.Batches == 0 || st.Batching.Members < st.Batching.Batches {
		t.Fatalf("batching counters did not move: %+v", st.Batching)
	}

	// Cluster servers aggregate the block across replicas.
	ixs, err := workload.PartitionIndex(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(ixs, cluster.Config{
		Engine:   core.Config{Mode: core.Hybrid, BatchWindow: 250 * time.Microsecond},
		TopK:     10,
		Replicas: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	csrv := NewCluster(cl)
	if rec, body := get(t, csrv, "/search?q=quick+fox"); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, body)
	}
	_, body = get(t, csrv, "/statz")
	st = StatsResponse{}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Batching == nil || st.Batching.Batches == 0 {
		t.Fatalf("cluster batching block missing or empty: %s", body)
	}
}

// Trace records carry batch membership only when the op actually joined
// a batch: batching-off traces must not mention batch_id (byte identity),
// batching-on traces mark each keyed device op with its batch and 1-based
// ordinal.
func TestSearchTraceBatchFields(t *testing.T) {
	ix := testIndex(t)
	mk := func(window time.Duration) *Server {
		e, err := core.New(ix, core.Config{
			Mode:        core.GPUOnly,
			Device:      gpu.New(hwmodel.DefaultGPU(), 0),
			BatchWindow: window,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		return New(e)
	}

	_, body := get(t, mk(0), "/search?q=quick+fox&trace=1")
	if bytes.Contains(body, []byte("batch_id")) {
		t.Fatalf("batching-off trace mentions batch_id: %s", body)
	}

	_, body = get(t, mk(time.Millisecond), "/search?q=quick+fox&trace=1")
	var resp SearchResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	batched := 0
	for _, op := range resp.Plan {
		if op.BatchID != 0 {
			batched++
			if op.BatchSize < 1 {
				t.Fatalf("op %q in batch %d has ordinal %d", op.Op, op.BatchID, op.BatchSize)
			}
		}
	}
	if batched == 0 {
		t.Fatalf("batching-on trace has no batch members: %+v", resp.Plan)
	}
}
