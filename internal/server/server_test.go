package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/fault"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/ingest"
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

// backend is a server built by one of the four constructors over the test
// corpus, with the shard x replica shape of the cluster it answers
// through.
type backend struct {
	name             string
	shards, replicas int
	srv              *Server
}

// backends builds one server per constructor, every one serving hybrid
// engines with a list cache: a single engine, a 2-shard x 2-replica
// cluster, a live engine and a live 2-shard cluster, the live ones merging
// in the background every two mutations.
func backends(t *testing.T) []backend {
	t.Helper()
	hybrid := func() core.Config {
		return core.Config{Mode: core.Hybrid, Device: gpu.New(hwmodel.DefaultGPU(), 0), CacheLists: true}
	}
	e, err := core.New(testIndex(t), hybrid())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	live, err := ingest.New(testIndex(t), ingest.Config{Engine: hybrid(), MergeThreshold: 2, AutoMerge: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(live.Close)
	lc, err := ingest.OpenCluster(testIndex(t), ingest.ClusterConfig{
		Shards:         2,
		Cluster:        cluster.Config{Engine: core.Config{Mode: core.Hybrid, CacheLists: true}},
		MergeThreshold: 2, AutoMerge: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(lc.Close)
	return []backend{
		{"New", 1, 1, New(e)},
		{"NewCluster", 2, 2, newTestClusterServer(t, 2, 2, 0)},
		{"NewLive", 1, 1, NewLive(live, 0)},
		// NewLive over a 2-shard live cluster; the row keeps the name of
		// the constructor NewLive absorbed.
		{"NewLiveCluster", 2, 1, NewLive(lc, 0)},
	}
}

func get(t *testing.T, srv *Server, path string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

// Every backend answers /search with the single engine's documents over
// the unpartitioned corpus, and a healthy query carries no degradation
// markers.
func TestSearchEndpoint(t *testing.T) {
	for _, b := range backends(t) {
		t.Run(b.name, func(t *testing.T) {
			rec, body := get(t, b.srv, "/search?q=quick+fox")
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, body)
			}
			var resp SearchResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Degraded || len(resp.MissingShards) != 0 {
				t.Fatalf("healthy query degraded: %+v", resp)
			}
			if resp.Candidates != 2 || len(resp.Results) != 2 {
				t.Fatalf("unexpected response: %+v", resp)
			}
			if resp.LatencyMS <= 0 {
				t.Fatal("no simulated latency reported")
			}
			// doc 1 says "quick" and "fox" in fewer words: it ranks first.
			if resp.Results[0].DocID != 1 || resp.Results[1].DocID != 0 {
				t.Fatalf("results %+v, want docs 1 then 0", resp.Results)
			}
		})
	}
}

// TestUntracedSearchGolden: a single engine, a live engine with an empty
// delta and a one-shard cluster write the untraced /search bodies the
// single-engine server wrote before every backend answered through a
// cluster, byte for byte (testdata/search_bodies.golden: the responses
// to goldenPaths, in order, on a fresh server).
func TestUntracedSearchGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/search_bodies.golden")
	if err != nil {
		t.Fatal(err)
	}
	goldenPaths := []string{
		"/search?q=quick+fox",
		"/search?q=lazy+dog&k=1",
		"/search?q=quick+brown",
		"/search?q=quick+fox",
		"/search?q=graphics+retrieval",
		"/search?q=nonexistent+words",
	}
	live, _ := newLiveServer(t, 0)
	oneShard, err := cluster.New([]*index.Index{testIndex(t)}, cluster.Config{Engine: core.Config{Mode: core.Hybrid}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(oneShard.Close)
	for name, srv := range map[string]*Server{"New": newTestServer(t), "NewLive": live, "NewCluster": NewCluster(oneShard)} {
		var got []byte
		for _, path := range goldenPaths {
			_, body := get(t, srv, path)
			got = append(got, body...)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: untraced /search bodies differ from the golden:\n got %s\nwant %s", name, got, want)
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

// /healthz reports one shape on every backend — status, corpus size,
// mode and topology — and /statz counts the searches served.
func TestHealthAndStats(t *testing.T) {
	terms := float64(testIndex(t).NumTerms())
	for _, b := range backends(t) {
		t.Run(b.name, func(t *testing.T) {
			rec, body := get(t, b.srv, "/healthz")
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
			if health["shards"] != float64(b.shards) || health["replicas"] != float64(b.replicas) {
				t.Fatalf("topology not reported: %v", health)
			}
			if health["docs"] != float64(4) || health["terms"] != terms {
				t.Fatalf("corpus reported as %v docs, %v terms; want the global 4 and %v", health["docs"], health["terms"], terms)
			}
			if health["routing"] == "" || health["unreachable_shards"] != float64(0) {
				t.Fatalf("routing/reachability missing: %v", health)
			}

			// Issue a couple of searches, then check counters.
			get(t, b.srv, "/search?q=quick+fox")
			get(t, b.srv, "/search?q=lazy+dog")
			_, body = get(t, b.srv, "/statz")
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
		})
	}
}

// Concurrent searches all succeed; on the live backends they race writes
// through POST /ingest and the background merge commits those trigger.
func TestConcurrentRequests(t *testing.T) {
	for _, b := range backends(t) {
		t.Run(b.name, func(t *testing.T) {
			var wg sync.WaitGroup
			codes := make([]int, 20)
			for i := range codes {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					rec, _ := get(t, b.srv, "/search?q=quick+brown")
					codes[i] = rec.Code
				}(i)
			}
			live := b.srv.writer != nil
			ingested := make([]int, 10)
			for i := range ingested {
				if !live {
					break
				}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					ingested[i] = postIngest(t, b.srv, fmt.Sprintf(`{"op":"add","doc_id":%d,"text":"quick brown hare"}`, 100+i)).Code
				}(i)
			}
			wg.Wait()
			for i, c := range codes {
				if c != http.StatusOK {
					t.Fatalf("request %d: status %d", i, c)
				}
			}
			if !live {
				return
			}
			for i, c := range ingested {
				if c != http.StatusOK {
					t.Fatalf("mutation %d: status %d", i, c)
				}
			}
			var resp SearchResponse
			getJSON(t, b.srv, "/search?q=quick+brown+hare", &resp)
			if resp.Candidates != len(ingested) {
				t.Fatalf("after the writes %d documents match, want %d", resp.Candidates, len(ingested))
			}
		})
	}
}

// /statz surfaces every replica's device runtime under shards[]: after a
// burst of concurrent searches each modeled GPU shows utilization and
// admissions (the acceptance probe for the runtime being wired through
// the service path), the cache aggregate is the sum of the rows, and a
// CPU-only engine reports no device at all.
func TestStatsDeviceTelemetry(t *testing.T) {
	for _, b := range backends(t) {
		t.Run(b.name, func(t *testing.T) {
			const queries = 16
			var wg sync.WaitGroup
			for i := 0; i < queries; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					get(t, b.srv, "/search?q=quick+fox")
				}()
			}
			wg.Wait()

			_, body := get(t, b.srv, "/statz")
			var st StatsResponse
			if err := json.Unmarshal(body, &st); err != nil {
				t.Fatal(err)
			}
			if st.Queries != queries {
				t.Fatalf("queries %d, want %d", st.Queries, queries)
			}
			if st.Device != nil || st.Devices != nil {
				t.Fatalf("device rows outside shards[]: %+v %+v", st.Device, st.Devices)
			}
			if len(st.Shards) != b.shards*b.replicas {
				t.Fatalf("%d telemetry rows, want %d shards x %d replicas", len(st.Shards), b.shards, b.replicas)
			}
			var served, admitted, hits, misses int64
			for _, row := range st.Shards {
				served += row.Queries
				d := row.Device
				if d == nil {
					t.Fatalf("shard %d replica %d: hybrid replica missing device stats", row.Shard, row.Replica)
				}
				admitted += d.Admitted
				if d.Streams < 1 || d.ActiveQueries != 0 || d.Admitted < row.Queries {
					t.Fatalf("shard %d replica %d: implausible device row %+v after %d sub-queries", row.Shard, row.Replica, d, row.Queries)
				}
				if d.Admitted > 0 && (d.Utilization <= 0 || d.Utilization > 1 || d.TimelineSpanMS <= 0 ||
					(d.ComputeBusyMS <= 0 && d.CopyBusyMS <= 0)) {
					t.Fatalf("shard %d replica %d: busy device reports %+v", row.Shard, row.Replica, d)
				}
				if d.QueueWaitMS < 0 || d.BacklogMS < 0 {
					t.Fatalf("implausible device stats: %+v", d)
				}
				// Every allocation is either a pool hit or a miss.
				if d.PoolHits < 0 || d.PoolMisses < 0 || d.PoolTrims < 0 || d.PoolReservedMB < 0 ||
					(d.PoolMisses == 0) != (d.PoolReservedMB == 0) {
					t.Fatalf("implausible pool stats: %+v", d)
				}
				if row.Cache == nil {
					t.Fatalf("shard %d replica %d: caching replica missing cache stats", row.Shard, row.Replica)
				}
				hits += row.Cache.Hits
				misses += row.Cache.Misses
			}
			if served != queries*int64(b.shards) || admitted < served {
				t.Fatalf("replicas served %d sub-queries and admitted %d, want %d queries x %d shards", served, admitted, queries, b.shards)
			}
			// The memory-pool columns are always present on a device row.
			for _, key := range []string{`"pool_hits"`, `"pool_misses"`, `"pool_reserved_mb"`, `"pool_trims"`} {
				if !bytes.Contains(body, []byte(key)) {
					t.Errorf("/statz device row has no %s: %s", key, body)
				}
			}
			if st.Cache == nil || st.Cache.Hits != hits || st.Cache.Misses != misses || misses == 0 {
				t.Fatalf("aggregate cache %+v != sum of rows (hits %d, misses %d)", st.Cache, hits, misses)
			}
		})
	}

	// CPU-only engines have no runtime: the row has no device.
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
	_, body := get(t, New(e), "/statz")
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Shards) != 1 || st.Shards[0].Device != nil {
		t.Fatalf("CPU-only engine reports device telemetry: %+v", st.Shards)
	}
}

// A multi-GPU engine's /statz row grows a per-device telemetry array; a
// single-GPU engine's row omits it.
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
	row := st.Shards[0]
	if len(row.Devices) != 2 {
		t.Fatalf("devices array has %d rows, want 2", len(row.Devices))
	}
	var admitted int64
	for _, d := range row.Devices {
		admitted += d.Admitted
	}
	if admitted < 8 {
		t.Fatalf("per-device admissions sum to %d, want >= 8", admitted)
	}
	if row.Device == nil || row.Device.Admitted != row.Devices[0].Admitted {
		t.Fatalf("device field %+v does not mirror devices[0] %+v", row.Device, row.Devices[0])
	}

	// Single-GPU server: no devices array, and no peer copies in the cache
	// counters.
	_, body = get(t, newTestServer(t), "/statz")
	st = StatsResponse{}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Shards[0].Devices != nil {
		t.Fatalf("single-GPU engine reports a devices array: %+v", st.Shards[0].Devices)
	}
	if st.Cache != nil && st.Cache.PeerCopies != 0 {
		t.Fatalf("single-GPU engine reports peer copies: %+v", st.Cache)
	}
}

// trace=1 adds one row per shard, each with its shard's executed plan —
// a single engine's plan is shards[0].plan — and an untraced body has no
// rows.
func TestSearchTraceParameter(t *testing.T) {
	for _, b := range backends(t) {
		t.Run(b.name, func(t *testing.T) {
			rec, body := get(t, b.srv, "/search?q=quick+fox")
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, body)
			}
			var resp SearchResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if len(resp.Shards) != 0 {
				t.Fatalf("untraced response carries shard rows: %+v", resp.Shards)
			}

			rec, body = get(t, b.srv, "/search?q=quick+fox&trace=1")
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, body)
			}
			resp = SearchResponse{}
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Fatal(err)
			}
			if len(resp.Shards) != b.shards {
				t.Fatalf("trace=1 returned %d shard records, want %d", len(resp.Shards), b.shards)
			}
			rows := 0
			kinds := map[string]bool{}
			for _, ss := range resp.Shards {
				if ss.TimedOut || ss.Error != "" {
					t.Fatalf("healthy shard marked degraded: %+v", ss)
				}
				if ss.LatencyMS <= 0 {
					t.Fatalf("shard %d reports no latency", ss.Shard)
				}
				if len(ss.Plan) == 0 {
					t.Fatalf("shard %d trace carries no plan", ss.Shard)
				}
				rows += len(ss.Plan)
				var end float64
				for _, op := range ss.Plan {
					kinds[op.Op] = true
					if op.Where == "" {
						t.Errorf("plan op %q missing placement", op.Op)
					}
					if op.StartUS < 0 {
						t.Errorf("plan op %q starts at %v us", op.Op, op.StartUS)
					}
					end = max(end, op.StartUS+op.TookUS)
				}
				// The rows place themselves on the shard's timeline: the last
				// one ends at the shard's latency — at one shard, the
				// response's.
				if math.Abs(end-ss.LatencyMS*1000) > 1e-6 {
					t.Errorf("shard %d plan rows end at %v us, its simulated latency is %v us", ss.Shard, end, ss.LatencyMS*1000)
				}
				if b.shards == 1 && ss.LatencyMS != resp.LatencyMS {
					t.Errorf("one shard: shard latency %v ms, response %v ms", ss.LatencyMS, resp.LatencyMS)
				}
			}
			if n := bytes.Count(body, []byte(`"start_us"`)); n != rows {
				t.Errorf("%d of %d plan rows carry start_us", n, rows)
			}
			for _, want := range []string{"fetch", "intersect", "score", "topk"} {
				if !kinds[want] {
					t.Errorf("plan missing %q operator (got %v)", want, kinds)
				}
			}
		})
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
	for _, op := range resp.Shards[0].Plan {
		if op.BatchID != 0 {
			batched++
			if op.BatchSize < 1 {
				t.Fatalf("op %q in batch %d has ordinal %d", op.Op, op.BatchID, op.BatchSize)
			}
		}
	}
	if batched == 0 {
		t.Fatalf("batching-on trace has no batch members: %+v", resp.Shards)
	}
}
