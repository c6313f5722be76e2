// Package server exposes a Griffin engine — or a sharded cluster of them
// — as a small JSON-over-HTTP search service, the deployment surface an
// interactive IR system (the paper's motivating setting) actually
// presents to clients. Handlers are safe for concurrent requests. Every
// backend answers through a cluster — a single engine is a one-shard
// cluster whose latency is exactly the engine's — so each request maps to
// one Cluster.Query, and the per-request simulated latency reported in
// responses is the cluster's critical-path model (max over shards + merge;
// one shard has no merge, which makes it the paper's per-query metric).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/fault"
	"griffin/internal/gpu"
	"griffin/internal/index"
	"griffin/internal/ingest"
	"griffin/internal/overload"
	"griffin/internal/wal"
)

// Server routes search traffic to a cluster — frozen, or live behind an
// ingestion layer accepting writes.
type Server struct {
	// read answers every /search, /healthz and /statz.
	read reader
	// writer is the live backend's write half (nil on a read-only server).
	writer liveWriter
	mux    *http.ServeMux

	// freshness is the merge-lag threshold past which /healthz reports
	// "degraded" (0 = no freshness check). Live backends only.
	freshness int

	// gate bounds in-flight /search requests on the wall clock (nil =
	// unbounded); installed by ConfigureOverload.
	gate *overload.Gate

	queries  atomic.Int64
	errors   atomic.Int64
	degraded atomic.Int64
	simNanos atomic.Int64
	ingested atomic.Int64
	// sheds counts /search requests refused with 503 by cluster-level
	// overload control (the gate keeps its own shed counter).
	sheds atomic.Int64
}

// reader is the read half of every backend: a query against its freshest
// state, and the serving cluster behind it for topology and telemetry.
type reader interface {
	Query(ctx context.Context, req cluster.Request) (*ingest.ClusterResult, error)
	Cluster() *cluster.Cluster
}

// frozen is a read-only cluster as a reader.
type frozen struct{ cl *cluster.Cluster }

func (f frozen) Query(ctx context.Context, req cluster.Request) (*ingest.ClusterResult, error) {
	res, err := f.cl.Query(ctx, req)
	if err != nil {
		return nil, err
	}
	return &ingest.ClusterResult{Result: res}, nil
}

func (f frozen) Cluster() *cluster.Cluster { return f.cl }

// liveWriter is what /ingest, /healthz and /statz need of a live
// backend: apply a mutation, read the writer generation and the merge lag
// (the records pending in deltas), report a wedged write-ahead log, and
// snapshot the ingest telemetry.
type liveWriter interface {
	Apply(op wal.Op, docID uint32, tokens []string) error
	Progress() (gen, lag uint64)
	Wedged() error
	Stats() ingest.ClusterStats
}

// New wraps a single engine, served as a one-shard cluster. The engine
// must outlive the server.
func New(engine *core.Engine) *Server { return NewCluster(cluster.OfEngine(engine)) }

// NewCluster wraps a sharded cluster. The cluster must outlive the
// server.
func NewCluster(cl *cluster.Cluster) *Server { return newServer(frozen{cl}, nil, 0) }

// NewLive wraps a live ingestion cluster — at one shard, the single-node
// live engine: /search serves snapshot-isolated reads through the
// deltas, POST /ingest accepts mutations, and /healthz degrades when
// merge lag exceeds freshness (0 = no check). The cluster must outlive
// the server; the caller owns Close (which drains in-flight background
// merges).
func NewLive(c *ingest.Cluster, freshness int) *Server {
	return newServer(c, c, freshness)
}

func newServer(read reader, writer liveWriter, freshness int) *Server {
	s := &Server{read: read, writer: writer, freshness: freshness}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /search", s.handleSearch)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /statz", s.handleStats)
	if writer != nil {
		s.mux.HandleFunc("POST /ingest", s.handleIngest)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// SearchResponse is the /search reply body.
type SearchResponse struct {
	Query      []string  `json:"query"`
	Candidates int       `json:"candidates"`
	LatencyMS  float64   `json:"simulated_latency_ms"`
	Migrated   bool      `json:"migrated"`
	Results    []HitJSON `json:"results"`
	// Degraded and MissingShards report partial cluster results: shards
	// that errored or exceeded the shard timeout are listed rather than
	// failing the query.
	Degraded      bool  `json:"degraded,omitempty"`
	MissingShards []int `json:"missing_shards,omitempty"`
	// Retries, Hedges, and Fallbacks total the cluster's self-healing
	// actions for this query.
	Retries   int `json:"retries,omitempty"`
	Hedges    int `json:"hedges,omitempty"`
	Fallbacks int `json:"fallbacks,omitempty"`
	// Overload record, all omitted when overload control is off so the
	// pre-overload response body is byte-identical: the deadline budget
	// the query ran under and whether it missed, the criticality class
	// (only "batch" is marked), the brownout level it was served at, and
	// the degradation applied (CPU-only plan, reduced top-k, hedges
	// suppressed).
	DeadlineMS    float64 `json:"deadline_ms,omitempty"`
	DeadlineMiss  bool    `json:"deadline_miss,omitempty"`
	Class         string  `json:"class,omitempty"`
	BrownoutLevel int     `json:"brownout_level,omitempty"`
	ForcedCPU     bool    `json:"forced_cpu,omitempty"`
	DegradedTopK  int     `json:"degraded_top_k,omitempty"`
	HedgeSkips    int     `json:"hedge_skips,omitempty"`
	// Shards is the per-shard execution summary, each shard's executed
	// physical plan included, present when the request set trace=1 (one
	// row on a single-engine server).
	Shards []ShardTraceJSON `json:"shards,omitempty"`
}

// PlanOpJSON is one executed plan operator of a traced request.
type PlanOpJSON struct {
	Op    string `json:"op"`
	Algo  string `json:"algo,omitempty"`
	Where string `json:"where"`
	Term  string `json:"term,omitempty"`
	NIn   int    `json:"n_in"`
	NOut  int    `json:"n_out"`
	Bytes int64  `json:"bytes,omitempty"`
	// StartUS places the operator on the query's own timeline (0 = the
	// first fetch, simulated_latency_ms = the end of top-k): device
	// operators of one step overlap, so start_us + took_us of an upload
	// can pass the start_us of the next row.
	StartUS   float64 `json:"start_us"`
	TookUS    float64 `json:"took_us"`
	EstTookUS float64 `json:"est_took_us"`
	// Device is the node device the operator ran on; Peer marks an upload
	// satisfied by a device-to-device copy from a sibling's cache rather
	// than a host transfer. Both appear only on multi-GPU engines.
	Device int  `json:"device,omitempty"`
	Peer   bool `json:"peer,omitempty"`
	// BatchID and BatchSize appear when the device runtime's cross-query
	// batching stage coalesced the operator into a combined launch:
	// batch_id identifies the batch on its device and batch_size is the
	// operator's 1-based ordinal within it (1 = the leader, which paid the
	// batch's full fixed costs; the last member's ordinal is the batch's
	// final size). Omitted for unbatched operators, so servers running
	// with batching disabled emit byte-identical traces.
	BatchID   int64 `json:"batch_id,omitempty"`
	BatchSize int   `json:"batch_size,omitempty"`
}

// ShardTraceJSON summarizes one shard's contribution to a traced request.
type ShardTraceJSON struct {
	Shard      int     `json:"shard"`
	Replica    int     `json:"replica"`
	LatencyMS  float64 `json:"simulated_latency_ms"`
	Candidates int     `json:"candidates"`
	GPUWaitMS  float64 `json:"gpu_wait_ms"`
	Migrated   bool    `json:"migrated"`
	TimedOut   bool    `json:"timed_out,omitempty"`
	Error      string  `json:"error,omitempty"`
	// Self-healing path: sibling retries taken, hedge dispatched/won,
	// CPU fallback served the sub-query (with the injected fault that
	// caused it), and the shard's effective critical-path latency.
	Retries     int     `json:"retries,omitempty"`
	Hedged      bool    `json:"hedged,omitempty"`
	HedgeWon    bool    `json:"hedge_won,omitempty"`
	FallbackCPU bool    `json:"fallback_cpu,omitempty"`
	Fault       string  `json:"fault,omitempty"`
	EffectiveMS float64 `json:"effective_ms,omitempty"`
	// Overload markers (omitted when overload control is off): the
	// sub-query was shed by the replica's admission rule, refused by
	// device budget admission, answered past its sub-deadline and
	// dropped, or had its hedge suppressed.
	Shed             bool `json:"shed,omitempty"`
	BudgetRejected   bool `json:"budget_rejected,omitempty"`
	DeadlineExceeded bool `json:"deadline_exceeded,omitempty"`
	HedgeSkipped     bool `json:"hedge_skipped,omitempty"`
	// Plan is the executed physical plan of the attempt whose result was
	// used (omitted for a shard that answered nothing).
	Plan []PlanOpJSON `json:"plan,omitempty"`
}

// HitJSON is one ranked result.
type HitJSON struct {
	DocID uint32  `json:"doc_id"`
	Score float32 `json:"score"`
}

// handleSearch serves GET /search?q=terms+separated+by+spaces[&k=n][&trace=1].
// k defaults to the backend's configured top-k, which is also the largest
// k a request may ask for. With trace=1 the response includes the
// per-shard execution summary with each shard's physical plan. The
// request context rides through to the shard sub-queries: a client that
// disconnects cancels the stragglers at their next plan-operator boundary.
func (s *Server) handleSearch(w http.ResponseWriter, r *http.Request) {
	q := strings.TrimSpace(r.URL.Query().Get("q"))
	if q == "" {
		http.Error(w, `missing query parameter "q"`, http.StatusBadRequest)
		return
	}
	terms := index.Tokenize(q)
	if len(terms) == 0 {
		http.Error(w, "query has no indexable terms", http.StatusBadRequest)
		return
	}
	k := s.read.Cluster().TopK()
	if ks := r.URL.Query().Get("k"); ks != "" {
		v, err := strconv.Atoi(ks)
		if err != nil || v < 1 || v > k {
			http.Error(w, `parameter "k" must be an integer in [1,`+strconv.Itoa(k)+`], the server's top-k`, http.StatusBadRequest)
			return
		}
		k = v
	}
	trace := r.URL.Query().Get("trace") == "1"
	qo, ok := parseQueryOpts(w, r)
	if !ok {
		return
	}

	// Wall-clock admission: bound in-flight work before touching any
	// backend. A shed here is the cheapest refusal the server can make.
	if err := s.gate.Enter(r.Context()); err != nil {
		if errors.Is(err, overload.ErrShed) {
			http.Error(w, "overloaded: "+err.Error(), http.StatusServiceUnavailable)
		} // context gone: the client left, nothing useful to write
		return
	}
	defer s.gate.Leave()

	lr, err := s.read.Query(r.Context(), cluster.Request{Terms: terms, QueryOpts: qo})
	if err != nil {
		if overload.IsOverload(err) {
			// Refused by overload control (brownout batch shed, admission
			// shed on every shard, infeasible deadline): a deliberate 503,
			// counted apart from errors.
			s.sheds.Add(1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded: "+err.Error(), http.StatusServiceUnavailable)
			return
		}
		if r.Context().Err() != nil {
			return // the client left mid-query: not a server error, nothing useful to write
		}
		s.errors.Add(1)
		http.Error(w, "search failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	res := lr.Result
	s.queries.Add(1)
	s.simNanos.Add(int64(res.Stats.Latency))
	if res.Stats.Degraded {
		s.degraded.Add(1)
	}

	hits := res.Docs
	if len(hits) > k {
		hits = hits[:k]
	}
	candidates := 0
	migrated := false
	for _, ss := range res.Stats.Shards {
		candidates += ss.Query.Candidates
		migrated = migrated || ss.Query.Migrated
	}
	resp := SearchResponse{
		Query:         terms,
		Candidates:    candidates,
		LatencyMS:     ms(res.Stats.Latency),
		Migrated:      migrated,
		Results:       make([]HitJSON, len(hits)),
		Degraded:      res.Stats.Degraded,
		MissingShards: res.Stats.Missing,
		Retries:       res.Stats.Retries,
		Hedges:        res.Stats.Hedges,
		Fallbacks:     res.Stats.Fallbacks,
		DeadlineMS:    ms(res.Stats.Deadline),
		DeadlineMiss:  res.Stats.DeadlineMiss,
		BrownoutLevel: res.Stats.BrownoutLevel,
		ForcedCPU:     res.Stats.ForcedCPU,
		DegradedTopK:  res.Stats.DegradedTopK,
		HedgeSkips:    res.Stats.HedgeSkips,
	}
	if res.Stats.Class == overload.Batch {
		resp.Class = res.Stats.Class.String()
	}
	for i, h := range hits {
		resp.Results[i] = HitJSON{DocID: h.DocID, Score: h.Score}
	}
	if trace {
		resp.Shards = make([]ShardTraceJSON, len(res.Stats.Shards))
		for i, ss := range res.Stats.Shards {
			resp.Shards[i] = ShardTraceJSON{
				Shard:       ss.Shard,
				Replica:     ss.Replica,
				LatencyMS:   ms(ss.Query.Latency),
				Candidates:  ss.Query.Candidates,
				GPUWaitMS:   ms(ss.Query.GPUWait),
				Migrated:    ss.Query.Migrated,
				TimedOut:    ss.TimedOut,
				Error:       ss.Err,
				Retries:     ss.Retries,
				Hedged:      ss.Hedged,
				HedgeWon:    ss.HedgeWon,
				FallbackCPU: ss.Query.FallbackCPU,
				Fault:       ss.Query.Fault,
				EffectiveMS: ms(ss.Effective),

				Shed:             ss.Shed,
				BudgetRejected:   ss.BudgetRejected,
				DeadlineExceeded: ss.DeadlineExceeded,
				HedgeSkipped:     ss.HedgeSkipped,
				Plan:             planJSON(ss.Query.Plan),
			}
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// planJSON renders one shard's executed physical plan.
func planJSON(plan []core.PlanRecord) []PlanOpJSON {
	if len(plan) == 0 {
		return nil
	}
	out := make([]PlanOpJSON, len(plan))
	for i, op := range plan {
		out[i] = PlanOpJSON{
			Op:        op.Kind.String(),
			Algo:      op.Algo.String(),
			Where:     op.Where.String(),
			Term:      op.Term,
			NIn:       op.NIn,
			NOut:      op.NOut,
			Bytes:     op.Bytes,
			StartUS:   float64(op.Start) / float64(time.Microsecond),
			TookUS:    float64(op.Took) / float64(time.Microsecond),
			EstTookUS: float64(op.Est) / float64(time.Microsecond),
			Device:    op.Device,
			Peer:      op.Peer,
			BatchID:   op.BatchID,
			BatchSize: op.BatchSize,
		}
	}
	return out
}

// IngestRequest is the POST /ingest body: one mutation. Tokens carries
// the document terms directly; Text is the tokenized alternative
// (exactly one must be set for add/update, neither for delete).
type IngestRequest struct {
	Op     string   `json:"op"` // "add", "update", or "delete"
	DocID  uint32   `json:"doc_id"`
	Tokens []string `json:"tokens,omitempty"`
	Text   string   `json:"text,omitempty"`
}

// IngestResponse acknowledges one applied mutation with the writer
// generation that includes it and the current merge lag.
type IngestResponse struct {
	Gen uint64 `json:"gen"`
	Lag uint64 `json:"lag"`
}

// ingestOps maps IngestRequest.Op to the mutation it names.
var ingestOps = map[string]wal.Op{"add": wal.OpAdd, "update": wal.OpUpdate, "delete": wal.OpDelete}

// handleIngest serves POST /ingest (live backends only). Mutations are
// visible to the next /search immediately through the delta; merges
// fold them into the compressed main segment in the background.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	tokens := req.Tokens
	if len(tokens) == 0 && req.Text != "" {
		tokens = index.Tokenize(req.Text)
	}
	op, ok := ingestOps[req.Op]
	if !ok {
		http.Error(w, `parameter "op" must be "add", "update", or "delete"`, http.StatusBadRequest)
		return
	}
	if op != wal.OpDelete && len(tokens) == 0 {
		http.Error(w, `mutation needs "tokens" or "text"`, http.StatusBadRequest)
		return
	}
	err := s.writer.Apply(op, req.DocID, tokens)
	switch {
	case err == nil:
	case ingest.IsInvalid(err):
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	case errors.Is(err, ingest.ErrClosed):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	case fault.IsStorageFault(err):
		// The WAL refused the record (injected storage fault / wedged
		// log): the mutation is NOT durable and was not applied. 503 —
		// the durability layer, not the request, is at fault.
		s.errors.Add(1)
		http.Error(w, "ingest unavailable: "+err.Error(), http.StatusServiceUnavailable)
		return
	default:
		s.errors.Add(1)
		http.Error(w, "ingest failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	s.ingested.Add(1)
	gen, lag := s.writer.Progress()
	writeJSON(w, http.StatusOK, IngestResponse{Gen: gen, Lag: lag})
}

// ShardHealthJSON is one shard's reachability row in /healthz.
type ShardHealthJSON struct {
	Shard int `json:"shard"`
	// Reachable reports at least one replica's breaker admits traffic;
	// OpenBreakers counts replicas currently refusing it.
	Reachable    bool `json:"reachable"`
	OpenBreakers int  `json:"open_breakers,omitempty"`
}

// handleHealth serves GET /healthz. The status reflects breaker-level
// degradation: "ok" when every shard is reachable, "degraded" when some
// are not, and a 503 with status "unhealthy" when a majority of shards
// have every replica's breaker open — the cluster can no longer answer
// most of the corpus. A live backend whose merge lag exceeds the
// freshness threshold reports "degraded" (still 200: stale but serving)
// unless breaker health already says worse; so does one whose WAL a
// storage fault wedged — it keeps serving reads but refuses writes.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	var lag uint64
	var wedged error
	if s.writer != nil {
		_, lag = s.writer.Progress()
		wedged = s.writer.Wedged()
	}
	stale := s.freshness > 0 && lag > uint64(s.freshness)
	cl := s.read.Cluster()
	h := cl.Health()
	status := "ok"
	code := http.StatusOK
	switch {
	case !h.Healthy:
		status = "unhealthy"
		code = http.StatusServiceUnavailable
	case h.Unreachable > 0 || stale || wedged != nil:
		status = "degraded"
	}
	shards := make([]ShardHealthJSON, len(h.Shards))
	for i, sh := range h.Shards {
		shards[i] = ShardHealthJSON{Shard: sh.Shard, Reachable: sh.Reachable, OpenBreakers: sh.Open}
	}
	body := map[string]any{
		"status":             status,
		"docs":               cl.NumDocs(),
		"terms":              cl.NumTerms(),
		"mode":               cl.Mode().String(),
		"shards":             cl.NumShards(),
		"replicas":           cl.Replicas(),
		"routing":            cl.RoutingPolicy().String(),
		"unreachable_shards": h.Unreachable,
		"shard_health":       shards,
	}
	if s.writer != nil {
		body["ingest_lag"] = lag
		body["freshness_threshold"] = s.freshness
	}
	if wedged != nil {
		body["wal_wedged"] = wedged.Error()
	}
	// Overload signals appear only when some overload control is
	// configured, keeping the pre-overload body byte-identical.
	if s.gate != nil || cl.OverloadEnabled() {
		body["shed_rate"] = s.shedRate()
	}
	if cl.OverloadEnabled() {
		body["brownout_level"] = cl.Overload().Brownout.Level
	}
	writeJSON(w, code, body)
}

// StatsResponse is the /statz reply body.
type StatsResponse struct {
	Queries       int64   `json:"queries"`
	Errors        int64   `json:"errors"`
	MeanLatencyMS float64 `json:"mean_simulated_latency_ms"`
	CachedLists   int     `json:"cached_lists"`
	// Cache is the device-resident list cache's counter snapshot,
	// aggregated across every replica; omitted when caching is off.
	Cache *CacheStatsJSON `json:"cache,omitempty"`
	// Device and Devices are never set: device rows live under Shards.
	// The fields stay only because the serving benchmark (bench/) compiles
	// against them.
	Device  *DeviceStatsJSON  `json:"device,omitempty"`
	Devices []DeviceStatsJSON `json:"devices,omitempty"`
	// Batching is the cross-query batching stage's configuration and
	// aggregate telemetry (across devices and replicas); omitted when the
	// stage is disabled so pre-batching /statz output stays byte-identical.
	Batching *BatchingJSON `json:"batching,omitempty"`
	// Degraded counts queries answered partially; Shards carries one
	// telemetry row per shard replica, device rows included.
	Degraded int64            `json:"degraded_queries,omitempty"`
	Shards   []ShardStatsJSON `json:"shards,omitempty"`
	// SelfHeal is the cluster's self-healing counter snapshot.
	SelfHeal *SelfHealJSON `json:"self_heal,omitempty"`
	// FaultCounts and Faults surface the injected-fault log when the
	// cluster runs with a fault plan: per-kind totals and the most
	// recent injected events (capped).
	FaultCounts map[string]int64 `json:"fault_counts,omitempty"`
	Faults      []FaultEventJSON `json:"faults,omitempty"`
	// FaultSites totals injected faults per site name — on multi-GPU
	// replicas the sites are per-device ("s2r1.g0"), so this map shows
	// which physical device each fault landed on.
	FaultSites map[string]int64 `json:"fault_sites,omitempty"`
	// Ingest is the live-ingestion layer's freshness and merge
	// telemetry; omitted when the server wraps a read-only backend, so
	// pre-ingest /statz output stays byte-identical.
	Ingest *IngestStatsJSON `json:"ingest,omitempty"`
	// Overload is the overload-control block (admission gate, deadline
	// counters, brownout, retry budget); omitted when no overload control
	// is configured, so pre-overload /statz output stays byte-identical.
	Overload *OverloadJSON `json:"overload,omitempty"`
}

// IngestStatsJSON reports the live layer: writer generation, merge lag
// (the records pending in deltas, the /healthz freshness signal),
// mutation/merge counters, the simulated time merges spent contending
// with queries on the shared device and CPU timelines, and the topology
// with its per-shard breakdowns — one shard on a single-node server.
// Rebuilds and splits are omitted while zero.
type IngestStatsJSON struct {
	Gen        uint64 `json:"gen"`
	Lag        uint64 `json:"lag"`
	DeltaDocs  int    `json:"delta_docs"`
	Tombstones int    `json:"tombstones"`
	Adds       int64  `json:"adds"`
	Updates    int64  `json:"updates"`
	Deletes    int64  `json:"deletes"`
	// Accepted counts mutations applied through this server's /ingest
	// endpoint (the backend counters above also include direct writes).
	Accepted      int64   `json:"accepted"`
	Merges        int64   `json:"merges"`
	Aborts        int64   `json:"aborts,omitempty"`
	MergedDocs    int64   `json:"merged_docs"`
	MergeDeviceMS float64 `json:"merge_device_ms"`
	MergeCPUMS    float64 `json:"merge_cpu_ms"`
	MergeStallMS  float64 `json:"merge_stall_ms,omitempty"`
	// FreshnessThreshold is the merge-lag bound past which /healthz
	// reports degraded (0 = no check).
	FreshnessThreshold int   `json:"freshness_threshold,omitempty"`
	Shards             int   `json:"shards"`
	LiveDocs           int   `json:"live_docs"`
	Rebuilds           int64 `json:"rebuilds,omitempty"`
	Splits             int64 `json:"splits,omitempty"`
	ShardDocs          []int `json:"shard_docs"`
	ShardDelta         []int `json:"shard_delta"`
	// WAL is the durability block (write-ahead log counters plus the
	// last recovery's accounting); omitted when the backend runs without
	// a WAL, so in-memory /statz output stays byte-identical.
	WAL *wal.Stats `json:"wal,omitempty"`
}

// SelfHealJSON reports the cluster's lifetime self-healing counters.
type SelfHealJSON struct {
	Queries        int64 `json:"queries"`
	Degraded       int64 `json:"degraded"`
	Failed         int64 `json:"failed"`
	Retries        int64 `json:"retries"`
	Hedges         int64 `json:"hedges"`
	HedgeWins      int64 `json:"hedge_wins"`
	Fallbacks      int64 `json:"fallbacks"`
	BreakerTrips   int64 `json:"breaker_trips"`
	InjectedFaults int64 `json:"injected_faults"`
}

// FaultEventJSON is one injected fault in the /statz log.
type FaultEventJSON struct {
	Site string  `json:"site"`
	Seq  int64   `json:"seq"`
	Kind string  `json:"kind"`
	AtMS float64 `json:"at_ms"`
}

// faultLogCap bounds the /statz injected-fault log.
const faultLogCap = 100

// CacheStatsJSON reports the resident-list cache counters. PeerCopies
// counts misses served by copying the list from a sibling device's cache
// over the peer interconnect instead of re-uploading from the host
// (always zero on single-GPU engines).
type CacheStatsJSON struct {
	Lists      int   `json:"lists"`
	Bytes      int64 `json:"bytes"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Evictions  int64 `json:"evictions"`
	PeerCopies int64 `json:"peer_copies,omitempty"`
}

// DeviceStatsJSON reports one device runtime's state: how busy the
// modeled GPU has been, how much queueing delay concurrent queries paid
// for it, the backlog a query admitted now would face, and its memory
// pool — allocations served from a free block (pool_hits) against the
// ones that paid a cudaMalloc (pool_misses), the device memory the pool
// holds (live plus free blocks) and how often it gave its free blocks up.
type DeviceStatsJSON struct {
	Streams        int     `json:"streams"`
	ActiveQueries  int     `json:"active_queries"`
	Admitted       int64   `json:"admitted"`
	Utilization    float64 `json:"utilization"`
	ComputeBusyMS  float64 `json:"compute_busy_ms"`
	CopyBusyMS     float64 `json:"copy_busy_ms"`
	QueueWaitMS    float64 `json:"queue_wait_ms"`
	BacklogMS      float64 `json:"backlog_ms"`
	TimelineSpanMS float64 `json:"timeline_span_ms"`
	PoolHits       int64   `json:"pool_hits"`
	PoolMisses     int64   `json:"pool_misses"`
	PoolReservedMB float64 `json:"pool_reserved_mb"`
	PoolTrims      int64   `json:"pool_trims"`
}

// ShardStatsJSON is one shard replica's telemetry row.
type ShardStatsJSON struct {
	Shard   int   `json:"shard"`
	Replica int   `json:"replica"`
	Queries int64 `json:"queries"`
	// Breaker is the replica's circuit-breaker state ("closed", "open",
	// "half-open"); BreakerTrips counts its openings.
	Breaker      string           `json:"breaker,omitempty"`
	BreakerTrips int64            `json:"breaker_trips,omitempty"`
	Cache        *CacheStatsJSON  `json:"cache,omitempty"`
	Device       *DeviceStatsJSON `json:"device,omitempty"`
	// Devices has one row per node device when the replica runs a
	// multi-GPU node (omitted on single-device replicas).
	Devices []DeviceStatsJSON `json:"devices,omitempty"`
}

// BatchingJSON reports the cross-query batching stage: its window/size
// configuration plus lifetime coalescing telemetry. saved_us is simulated
// device time the combined launches did not spend (fixed launch/DMA/alloc
// costs rebated to batch followers); window_flushes and size_flushes
// split batch closings by cause.
type BatchingJSON struct {
	WindowUS      float64 `json:"window_us"`
	Max           int     `json:"max"`
	Batches       int64   `json:"batches"`
	Members       int64   `json:"members"`
	SavedUS       float64 `json:"saved_us"`
	WindowFlushes int64   `json:"window_flushes"`
	SizeFlushes   int64   `json:"size_flushes"`
}

func batchingJSON(cfg gpu.BatchConfig, st gpu.BatchStats) *BatchingJSON {
	return &BatchingJSON{
		WindowUS:      float64(cfg.Window) / float64(time.Microsecond),
		Max:           cfg.Max,
		Batches:       st.Batches,
		Members:       st.Members,
		SavedUS:       float64(st.Saved) / float64(time.Microsecond),
		WindowFlushes: st.WindowFlushes,
		SizeFlushes:   st.SizeFlushes,
	}
}

func cacheJSON(st core.CacheStats) *CacheStatsJSON {
	return &CacheStatsJSON{
		Lists:      st.Lists,
		Bytes:      st.Bytes,
		Hits:       st.Hits,
		Misses:     st.Misses,
		Evictions:  st.Evictions,
		PeerCopies: st.PeerCopies,
	}
}

func deviceJSON(st gpu.RuntimeStats) DeviceStatsJSON {
	return DeviceStatsJSON{
		Streams:        st.Streams,
		ActiveQueries:  st.Active,
		Admitted:       st.Admitted,
		Utilization:    st.Utilization,
		ComputeBusyMS:  ms(st.ComputeBusy),
		CopyBusyMS:     ms(st.CopyBusy),
		QueueWaitMS:    ms(st.Waited),
		BacklogMS:      ms(st.Backlog),
		TimelineSpanMS: ms(st.Horizon),
		PoolHits:       st.Pool.Hits,
		PoolMisses:     st.Pool.Misses,
		PoolReservedMB: float64(st.Pool.Reserved) / (1 << 20),
		PoolTrims:      st.Pool.Trims,
	}
}

// ingestJSON is the /statz ingest block of a live backend.
func (s *Server) ingestJSON() *IngestStatsJSON {
	st := s.writer.Stats()
	return &IngestStatsJSON{
		Gen: st.Gen, Lag: st.Lag(),
		DeltaDocs: st.DeltaDocs, Tombstones: st.Tombstones,
		Adds: st.Adds, Updates: st.Updates, Deletes: st.Deletes,
		Accepted: s.ingested.Load(),
		Merges:   st.Merges, Aborts: st.Aborts, MergedDocs: st.MergedDocs,
		MergeDeviceMS: ms(st.MergeDevice), MergeCPUMS: ms(st.MergeCPU),
		MergeStallMS:       ms(st.MergeStall),
		FreshnessThreshold: s.freshness,
		Shards:             st.Shards, LiveDocs: st.LiveDocs,
		Rebuilds: st.Rebuilds, Splits: st.Splits,
		ShardDocs: st.ShardDocs, ShardDelta: st.ShardDelta,
		WAL: st.WAL,
	}
}

// handleStats serves GET /statz.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	n := s.queries.Load()
	mean := 0.0
	if n > 0 {
		mean = float64(s.simNanos.Load()) / float64(n) / float64(time.Millisecond)
	}
	cl := s.read.Cluster()
	sh := cl.SelfHeal()
	resp := StatsResponse{
		Queries:       n,
		Errors:        s.errors.Load(),
		MeanLatencyMS: mean,
		Overload:      s.overloadJSON(),
		Degraded:      s.degraded.Load(),
		SelfHeal: &SelfHealJSON{
			Queries:        sh.Queries,
			Degraded:       sh.Degraded,
			Failed:         sh.Failed,
			Retries:        sh.Retries,
			Hedges:         sh.Hedges,
			HedgeWins:      sh.HedgeWins,
			Fallbacks:      sh.Fallbacks,
			BreakerTrips:   sh.BreakerTrips,
			InjectedFaults: sh.InjectedFaults,
		},
	}
	if s.writer != nil {
		resp.Ingest = s.ingestJSON()
	}
	if inj := cl.Injector(); inj != nil {
		resp.FaultCounts = inj.Counts()
		resp.FaultSites = inj.SiteCounts()
		log := inj.Log()
		if len(log) > faultLogCap {
			log = log[len(log)-faultLogCap:]
		}
		for _, ev := range log {
			resp.Faults = append(resp.Faults, FaultEventJSON{
				Site: ev.Site,
				Seq:  ev.Seq,
				Kind: ev.Kind.String(),
				AtMS: ms(ev.At),
			})
		}
	}
	agg := core.CacheStats{}
	caching := false
	for _, row := range cl.Telemetry() {
		sr := ShardStatsJSON{
			Shard: row.Shard, Replica: row.Replica, Queries: row.Queries,
			Breaker: row.Breaker, BreakerTrips: row.BreakerTrips,
		}
		if row.Cache != (core.CacheStats{}) {
			caching = true
			sr.Cache = cacheJSON(row.Cache)
			agg.Add(row.Cache)
		}
		if row.Device != nil {
			d := deviceJSON(*row.Device)
			sr.Device = &d
		}
		for _, d := range row.Devices {
			sr.Devices = append(sr.Devices, deviceJSON(d))
		}
		resp.Shards = append(resp.Shards, sr)
	}
	resp.CachedLists = agg.Lists
	if caching {
		resp.Cache = cacheJSON(agg)
	}
	if cfg, on := cl.Batching(); on {
		resp.Batching = batchingJSON(cfg, cl.BatchStats())
	}
	writeJSON(w, http.StatusOK, resp)
}

// ms is a duration in (fractional) milliseconds, the unit of every
// *_ms field.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
