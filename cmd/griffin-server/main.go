// Command griffin-server serves conjunctive search over a Griffin index
// as a JSON HTTP API, either single-node or as a sharded scatter-gather
// cluster.
//
// Usage:
//
//	griffin-server -index index.grif -addr :8080 -mode griffin -cache
//	griffin-server -index index.grif -devices 4 -placement affinity -cache
//	griffin-server -index index.grif -shards 4 -replicas 2 -routing least-pending
//	griffin-server -index index.grif -shards 4 -replicas 2 -chaos-rate 0.05 -hedge-delay 2ms
//	griffin-server -index index.grif -batch-window 200us -batch-max 16
//	griffin-server -index index.grif -shards 4 -replicas 2 -default-deadline 5ms -max-inflight 64
//	griffin-server -index index.grif -ingest -merge-threshold 4096 -freshness-threshold 10000
//	griffin-server -index index.grif -ingest -shards 4 -split-watermark 2000000
//	griffin-server -index index.grif -ingest -wal-dir /var/lib/griffin/wal -checkpoint-every 10000
//
// With -shards N > 1 the loaded index is document-partitioned into N
// shards (global BM25 statistics preserved, so results are identical to
// single-node serving), each shard runs -replicas engines with private
// simulated devices, and every query scatter-gathers across the shards.
//
// With -devices N > 1 every engine (single-node or each cluster replica)
// runs a simulated multi-GPU node: queries are placed on one of N devices
// by the -placement policy, per-device list caches pull hot lists over
// the modeled peer interconnect, and /statz grows per-device telemetry.
// At -devices 1 behavior and output are identical to older builds.
//
// With -batch-window W > 0 every device runtime coalesces compatible ops
// (same engine and kernel family) from concurrently admitted queries
// submitted within W of each other into one batched launch, paying fixed
// launch/DMA costs once per batch; -batch-max caps members per batch.
// Results are byte-identical to unbatched serving — only the simulated
// timeline changes — and /statz grows a "batching" block with the
// coalescing telemetry. The default (0) is off, preserving older output
// byte for byte.
//
// Cluster serving self-heals: failed sub-queries retry on sibling
// replicas, device faults fall back to CPU-only plans, per-replica
// circuit breakers shed misbehaving replicas, and -hedge-delay hedges
// slow shards onto a sibling. -chaos-rate injects seeded faults to
// exercise all of it; /healthz reflects breaker-level degradation and
// /statz carries the self-healing counters and fault log (see
// docs/robustness.md).
//
// Cluster serving is also overload-controlled: -default-deadline applies
// a per-query deadline budget (overridable per request with
// ?deadline_ms=) that propagates to shard sub-deadlines and device
// admission, -shed-target sheds sub-queries CoDel-style under sustained
// backlog, -retry-budget bounds retry/hedge amplification, and
// -brownout-enter sheds batch-class (?class=batch) traffic then degrades
// interactive queries before refusing them. -max-inflight bounds
// concurrently served /search requests at the HTTP layer in any mode.
// Overload refusals are 503s with Retry-After; /statz grows an
// "overload" block and /healthz a shed_rate (see docs/robustness.md).
//
// With -ingest the loaded index becomes the seed segment of a live
// engine (or live cluster at -shards > 1): POST /ingest accepts
// add/update/delete mutations that are visible to the next /search
// through an in-memory delta, background merges fold the delta into the
// compressed main segment once it crosses -merge-threshold (contending
// with queries on the shared simulated device), /statz grows an
// "ingest" block, and /healthz reports "degraded" — still serving —
// when merge lag exceeds -freshness-threshold. In cluster mode
// -split-watermark splits a shard whose live document count crosses it,
// re-routing mid-flight. See docs/ingest.md.
//
// With -wal-dir (requires -ingest) ingest is durable: every mutation is
// appended to a checksummed write-ahead log — one log per shard — before
// POST /ingest acknowledges it, -wal-sync sets the appends-per-fsync
// policy (1 = every append), and -checkpoint-every persists merged
// checkpoints so startup recovery replays only the WAL suffix past the
// newest valid checkpoint's watermark. Startup recovers the directory's
// state (torn or corrupt log tails are truncated and logged; a
// directory from a different history refuses to start), /statz's ingest
// block grows a "wal" sub-block, /healthz reports "degraded" — still
// serving reads — when a storage fault wedges the log, and the graceful
// SIGINT/SIGTERM shutdown syncs the WAL after draining requests, so a
// clean exit never loses an acknowledged write even at -wal-sync -1.
//
// Endpoints:
//
//	GET  /search?q=terms&k=10   ranked results + simulated latency
//	GET  /healthz               liveness + index/topology stats
//	GET  /statz                 served-query counters + per-shard telemetry
//	POST /ingest                one mutation (with -ingest): {"op","doc_id","tokens"|"text"}
//
// The server shuts down gracefully on SIGINT/SIGTERM: the listener
// closes immediately, in-flight requests get a drain window, and live
// engines then drain in-flight background merges before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/fault"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/ingest"
	"griffin/internal/overload"
	"griffin/internal/sched"
	"griffin/internal/server"
	"griffin/internal/workload"
)

func main() {
	indexPath := flag.String("index", "index.grif", "serialized index file")
	addr := flag.String("addr", ":8080", "listen address")
	modeName := flag.String("mode", "griffin", "execution mode: cpu, gpu, perquery, or griffin")
	cache := flag.Bool("cache", false, "keep hot compressed lists resident in device memory")
	devices := flag.Int("devices", 1, "simulated GPUs per node; > 1 places each query on one device of a multi-GPU node")
	placementName := flag.String("placement", "affinity", "device placement at -devices > 1: affinity, least-backlog, or round-robin")
	batchWindow := flag.Duration("batch-window", 0, "coalesce compatible device ops from concurrent queries submitted within this window into one batched launch (0 = off)")
	batchMax := flag.Int("batch-max", gpu.DefaultBatchMax, "member ops per batch before an early flush (with -batch-window)")
	topK := flag.Int("k", 10, "default result count")
	shards := flag.Int("shards", 1, "document partitions; > 1 serves scatter-gather over a sharded cluster")
	replicas := flag.Int("replicas", 1, "engine replicas per shard (cluster mode)")
	routingName := flag.String("routing", "rr", "replica routing: rr or least-pending (cluster mode)")
	shardTimeout := flag.Duration("shard-timeout", 0, "per-shard latency budget; slower shards degrade the result (0 = none)")
	hedgeDelay := flag.Duration("hedge-delay", 0, "dispatch a hedged sub-query to a sibling replica after this delay (cluster mode, 0 = off)")
	retries := flag.Int("retries", 0, "sibling retries per failed sub-query (cluster mode; 0 = one retry when replicated, -1 = none)")
	breakerThreshold := flag.Int("breaker-threshold", 0, "consecutive failures tripping a replica's circuit breaker (cluster mode; 0 = default 3, -1 = disabled)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "open-breaker cooldown before half-open probes (cluster mode, 0 = default)")
	chaosRate := flag.Float64("chaos-rate", 0, "inject seeded faults at this base rate (cluster mode, 0 = off); mix: kernel/transfer/stall at rate, reset at rate/4, engine-error at rate/2")
	chaosSeed := flag.Int64("chaos-seed", 1, "fault-injection seed (with -chaos-rate)")
	ingestOn := flag.Bool("ingest", false, "accept live mutations on POST /ingest (delta index + background merge)")
	walDir := flag.String("wal-dir", "", "durable ingest: write-ahead log + checkpoint directory; startup recovers its state (with -ingest; empty = in-memory only)")
	walSync := flag.Int("wal-sync", 1, "WAL appends per fsync: 1 syncs every acknowledged mutation, N > 1 trades the sync tail for throughput, -1 defers to checkpoints and shutdown (with -wal-dir)")
	checkpointEvery := flag.Int("checkpoint-every", 0, "persist a checkpoint after this many mutations so recovery replays only the WAL suffix (with -wal-dir; 0 = none)")
	mergeThreshold := flag.Int("merge-threshold", 4096, "unmerged delta records making a merge due (with -ingest; 0 = manual merges only)")
	mergeAuto := flag.Bool("merge-auto", true, "merge in the background when the delta crosses -merge-threshold (with -ingest)")
	freshness := flag.Int("freshness-threshold", 0, "merge lag past which /healthz reports degraded (with -ingest; 0 = no check)")
	splitWatermark := flag.Int("split-watermark", 0, "live docs per shard triggering a shard split (with -ingest -shards > 1; 0 = off)")
	defaultDeadline := flag.Duration("default-deadline", 0, "per-query deadline budget applied when a request carries no ?deadline_ms= (cluster mode, 0 = none)")
	maxInflight := flag.Int("max-inflight", 0, "bound concurrently served /search requests; excess queue and shed CoDel-style (0 = unbounded)")
	shedTarget := flag.Duration("shed-target", 0, "per-replica CoDel admission shed target: sub-queries facing more backlog than this for a sustained interval are shed (cluster mode, 0 = off)")
	retryBudget := flag.Float64("retry-budget", 0, "retry/hedge token budget as a fraction of admissions, e.g. 0.1 (cluster mode, 0 = unbudgeted)")
	brownoutEnter := flag.Duration("brownout-enter", 0, "cluster pressure entering brownout: level 1 sheds batch-class queries, level 2 (2x this) degrades interactive ones (cluster mode, 0 = off)")
	drain := flag.Duration("drain", 10*time.Second, "in-flight request drain window on shutdown")
	flag.Parse()

	modes := map[string]core.Mode{
		"cpu": core.CPUOnly, "gpu": core.GPUOnly,
		"perquery": core.PerQueryHybrid, "griffin": core.Hybrid,
	}
	mode, ok := modes[*modeName]
	if !ok {
		fmt.Fprintf(os.Stderr, "griffin-server: unknown mode %q\n", *modeName)
		os.Exit(2)
	}
	routings := map[string]cluster.Routing{
		"rr": cluster.RoundRobin, "least-pending": cluster.LeastPending,
	}
	routing, ok := routings[*routingName]
	if !ok {
		fmt.Fprintf(os.Stderr, "griffin-server: unknown routing %q\n", *routingName)
		os.Exit(2)
	}
	if *devices < 1 {
		fmt.Fprintf(os.Stderr, "griffin-server: -devices must be >= 1, got %d\n", *devices)
		os.Exit(2)
	}
	placement := sched.PlacementByName(*placementName)
	if placement == nil {
		fmt.Fprintf(os.Stderr, "griffin-server: unknown placement %q (want affinity, least-backlog, or round-robin)\n", *placementName)
		os.Exit(2)
	}
	if *batchWindow < 0 {
		fmt.Fprintf(os.Stderr, "griffin-server: -batch-window must be >= 0, got %v\n", *batchWindow)
		os.Exit(2)
	}
	if *batchMax <= 0 {
		fmt.Fprintf(os.Stderr, "griffin-server: -batch-max must be >= 1, got %d\n", *batchMax)
		os.Exit(2)
	}
	if *shardTimeout < 0 {
		fmt.Fprintf(os.Stderr, "griffin-server: -shard-timeout must be >= 0, got %v\n", *shardTimeout)
		os.Exit(2)
	}
	if *hedgeDelay < 0 {
		fmt.Fprintf(os.Stderr, "griffin-server: -hedge-delay must be >= 0, got %v\n", *hedgeDelay)
		os.Exit(2)
	}
	if *retries < -1 {
		fmt.Fprintf(os.Stderr, "griffin-server: -retries must be >= -1, got %d\n", *retries)
		os.Exit(2)
	}
	if *defaultDeadline < 0 {
		fmt.Fprintf(os.Stderr, "griffin-server: -default-deadline must be >= 0, got %v\n", *defaultDeadline)
		os.Exit(2)
	}
	if *maxInflight < 0 {
		fmt.Fprintf(os.Stderr, "griffin-server: -max-inflight must be >= 0, got %d\n", *maxInflight)
		os.Exit(2)
	}
	if *shedTarget < 0 {
		fmt.Fprintf(os.Stderr, "griffin-server: -shed-target must be >= 0, got %v\n", *shedTarget)
		os.Exit(2)
	}
	if !(*retryBudget >= 0) || *retryBudget > 1 {
		fmt.Fprintf(os.Stderr, "griffin-server: -retry-budget must be in [0, 1], got %v\n", *retryBudget)
		os.Exit(2)
	}
	if *brownoutEnter < 0 {
		fmt.Fprintf(os.Stderr, "griffin-server: -brownout-enter must be >= 0, got %v\n", *brownoutEnter)
		os.Exit(2)
	}
	if *shards <= 1 && (*defaultDeadline > 0 || *shedTarget > 0 || *retryBudget > 0 || *brownoutEnter > 0) {
		fmt.Fprintln(os.Stderr, "griffin-server: -default-deadline, -shed-target, -retry-budget, and -brownout-enter require -shards > 1")
		os.Exit(2)
	}
	if *mergeThreshold < 0 {
		fmt.Fprintf(os.Stderr, "griffin-server: -merge-threshold must be >= 0, got %d\n", *mergeThreshold)
		os.Exit(2)
	}
	if *freshness < 0 {
		fmt.Fprintf(os.Stderr, "griffin-server: -freshness-threshold must be >= 0, got %d\n", *freshness)
		os.Exit(2)
	}
	if *splitWatermark < 0 {
		fmt.Fprintf(os.Stderr, "griffin-server: -split-watermark must be >= 0, got %d\n", *splitWatermark)
		os.Exit(2)
	}
	if *walSync == 0 || *walSync < -1 {
		fmt.Fprintf(os.Stderr, "griffin-server: -wal-sync must be >= 1 or -1 (defer), got %d\n", *walSync)
		os.Exit(2)
	}
	if *checkpointEvery < 0 {
		fmt.Fprintf(os.Stderr, "griffin-server: -checkpoint-every must be >= 0, got %d\n", *checkpointEvery)
		os.Exit(2)
	}
	if *walDir == "" && *checkpointEvery > 0 {
		fmt.Fprintln(os.Stderr, "griffin-server: -checkpoint-every requires -wal-dir")
		os.Exit(2)
	}
	if !*ingestOn {
		if *freshness > 0 || *splitWatermark > 0 {
			fmt.Fprintln(os.Stderr, "griffin-server: -freshness-threshold and -split-watermark require -ingest")
			os.Exit(2)
		}
		if *walDir != "" {
			fmt.Fprintln(os.Stderr, "griffin-server: -wal-dir requires -ingest")
			os.Exit(2)
		}
	} else if *mergeAuto && *mergeThreshold == 0 {
		fmt.Fprintln(os.Stderr, "griffin-server: -merge-auto needs -merge-threshold > 0 (or pass -merge-auto=false for manual merges)")
		os.Exit(2)
	}
	if *splitWatermark > 0 && *shards <= 1 {
		fmt.Fprintln(os.Stderr, "griffin-server: -split-watermark requires -shards > 1")
		os.Exit(2)
	}

	ix, err := index.Open(*indexPath)
	exitOn(err)
	// Read now: partitioned, ix is unreachable once the shards are built,
	// and the collector frees its block rows.
	numDocs, numTerms := ix.NumDocs, ix.NumTerms()

	var handler *server.Server
	if *shards > 1 {
		var inj *fault.Injector
		if *chaosRate > 0 {
			inj = fault.NewInjector(fault.ChaosPlan(*chaosSeed, *chaosRate))
		}
		ccfg := cluster.Config{
			Engine: core.Config{
				Mode: mode, CacheLists: *cache, Devices: *devices, Placement: placement,
				BatchWindow: *batchWindow, BatchMax: *batchMax,
			},
			TopK:         *topK,
			Replicas:     *replicas,
			Routing:      routing,
			ShardTimeout: *shardTimeout,
			HedgeDelay:   *hedgeDelay,
			Retries:      *retries,
			Breaker:      fault.BreakerConfig{Threshold: *breakerThreshold, Cooldown: *breakerCooldown},
			Fault:        inj,
			Overload: overload.Config{
				DefaultDeadline: *defaultDeadline,
				ShedTarget:      *shedTarget,
				RetryBudget:     *retryBudget,
				BrownoutEnter:   *brownoutEnter,
			},
		}
		live := ""
		if *ingestOn {
			lc, err := ingest.OpenCluster(ix, ingest.ClusterConfig{
				Shards:          *shards,
				Cluster:         ccfg,
				MergeThreshold:  *mergeThreshold,
				AutoMerge:       *mergeAuto,
				SplitWatermark:  *splitWatermark,
				WALDir:          *walDir,
				WALSyncEvery:    *walSync,
				CheckpointEvery: *checkpointEvery,
			})
			exitOn(err)
			// Close after serve() drains HTTP: syncs the WAL, then waits
			// out in-flight background merges so no merge is torn by
			// shutdown — every acknowledged mutation is durable on exit.
			defer lc.Close()
			handler = server.NewLiveCluster(lc, *freshness)
			live = fmt.Sprintf(", live ingest (merge at %d, auto=%v, watermark %d)",
				*mergeThreshold, *mergeAuto, *splitWatermark)
			if *walDir != "" {
				st := lc.Stats()
				log.Printf("griffin-server: durable ingest under %s (sync every %d, checkpoint every %d): recovered gen %d, %d replayed records, watermark %d, %d torn bytes truncated",
					*walDir, *walSync, *checkpointEvery, st.Gen,
					st.WAL.RecoveredRecords, st.WAL.CheckpointGen,
					st.WAL.TruncatedBytes)
			}
		} else {
			ixs, err := workload.PartitionIndex(ix, *shards)
			exitOn(err)
			cl, err := cluster.New(ixs, ccfg)
			exitOn(err)
			defer cl.Close()
			handler = server.NewCluster(cl)
		}
		chaos := ""
		if inj != nil {
			chaos = fmt.Sprintf(", chaos rate=%.2f seed=%d", *chaosRate, *chaosSeed)
		}
		log.Printf("griffin-server: %d docs, %d terms, mode=%s, %d shards x %d replicas (%s)%s%s, listening on %s",
			numDocs, numTerms, mode, *shards, *replicas, routing, chaos, live, *addr)
	} else {
		dev := gpu.New(hwmodel.DefaultGPU(), 0)
		ecfg := core.Config{
			Mode: mode, Device: dev, TopK: *topK, CacheLists: *cache,
			Devices: *devices, Placement: placement,
			BatchWindow: *batchWindow, BatchMax: *batchMax,
		}
		devs := ""
		if *devices > 1 {
			devs = fmt.Sprintf(", %d devices (%s placement)", *devices, *placementName)
		}
		if *batchWindow > 0 {
			devs += fmt.Sprintf(", batching window=%v max=%d", *batchWindow, *batchMax)
		}
		if *ingestOn {
			e, err := ingest.Open(ix, ingest.Config{
				Engine:          ecfg,
				MergeThreshold:  *mergeThreshold,
				AutoMerge:       *mergeAuto,
				WALDir:          *walDir,
				WALSyncEvery:    *walSync,
				CheckpointEvery: *checkpointEvery,
			})
			exitOn(err)
			// After HTTP drain: syncs the WAL, then waits out background
			// merges — every acknowledged mutation is durable on exit.
			defer e.Close()
			handler = server.NewLive(e, *freshness)
			devs += fmt.Sprintf(", live ingest (merge at %d, auto=%v)", *mergeThreshold, *mergeAuto)
			if *walDir != "" {
				st := e.Stats()
				log.Printf("griffin-server: durable ingest under %s (sync every %d, checkpoint every %d): recovered gen %d, %d replayed records, watermark %d, %d torn bytes truncated",
					*walDir, *walSync, *checkpointEvery, st.Gen,
					st.WAL.RecoveredRecords, st.WAL.CheckpointGen,
					st.WAL.TruncatedBytes)
			}
		} else {
			engine, err := core.New(ix, ecfg)
			exitOn(err)
			defer engine.Close()
			handler = server.New(engine)
		}
		log.Printf("griffin-server: %d docs, %d terms, mode=%s%s, listening on %s",
			numDocs, numTerms, mode, devs, *addr)
	}

	if *maxInflight > 0 {
		handler.ConfigureOverload(server.OverloadConfig{MaxInflight: *maxInflight})
		log.Printf("griffin-server: admission gate at %d in-flight /search requests", *maxInflight)
	}

	exitOn(serve(*addr, handler, *drain))
}

// serve runs the HTTP server until SIGINT/SIGTERM, then drains in-flight
// requests for up to the drain window before returning.
func serve(addr string, handler http.Handler, drain time.Duration) error {
	srv := &http.Server{Addr: addr, Handler: handler}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop()
	log.Printf("griffin-server: shutting down, draining for up to %v", drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("drain incomplete: %w", err)
	}
	log.Printf("griffin-server: drained cleanly")
	return nil
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "griffin-server:", err)
		os.Exit(1)
	}
}
