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
// Every server is a cluster. With -shards N > 1 the loaded index is
// document-partitioned into N shards (global BM25 statistics preserved,
// so results are identical to single-node serving) and every query
// scatter-gathers across them; at -shards 1 the one shard serves the
// loaded index itself, charges no gather merge, and answers exactly as a
// single engine. Each shard runs -replicas engines with private simulated
// devices.
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
// Serving self-heals: failed sub-queries retry on sibling
// replicas, device faults fall back to CPU-only plans, per-replica
// circuit breakers shed misbehaving replicas, and -hedge-delay hedges
// slow shards onto a sibling. -chaos-rate injects seeded faults to
// exercise all of it; /healthz reflects breaker-level degradation and
// /statz carries the self-healing counters and fault log (see
// docs/robustness.md).
//
// Serving is also overload-controlled: -default-deadline applies
// a per-query deadline budget (overridable per request with
// ?deadline_ms=) that propagates to shard sub-deadlines and device
// admission, -shed-target sheds sub-queries CoDel-style under sustained
// backlog, -retry-budget bounds retry/hedge amplification, and
// -brownout-enter sheds batch-class (?class=batch) traffic then degrades
// interactive queries before refusing them. -max-inflight bounds
// concurrently served /search requests at the HTTP layer in any mode.
// Overload refusals are 503s with Retry-After; /statz grows an
// "overload" block and /healthz a shed_rate (see docs/robustness.md).
// The replica, routing, self-healing, chaos and overload flags apply at
// any shard count, with -ingest or without.
//
// With -ingest the loaded index becomes the seed of a live cluster of
// -shards shards (one shard serves the loaded index itself): POST
// /ingest accepts add/update/delete mutations that are visible to the
// next /search through in-memory per-shard deltas, background merges
// fold a shard's delta into its compressed segment once it crosses
// -merge-threshold (contending with queries on the shared simulated
// device), /statz grows an "ingest" block, and /healthz reports
// "degraded" — still serving — when merge lag (records pending in the
// deltas) exceeds -freshness-threshold. -split-watermark splits into one
// more shard when a shard's live document count crosses it, re-routing
// mid-flight. See docs/ingest.md.
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

// options is every flag, parsed.
type options struct {
	indexPath, addr, modeName, placementName, routingName, walDir string

	cache, ingest, mergeAuto bool

	devices, batchMax, topK, shards, replicas, retries, breakerThreshold             int
	walSync, checkpointEvery, mergeThreshold, freshness, splitWatermark, maxInflight int

	batchWindow, shardTimeout, hedgeDelay, breakerCooldown, defaultDeadline time.Duration
	shedTarget, brownoutEnter, drain                                        time.Duration

	chaosRate, retryBudget float64
	chaosSeed              int64
}

// register defines every flag on fs, bound to the returned options.
func register(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.indexPath, "index", "index.grif", "serialized index file")
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.StringVar(&o.modeName, "mode", "griffin", "execution mode: cpu, gpu, perquery, or griffin")
	fs.BoolVar(&o.cache, "cache", false, "keep hot compressed lists resident in device memory")
	fs.IntVar(&o.devices, "devices", 1, "simulated GPUs per node; > 1 places each query on one device of a multi-GPU node")
	fs.StringVar(&o.placementName, "placement", "affinity", "device placement at -devices > 1: affinity, least-backlog, or round-robin")
	fs.DurationVar(&o.batchWindow, "batch-window", 0, "coalesce compatible device ops from concurrent queries submitted within this window into one batched launch (0 = off)")
	fs.IntVar(&o.batchMax, "batch-max", gpu.DefaultBatchMax, "member ops per batch before an early flush (with -batch-window)")
	fs.IntVar(&o.topK, "k", 10, "default result count")
	fs.IntVar(&o.shards, "shards", 1, "document partitions: shard s of N owns the docIDs [s·U/N, (s+1)·U/N) of the index's U, the last also those above; > 1 serves scatter-gather over a sharded cluster")
	fs.IntVar(&o.replicas, "replicas", 1, "engine replicas per shard")
	fs.StringVar(&o.routingName, "routing", "rr", "replica routing: rr or least-pending")
	fs.DurationVar(&o.shardTimeout, "shard-timeout", 0, "per-shard latency budget; slower shards degrade the result (0 = none)")
	fs.DurationVar(&o.hedgeDelay, "hedge-delay", 0, "dispatch a hedged sub-query to a sibling replica after this delay (0 = off)")
	fs.IntVar(&o.retries, "retries", 0, "sibling retries per failed sub-query (0 = one retry when replicated, -1 = none)")
	fs.IntVar(&o.breakerThreshold, "breaker-threshold", 0, "consecutive failures tripping a replica's circuit breaker (0 = default 3, -1 = disabled)")
	fs.DurationVar(&o.breakerCooldown, "breaker-cooldown", 0, "open-breaker cooldown before half-open probes (0 = default)")
	fs.Float64Var(&o.chaosRate, "chaos-rate", 0, "inject seeded faults at this base rate (0 = off); mix: kernel/transfer/stall at rate, reset at rate/4, engine-error at rate/2")
	fs.Int64Var(&o.chaosSeed, "chaos-seed", 1, "fault-injection seed (with -chaos-rate)")
	fs.BoolVar(&o.ingest, "ingest", false, "accept live mutations on POST /ingest (delta index + background merge)")
	fs.StringVar(&o.walDir, "wal-dir", "", "durable ingest: write-ahead log + checkpoint directory; startup recovers its state (with -ingest; empty = in-memory only)")
	fs.IntVar(&o.walSync, "wal-sync", 1, "WAL appends per fsync: 1 syncs every acknowledged mutation, N > 1 trades the sync tail for throughput, -1 defers to checkpoints and shutdown (with -wal-dir)")
	fs.IntVar(&o.checkpointEvery, "checkpoint-every", 0, "persist a checkpoint after this many mutations so recovery replays only the WAL suffix (with -wal-dir; 0 = none)")
	fs.IntVar(&o.mergeThreshold, "merge-threshold", 4096, "unmerged delta records making a merge due (with -ingest; 0 = manual merges only)")
	fs.BoolVar(&o.mergeAuto, "merge-auto", true, "merge in the background when the delta crosses -merge-threshold (with -ingest)")
	fs.IntVar(&o.freshness, "freshness-threshold", 0, "merge lag past which /healthz reports degraded (with -ingest; 0 = no check)")
	fs.IntVar(&o.splitWatermark, "split-watermark", 0, "live docs per shard triggering a shard split (with -ingest; 0 = off)")
	fs.DurationVar(&o.defaultDeadline, "default-deadline", 0, "per-query deadline budget applied when a request carries no ?deadline_ms= (0 = none)")
	fs.IntVar(&o.maxInflight, "max-inflight", 0, "bound concurrently served /search requests; excess queue and shed CoDel-style (0 = unbounded)")
	fs.DurationVar(&o.shedTarget, "shed-target", 0, "per-replica CoDel admission shed target: sub-queries facing more backlog than this for a sustained interval are shed (0 = off)")
	fs.Float64Var(&o.retryBudget, "retry-budget", 0, "retry/hedge token budget as a fraction of admissions, e.g. 0.1 (0 = unbudgeted)")
	fs.DurationVar(&o.brownoutEnter, "brownout-enter", 0, "cluster pressure entering brownout: level 1 sheds batch-class queries, level 2 (2x this) degrades interactive ones (0 = off)")
	fs.DurationVar(&o.drain, "drain", 10*time.Second, "in-flight request drain window on shutdown")
	return o
}

var (
	modes = map[string]core.Mode{
		"cpu": core.CPUOnly, "gpu": core.GPUOnly,
		"perquery": core.PerQueryHybrid, "griffin": core.Hybrid,
	}
	routings = map[string]cluster.Routing{
		"rr": cluster.RoundRobin, "least-pending": cluster.LeastPending,
	}
)

// validate returns the first rule the flags break, nil when they are
// coherent.
func (o *options) validate() error {
	if _, ok := modes[o.modeName]; !ok {
		return fmt.Errorf("unknown mode %q", o.modeName)
	}
	if _, ok := routings[o.routingName]; !ok {
		return fmt.Errorf("unknown routing %q", o.routingName)
	}
	if sched.PlacementByName(o.placementName) == nil {
		return fmt.Errorf("unknown placement %q (want affinity, least-backlog, or round-robin)", o.placementName)
	}
	for _, r := range []struct {
		bad  bool
		flag string
		want string
		got  any
	}{
		{o.devices < 1, "devices", ">= 1", o.devices},
		{o.batchWindow < 0, "batch-window", ">= 0", o.batchWindow},
		{o.batchMax <= 0, "batch-max", ">= 1", o.batchMax},
		{o.shardTimeout < 0, "shard-timeout", ">= 0", o.shardTimeout},
		{o.hedgeDelay < 0, "hedge-delay", ">= 0", o.hedgeDelay},
		{o.retries < -1, "retries", ">= -1", o.retries},
		{o.defaultDeadline < 0, "default-deadline", ">= 0", o.defaultDeadline},
		{o.maxInflight < 0, "max-inflight", ">= 0", o.maxInflight},
		{o.shedTarget < 0, "shed-target", ">= 0", o.shedTarget},
		{!(o.retryBudget >= 0) || o.retryBudget > 1, "retry-budget", "in [0, 1]", o.retryBudget},
		{o.brownoutEnter < 0, "brownout-enter", ">= 0", o.brownoutEnter},
		{o.mergeThreshold < 0, "merge-threshold", ">= 0", o.mergeThreshold},
		{o.freshness < 0, "freshness-threshold", ">= 0", o.freshness},
		{o.splitWatermark < 0, "split-watermark", ">= 0", o.splitWatermark},
		{o.walSync == 0 || o.walSync < -1, "wal-sync", ">= 1 or -1 (defer)", o.walSync},
		{o.checkpointEvery < 0, "checkpoint-every", ">= 0", o.checkpointEvery},
	} {
		if r.bad {
			return fmt.Errorf("-%s must be %s, got %v", r.flag, r.want, r.got)
		}
	}
	switch {
	case o.walDir == "" && o.checkpointEvery > 0:
		return errors.New("-checkpoint-every requires -wal-dir")
	case !o.ingest && (o.freshness > 0 || o.splitWatermark > 0):
		return errors.New("-freshness-threshold and -split-watermark require -ingest")
	case !o.ingest && o.walDir != "":
		return errors.New("-wal-dir requires -ingest")
	case o.ingest && o.mergeAuto && o.mergeThreshold == 0:
		return errors.New("-merge-auto needs -merge-threshold > 0 (or pass -merge-auto=false for manual merges)")
	}
	return nil
}

func main() {
	o := register(flag.CommandLine)
	flag.Parse()
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "griffin-server:", err)
		os.Exit(2)
	}
	mode, routing := modes[o.modeName], routings[o.routingName]

	ix, err := index.Open(o.indexPath)
	exitOn(err)
	// Read now: partitioned, ix is unreachable once the split ends, and
	// the collector frees its block rows.
	numDocs, numTerms := ix.NumDocs, ix.NumTerms()

	var inj *fault.Injector
	if o.chaosRate > 0 {
		inj = fault.NewInjector(fault.ChaosPlan(o.chaosSeed, o.chaosRate))
	}
	ccfg := cluster.Config{
		Engine: core.Config{
			Mode: mode, CacheLists: o.cache, Devices: o.devices, Placement: sched.PlacementByName(o.placementName),
			BatchWindow: o.batchWindow, BatchMax: o.batchMax,
		},
		TopK:         o.topK,
		Replicas:     o.replicas,
		Routing:      routing,
		ShardTimeout: o.shardTimeout,
		HedgeDelay:   o.hedgeDelay,
		Retries:      o.retries,
		Breaker:      fault.BreakerConfig{Threshold: o.breakerThreshold, Cooldown: o.breakerCooldown},
		Fault:        inj,
		Overload: overload.Config{
			DefaultDeadline: o.defaultDeadline,
			ShedTarget:      o.shedTarget,
			RetryBudget:     o.retryBudget,
			BrownoutEnter:   o.brownoutEnter,
		},
	}
	extra := ""
	if o.devices > 1 {
		extra += fmt.Sprintf(", %d devices (%s placement)", o.devices, o.placementName)
	}
	if mode != core.CPUOnly {
		// Each device reserves its memory once, when it is created; no
		// query pays for an allocation.
		extra += fmt.Sprintf(", each device reserves its %d MB at start", hwmodel.DefaultGPU().MemoryBytes>>20)
	}
	if o.batchWindow > 0 {
		extra += fmt.Sprintf(", batching window=%v max=%d", o.batchWindow, o.batchMax)
	}
	if inj != nil {
		extra += fmt.Sprintf(", chaos rate=%.2f seed=%d", o.chaosRate, o.chaosSeed)
	}

	var handler *server.Server
	if o.ingest {
		lc, err := ingest.OpenCluster(ix, ingest.ClusterConfig{
			Shards:          o.shards,
			Cluster:         ccfg,
			MergeThreshold:  o.mergeThreshold,
			AutoMerge:       o.mergeAuto,
			SplitWatermark:  o.splitWatermark,
			WALDir:          o.walDir,
			WALSyncEvery:    o.walSync,
			CheckpointEvery: o.checkpointEvery,
		})
		exitOn(err)
		// Close after serve() drains HTTP: syncs the WAL, then waits out
		// in-flight background merges so no merge is torn by shutdown —
		// every acknowledged mutation is durable on exit.
		defer lc.Close()
		handler = server.NewLive(lc, o.freshness)
		extra += fmt.Sprintf(", live ingest (merge at %d, auto=%v, watermark %d)",
			o.mergeThreshold, o.mergeAuto, o.splitWatermark)
		if o.walDir != "" {
			st := lc.Stats()
			log.Printf("griffin-server: durable ingest under %s (sync every %d, checkpoint every %d): recovered gen %d, %d replayed records, watermark %d, %d torn bytes truncated",
				o.walDir, o.walSync, o.checkpointEvery, st.Gen,
				st.WAL.RecoveredRecords, st.WAL.CheckpointGen,
				st.WAL.TruncatedBytes)
		}
	} else {
		// One shard serves the opened index itself; more are docID
		// windows of it, whose lists are views of its blocks.
		ixs := []*index.Index{ix}
		if o.shards > 1 {
			ixs, err = workload.PartitionIndex(ix, o.shards)
			exitOn(err)
		}
		cl, err := cluster.New(ixs, ccfg)
		exitOn(err)
		defer cl.Close()
		handler = server.NewCluster(cl)
	}
	log.Printf("griffin-server: %d docs, %d terms, mode=%s, %d shards x %d replicas (%s)%s, listening on %s",
		numDocs, numTerms, mode, o.shards, o.replicas, routing, extra, o.addr)

	if o.maxInflight > 0 {
		handler.ConfigureOverload(server.OverloadConfig{MaxInflight: o.maxInflight})
		log.Printf("griffin-server: admission gate at %d in-flight /search requests", o.maxInflight)
	}

	exitOn(serve(o.addr, handler, o.drain))
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
