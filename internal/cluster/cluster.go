// Package cluster is the sharded serving layer above the single-node
// Griffin engine: a corpus document-partitioned across N shards
// (workload.PartitionIndex), one core.Engine plus its own simulated
// device per shard replica, and scatter-gather query execution — fan out
// to every shard concurrently, merge the per-shard top-k lists into the
// global top-k, and report a critical-path latency model (cluster latency
// = max over shard latencies + merge cost under the calibrated CPU
// model).
//
// The paper evaluates one CPU+GPU node; its §5 discussion rejects
// caching the whole corpus on one device precisely because device memory
// cannot hold it. Partitioning the documents across devices is the step
// that scales the reproduction past one node's memory while reusing every
// existing layer: each shard runs the unchanged plan-builder/executor
// pipeline on its own gpu.DeviceRuntime, replica routing reuses the
// runtime's backlog signal (the same sched.DeviceBacklog view the
// load-aware spill policy consults), and merge selection reuses the
// engine's rank.Beats total order — which is what makes an N-shard
// scatter-gather result bit-identical to a single-engine run over the
// unpartitioned corpus.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"griffin/internal/core"
	"griffin/internal/exec"
	"griffin/internal/fault"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/kernels"
	"griffin/internal/overload"
)

// ErrAllShardsFailed wraps the error Query returns when no shard
// produced a result; chaos drivers match it with errors.Is to count a
// failed query instead of aborting the run.
var ErrAllShardsFailed = errors.New("cluster: all shards failed")

// errClosed fails a sub-query that reaches a replica after Close.
var errClosed = errors.New("cluster: closed")

// DefaultRetryBackoff is the modeled delay charged before a sibling
// retry.
const DefaultRetryBackoff = 200 * time.Microsecond

// Config parameterizes a Cluster.
type Config struct {
	// Replicas is the number of engine replicas per shard (0 = 1). Each
	// replica has its own simulated device and runtime; the router
	// spreads queries across them.
	Replicas int
	// Routing picks the replica for each shard of a query (default
	// RoundRobin).
	Routing Routing
	// Engine is the per-replica engine template. Engine.Device is not
	// shared: every replica gets a private device of its model
	// (hwmodel.DefaultGPU() when nil) and builds its own node from
	// Engine.Streams, because a shard *is* a serving node in this layer.
	// Engine.CPU also prices the gather-side merge (zero value =
	// hwmodel.DefaultCPU()). Engine.Devices and Engine.Placement pass
	// through, so replicas can be multi-GPU nodes: a replica is then a
	// (node, device-set) pair — the router picks the replica, the
	// engine's placement policy picks the device — and the fault
	// injector names each device's site "s<shard>r<replica>.g<dev>".
	// Engine.TopK is overridden by TopK so shard selections cover the
	// cluster result size.
	Engine core.Config
	// TopK is the cluster result count (0 = 10).
	TopK int
	// ShardTimeout bounds each shard's simulated latency. A shard whose
	// response would land past the budget is dropped: the query degrades
	// (Stats.Degraded, Stats.Missing) instead of failing, and the cluster
	// latency charges the full timeout for having waited. Zero disables
	// timeouts.
	ShardTimeout time.Duration

	// Fault is the cluster's fault injector (nil = no injection, the
	// zero-cost default). Each replica's device runtime gets the
	// injector's submit hook at its site ("s<shard>r<replica>"), and
	// every sub-query admission draws the shard-stall and engine-error
	// faults at the same site.
	Fault *fault.Injector
	// Breaker configures the per-replica circuit breakers. The zero
	// value selects the fault package's defaults (trip after 3
	// consecutive failures, 5ms cooldown, 1 probe); Threshold < 0
	// disables breakers. CPU-fallback sub-queries count as soft strikes:
	// the query succeeded, but the device it ran on is misbehaving, so
	// repeated fallbacks trip the breaker and steer traffic to a healthy
	// sibling until half-open probes show the device recovered.
	Breaker fault.BreakerConfig
	// Retries is the per-shard sibling-retry budget when a sub-query
	// fails hard: 0 selects the default (1 when Replicas > 1, else 0),
	// negative disables retries. Each retry is charged
	// DefaultRetryBackoff of modeled delay before the sibling attempt.
	Retries int
	// HedgeDelay, when > 0 with Replicas > 1, hedges slow shards: a
	// sub-query whose modeled latency exceeds the delay dispatches a
	// second attempt on a sibling replica at (arrival + HedgeDelay), and
	// the shard's effective latency is the minimum of the two paths —
	// min(primary, HedgeDelay + hedge). Results are identical on either
	// replica (bit-identical parity), so hedging trades duplicated work
	// for tail latency exactly as in the tail-at-scale playbook, and
	// ShardTimeout stops being the only defense against a stalled shard.
	HedgeDelay time.Duration
	// Overload configures the cluster's overload controls: deadline
	// budgets, per-replica CoDel admission shedding, retry/hedge token
	// budgets, and brownout tiers. The zero value disables all of them —
	// a cluster configured without overload control behaves byte-
	// identically to one built before the layer existed. Per-query
	// deadlines and classes arrive via Request's QueryOpts.
	Overload overload.Config
}

// Cluster serves queries over document-partitioned shards.
type Cluster struct {
	cfg    Config
	shards []*shardGroup
	// seq drives the modeled clock for untimed queries: breakers and
	// fault schedules need a monotone "now", so each Query ticks the
	// cluster one millisecond. Timed queries use their arrival instead.
	seq atomic.Int64

	// Self-healing counters, cluster lifetime.
	retries   atomic.Int64 // sibling retry attempts
	hedges    atomic.Int64 // hedge attempts dispatched
	hedgeWins atomic.Int64 // hedges that beat the primary
	fallbacks atomic.Int64 // sub-queries answered by CPU fallback
	queries   atomic.Int64 // cluster queries served
	failed    atomic.Int64 // cluster queries with no result at all
	degraded  atomic.Int64 // cluster queries missing at least one shard

	// Overload control (all nil/zero when Config.Overload is off).
	brownout     *overload.Brownout
	mergeReserve time.Duration // gather-side time reserved out of each deadline
	degradedTopK int           // brownout level-2 interactive result count

	// Overload counters, cluster lifetime.
	deadlineInfeasible atomic.Int64 // queries refused: budget below merge reserve
	deadlineMisses     atomic.Int64 // queries answered past their deadline
	budgetRejects      atomic.Int64 // sub-queries refused by device budget admission
	hedgeSkips         atomic.Int64 // hedges suppressed by brownout or token budget
}

// New builds a cluster over one index per shard (typically the output of
// workload.PartitionIndex; a single unpartitioned index gives a
// one-shard cluster). Engines and devices are created per replica.
func New(ixs []*index.Index, cfg Config) (*Cluster, error) {
	if len(ixs) == 0 {
		return nil, fmt.Errorf("cluster: no shard indexes")
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 10
	}
	model := hwmodel.DefaultGPU()
	if cfg.Engine.Device != nil {
		model = *cfg.Engine.Device.Model()
	}
	return assemble(cfg, len(ixs), func(s int) (*core.Engine, error) {
		ecfg := cfg.Engine
		ecfg.TopK = cfg.TopK
		ecfg.Device = nil
		if ecfg.Mode != core.CPUOnly {
			ecfg.Device = gpu.New(model, 0)
		}
		return core.New(ixs[s], ecfg)
	})
}

// OfEngine serves an engine the caller built as a one-shard, one-replica
// cluster: TopK and Mode are the engine's, every other knob is Config's
// zero value. Its answers, latency included, are the engine's own — one
// shard charges no gather merge — so a single node runs the same read
// path as a sharded one. Close closes the engine.
func OfEngine(eng *core.Engine) *Cluster {
	// Handing over a built engine cannot fail.
	c, _ := assemble(Config{Replicas: 1, TopK: eng.TopK(), Engine: core.Config{Mode: eng.Mode()}}, 1,
		func(int) (*core.Engine, error) { return eng, nil })
	return c
}

// assemble builds the cluster around engine(s), called once per replica
// of each of the shards; cfg has Replicas and TopK resolved.
func assemble(cfg Config, shards int, engine func(shard int) (*core.Engine, error)) (*Cluster, error) {
	if cfg.Engine.CPU == (hwmodel.CPUModel{}) {
		cfg.Engine.CPU = hwmodel.DefaultCPU()
	}
	c := &Cluster{cfg: cfg}
	olc := cfg.Overload
	c.brownout = overload.NewBrownout(olc.BrownoutEnter, olc.BrownoutEscalate, olc.BrownoutHold)
	c.degradedTopK = olc.DegradedTopK
	if c.degradedTopK <= 0 {
		if c.degradedTopK = cfg.TopK / 2; c.degradedTopK < 1 {
			c.degradedTopK = 1
		}
	}
	for s := 0; s < shards; s++ {
		g := &shardGroup{id: s, budget: overload.NewBudget(olc.RetryBudget, overload.DefaultRetryBurst)}
		c.shards = append(c.shards, g)
		for r := 0; r < cfg.Replicas; r++ {
			eng, err := engine(s)
			if err != nil {
				c.Close()
				return nil, fmt.Errorf("cluster: shard %d replica %d: %w", s, r, err)
			}
			site := fmt.Sprintf("s%dr%d", s, r)
			rep := newReplica(eng, site, fault.NewBreaker(cfg.Breaker), cfg.Fault)
			rep.shed = overload.NewShedder(olc.ShedTarget, olc.ShedInterval)
			if cfg.Fault != nil {
				if node := eng.Node(); node != nil {
					// One hook per device, each at its own site name
					// (fault.DeviceSite keeps the bare replica site on
					// single-device nodes, preserving seeded fault streams),
					// so injected faults are attributable to the device
					// they hit.
					for d := 0; d < node.Devices(); d++ {
						node.SetSubmitHook(d, cfg.Fault.DeviceHook(fault.DeviceSite(site, d, node.Devices())))
					}
				}
			}
			g.replicas = append(g.replicas, rep)
		}
	}
	// The time each deadline reserves for the gather-side merge: the
	// priced cost of merging a full shards x top-k candidate set, so a
	// shard sub-deadline leaves room to assemble the answer. Computed
	// unconditionally (it is cheap and side-effect free) because a
	// per-query deadline may arrive even when Config.Overload is zero.
	c.mergeReserve = c.worstMergeCost()
	return c, nil
}

// retryBudget resolves the Retries default: one sibling retry when the
// shard has a sibling, none otherwise.
func (c *Cluster) retryBudget() int {
	switch {
	case c.cfg.Retries < 0:
		return 0
	case c.cfg.Retries == 0:
		if c.cfg.Replicas > 1 {
			return 1
		}
		return 0
	default:
		return c.cfg.Retries
	}
}

// Close releases every replica engine's device resources. Engines with
// in-flight sub-queries retire when those queries finish.
func (c *Cluster) Close() {
	for _, g := range c.shards {
		for _, r := range g.replicas {
			r.close()
		}
	}
}

// ReplaceShard atomically swaps one shard's serving index: every replica
// of the shard gets its engine's Successor over ix — simulated
// timelines, submit hooks (fault sites), and the batching stage survive
// the swap — and the predecessor retires when its last in-flight
// sub-query finishes (epoch-based reclamation, no pause). This is the
// live-ingestion merge commit path: a background merge re-encodes a
// shard's postings and publishes the result here while traffic keeps
// flowing.
func (c *Cluster) ReplaceShard(shard int, ix *index.Index) error {
	if shard < 0 || shard >= len(c.shards) {
		return fmt.Errorf("cluster: replace shard %d of %d", shard, len(c.shards))
	}
	for _, rep := range c.shards[shard].replicas {
		rep.swap(rep.engine().Successor(ix))
	}
	return nil
}

// ShardNode returns shard's replica-0 device node (nil for CPU-only
// replicas) — the shared timeline live merges price their re-encode on.
func (c *Cluster) ShardNode(shard int) *gpu.NodeRuntime {
	return c.shards[shard].replicas[0].engine().Node()
}

// NumShards returns the shard count.
func (c *Cluster) NumShards() int { return len(c.shards) }

// Replicas returns the per-shard replica count.
func (c *Cluster) Replicas() int { return c.cfg.Replicas }

// TopK returns the cluster result count.
func (c *Cluster) TopK() int { return c.cfg.TopK }

// Mode returns the replica engines' placement mode.
func (c *Cluster) Mode() core.Mode { return c.cfg.Engine.Mode }

// Routing returns the replica routing policy.
func (c *Cluster) RoutingPolicy() Routing { return c.cfg.Routing }

// Batching returns the replica engines' cross-query batching
// configuration and whether the stage is enabled. Every replica shares
// one engine config, so the first replica speaks for all.
func (c *Cluster) Batching() (gpu.BatchConfig, bool) {
	return c.shards[0].replicas[0].engine().Batching()
}

// BatchStats aggregates cross-query batching telemetry across every
// replica's devices (zero value when the stage is disabled).
func (c *Cluster) BatchStats() gpu.BatchStats {
	var st gpu.BatchStats
	for _, g := range c.shards {
		for _, rep := range g.replicas {
			st.Add(rep.engine().BatchStats())
		}
	}
	return st
}

// NumDocs returns the corpus size (shard indexes carry the global count).
func (c *Cluster) NumDocs() int {
	return c.shards[0].replicas[0].engine().Index().NumDocs
}

// NumTerms returns the corpus' distinct term count: the shard's
// dictionary size at one shard, the union of the shards' dictionaries
// otherwise.
func (c *Cluster) NumTerms() int {
	ixs := make([]*index.Index, len(c.shards))
	for s, g := range c.shards {
		ixs[s] = g.replicas[0].engine().Index()
	}
	if len(ixs) == 1 {
		return ixs[0].NumTerms()
	}
	terms := make(map[string]struct{})
	for _, ix := range ixs {
		for _, t := range ix.Terms() {
			terms[t] = struct{}{}
		}
	}
	return len(terms)
}

// ShardStats records one shard's contribution to a query.
type ShardStats struct {
	// Shard and Replica identify the engine that served the sub-query.
	Shard   int
	Replica int
	// TimedOut marks a shard dropped for exceeding ShardTimeout; Err a
	// shard whose engine failed (after exhausting retries). Either way
	// the shard is missing from the merged result.
	TimedOut bool
	Err      string
	// Retries counts the sibling retry attempts this sub-query needed;
	// Hedged marks that a hedge was dispatched, HedgeWon that the hedge's
	// path beat the primary's.
	Retries  int
	Hedged   bool
	HedgeWon bool
	// Overload markers (all false when overload control is off): Shed
	// reports the sub-query was refused by the replica's CoDel admission
	// rule; BudgetRejected that its final error was a device deadline-
	// budget rejection; DeadlineExceeded that the shard answered past its
	// sub-deadline and was dropped from the merge; HedgeSkipped that a
	// hedge the latency warranted was suppressed by brownout or the token
	// budget.
	Shed             bool
	BudgetRejected   bool
	DeadlineExceeded bool
	HedgeSkipped     bool
	// Effective is the shard's contribution to the cluster critical
	// path: the serving attempt's latency plus injected stalls and retry
	// backoff, or min(primary, HedgeDelay + hedge) when hedged. Equals
	// Query.Latency on a clean un-hedged sub-query.
	Effective time.Duration
	// Query is the execution record of the attempt whose result was used
	// (zero when Err is set).
	Query core.QueryStats
}

// Stats aggregates one cluster query.
type Stats struct {
	// Latency is the cluster critical path: the slowest shard the query
	// waited for (timed-out shards charge the full ShardTimeout) plus the
	// gather-side merge.
	Latency time.Duration
	// MaxShard is the pre-merge critical path; MergeTime the modeled
	// merge cost.
	MaxShard  time.Duration
	MergeTime time.Duration
	// Degraded reports a partial result; Missing lists the shards whose
	// documents the result may be missing.
	Degraded bool
	Missing  []int
	// Retries, Hedges, HedgeWins, and Fallbacks total the self-healing
	// actions this query took across its shards.
	Retries   int
	Hedges    int
	HedgeWins int
	Fallbacks int
	// Overload record (all zero when overload control is off): Deadline
	// is the budget the query ran under; DeadlineMiss that it answered
	// past it; Class its criticality; BrownoutLevel the ladder position
	// it was served at; ForcedCPU/DegradedTopK the brownout degradation
	// applied; HedgeSkips the hedges suppressed across its shards.
	Deadline      time.Duration
	DeadlineMiss  bool
	Class         overload.Class
	BrownoutLevel int
	ForcedCPU     bool
	DegradedTopK  int
	HedgeSkips    int
	// Shards has one record per shard, in shard order.
	Shards []ShardStats
}

// Result is a completed cluster query.
type Result struct {
	// Docs are the merged top-k, descending by score, ties by ascending
	// docID (the engine's rank.Beats order). Non-nil whenever the query
	// executed.
	Docs []kernels.ScoredDoc
	// Stats is the scatter-gather execution record.
	Stats Stats
}

// Overlay supplies per-shard execution overlays for one query — the
// live-ingestion read path. Shard s's sub-query threads Shard(s) into
// its engine: the delta view reconciles the shard's main-segment
// intersection with unmerged mutations, and the overlay scorer carries
// the cluster's *global* live collection statistics, the running
// analogue of workload.PartitionIndex's GlobalN stamping. A nil overlay
// (or a nil Shard(s)) takes the frozen-corpus path unchanged.
type Overlay interface {
	Shard(s int) *exec.Overlay
}

// Request is one cluster query and how to run it. Only Terms is
// required: the zero value of every other field is the service path —
// untimed, frozen corpus, default deadline, interactive class.
type Request struct {
	Terms []string
	// Arrival places the query at an explicit simulated time on every
	// shard runtime's global timeline — the load-study path, as
	// core.Request.Arrival. Backlog earlier arrivals left on a shard's
	// device delays this query's sub-query there, so the returned latency
	// is the arrival-to-completion sojourn of the slowest shard plus
	// merge. It is honoured only when Timed is set: 0 is a valid arrival,
	// not "none".
	Arrival time.Duration
	Timed   bool
	// Overlay is the query's per-shard live-delta overlay.
	Overlay Overlay
	QueryOpts
}

// Search is Query for a bare term list.
func (c *Cluster) Search(ctx context.Context, terms []string) (*Result, error) {
	return c.Query(ctx, Request{Terms: terms})
}

// shardOutcome is one shard's gathered sub-query: the attempt that
// produced the result (or the last error), plus the self-healing path
// taken to get it.
type shardOutcome struct {
	replica   int
	res       *core.Result
	err       error
	effective time.Duration
	retries   int
	hedged    bool
	hedgeWon  bool
	// Overload-control markers: shed by the replica's admission rule,
	// final error was a device budget rejection, hedge suppressed by
	// brownout or token budget.
	shed           bool
	budgetRejected bool
	hedgeSkipped   bool
}

// Query scatter-gathers one conjunctive query: one replica per shard is
// chosen by the routing policy (skipping tripped circuit breakers), all
// shards execute concurrently, and the per-shard top-k lists merge into
// the global top-k. A shard whose sub-query fails hard is retried on a
// sibling replica (with modeled backoff); a slow shard may be hedged on
// a sibling. Shards that still error or exceed ShardTimeout degrade the
// result rather than failing it; an error is returned only when every
// shard failed (errors.Is(err, ErrAllShardsFailed)).
//
// ctx cancels straggler sub-queries: when it is done, in-flight shard
// plans abort at the next operator boundary and Query returns ctx's
// error without waiting for them. A nil ctx means context.Background().
func (c *Cluster) Query(ctx context.Context, req Request) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	c.queries.Add(1)
	// "Now" for breakers and fault schedules: the arrival for timed
	// queries, a 1ms-per-query internal clock otherwise.
	now := req.Arrival
	if !req.Timed {
		now = time.Duration(c.seq.Add(1)) * time.Millisecond
	}

	// Resolve the query's deadline budget (explicit beats the default)
	// and consult the brownout ladder before fanning out. All of this is
	// inert — level 0, no deadline — when overload control is off.
	deadline := req.Deadline
	if deadline <= 0 {
		deadline = c.cfg.Overload.DefaultDeadline
	}
	level := 0
	if c.brownout != nil {
		level = c.brownout.Observe(now, c.pressure(now, req.Timed))
	}
	if level >= 1 && req.Class == overload.Batch {
		// Tier 1: batch traffic is shed outright under pressure.
		c.brownout.NoteBatchShed()
		return nil, fmt.Errorf("cluster: batch query shed at brownout level %d: %w", level, overload.ErrShed)
	}
	// sub is the sub-query every shard runs (each with its own overlay):
	// the brownout degradation and the shard sub-deadline ride in its
	// options.
	sub := core.Request{Terms: req.Terms, Arrival: req.Arrival, Timed: req.Timed}
	skipHedge := level >= 1
	if level >= 2 {
		// Tier 2: interactive queries are degraded, never refused —
		// reduced top-k and a CPU-only plan that bypasses the contended
		// device timeline entirely.
		sub.ForceCPU = true
		sub.TopK = c.degradedTopK
		c.brownout.NoteDegraded()
	}
	if deadline > 0 {
		if sub.Budget = deadline - c.mergeReserve; sub.Budget <= 0 {
			c.deadlineInfeasible.Add(1)
			return nil, fmt.Errorf("cluster: deadline %v below merge reserve %v: %w", deadline, c.mergeReserve, overload.ErrDeadline)
		}
	}

	// Derived so returning cancels stragglers at their next operator
	// boundary instead of leaking them to plan completion.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	outs := make([]shardOutcome, len(c.shards))
	var wg sync.WaitGroup
	for s, g := range c.shards {
		shard := sub
		if req.Overlay != nil {
			shard.Overlay = req.Overlay.Shard(s)
		}
		wg.Add(1)
		go func(s int, g *shardGroup) {
			defer wg.Done()
			outs[s] = c.searchShard(ctx, g, shard, now, skipHedge)
		}(s, g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-ctx.Done():
		// The caller is gone: the derived cancel (deferred above)
		// aborts the stragglers; don't wait for them.
		c.failed.Add(1)
		return nil, ctx.Err()
	}

	st := Stats{Shards: make([]ShardStats, len(c.shards))}
	st.Deadline = deadline
	st.Class = req.Class
	st.BrownoutLevel = level
	if sub.ForceCPU {
		st.ForcedCPU = true
		st.DegradedTopK = sub.TopK
	}
	parts := make([][]kernels.ScoredDoc, 0, len(c.shards))
	failures := 0
	for s, out := range outs {
		ss := ShardStats{
			Shard: s, Replica: out.replica,
			Retries: out.retries, Hedged: out.hedged, HedgeWon: out.hedgeWon,
			Shed: out.shed, BudgetRejected: out.budgetRejected, HedgeSkipped: out.hedgeSkipped,
			Effective: out.effective,
		}
		st.Retries += out.retries
		if out.hedged {
			st.Hedges++
		}
		if out.hedgeWon {
			st.HedgeWins++
		}
		if out.hedgeSkipped {
			st.HedgeSkips++
		}
		switch {
		case out.err != nil:
			ss.Err = out.err.Error()
			st.Degraded = true
			st.Missing = append(st.Missing, s)
			failures++
		case c.cfg.ShardTimeout > 0 && out.effective > c.cfg.ShardTimeout:
			// The gather waited the full budget before giving up on the
			// shard: the critical path charges the timeout, the shard's
			// documents go missing from the merged result.
			ss.TimedOut = true
			ss.Query = out.res.Stats
			st.Degraded = true
			st.Missing = append(st.Missing, s)
			if c.cfg.ShardTimeout > st.MaxShard {
				st.MaxShard = c.cfg.ShardTimeout
			}
		case sub.Budget > 0 && out.effective > sub.Budget:
			// Deadline propagation's gather side: the shard answered, but
			// past its sub-deadline — the result could not make the cluster
			// deadline, so the shard is dropped and the critical path
			// charges the sub-deadline the gather waited out.
			ss.DeadlineExceeded = true
			ss.Query = out.res.Stats
			st.Degraded = true
			st.Missing = append(st.Missing, s)
			if sub.Budget > st.MaxShard {
				st.MaxShard = sub.Budget
			}
		default:
			ss.Query = out.res.Stats
			if out.res.Stats.FallbackCPU {
				st.Fallbacks++
			}
			parts = append(parts, out.res.Docs)
			if out.effective > st.MaxShard {
				st.MaxShard = out.effective
			}
		}
		st.Shards[s] = ss
	}
	if st.Degraded {
		c.degraded.Add(1)
	}
	if failures == len(c.shards) {
		c.failed.Add(1)
		// When every shard was refused by an overload control, surface
		// that as an overload error — callers (loadsim, the HTTP server)
		// count shed queries apart from genuine failures.
		sheds, rejects := 0, 0
		for _, out := range outs {
			if out.shed {
				sheds++
			} else if out.budgetRejected {
				rejects++
			}
		}
		if sheds+rejects == len(c.shards) {
			cause := overload.ErrShed
			if sheds == 0 {
				cause = overload.ErrDeadline
			}
			return nil, fmt.Errorf("cluster: every shard refused by overload control (%d shed, %d budget-rejected): %w", sheds, rejects, cause)
		}
		// Report the first shard actually carrying an error (a shard may
		// be missing for other reasons, e.g. a timeout).
		first := ""
		for _, ss := range st.Shards {
			if ss.Err != "" {
				first = ss.Err
				break
			}
		}
		return nil, fmt.Errorf("%w: %d shards, first error: %s", ErrAllShardsFailed, failures, first)
	}

	var docs []kernels.ScoredDoc
	switch {
	case len(c.shards) > 1:
		topK := c.cfg.TopK
		if sub.TopK > 0 {
			topK = sub.TopK
		}
		var work hwmodel.CPUWork
		docs, work = MergeTopK(parts, topK)
		st.MergeTime = c.cfg.Engine.CPU.Time(work)
	case len(parts) == 1:
		// One shard has nothing to gather: its top-k is the answer, and
		// the critical path is the shard's own.
		docs = parts[0]
	}
	st.Latency = st.MaxShard + st.MergeTime
	if deadline > 0 && st.Latency > deadline {
		// Answered, but late: the caller gets the result and the miss is
		// marked — goodput accounting, not failure.
		st.DeadlineMiss = true
		c.deadlineMisses.Add(1)
	}
	if docs == nil {
		docs = []kernels.ScoredDoc{}
	}
	return &Result{Docs: docs, Stats: st}, nil
}

// attempt runs one sub-query on one replica, drawing the admission-level
// faults (engine error, shard stall) at the replica's site and recording
// the outcome on its breaker. A CPU fallback succeeds but counts as a
// soft strike — the device misbehaved even though the query survived —
// so a replica answering every query from fallback still trips its
// breaker and sheds traffic to a healthy sibling. The returned duration
// is the attempt's effective latency (engine latency plus any injected
// stall); it is zero when err is non-nil.
func (c *Cluster) attempt(ctx context.Context, rep *replica, req core.Request, now time.Duration) (*core.Result, time.Duration, error) {
	stall, err := c.cfg.Fault.AdmitQuery(rep.site, now)
	if err != nil {
		rep.breaker.Record(now, false)
		return nil, 0, err
	}
	res, err := rep.search(ctx, req)
	if err != nil {
		if ctx.Err() != nil {
			// The caller left (or a hedge already won): the attempt says
			// nothing about the replica's health.
			rep.breaker.Cancel()
			return nil, 0, err
		}
		if gpu.IsBudget(err) {
			// The device refused the work to protect the deadline; the
			// replica is not unhealthy. Release any half-open probe
			// reservation instead of recording a strike.
			c.budgetRejects.Add(1)
			rep.breaker.Cancel()
			return nil, 0, err
		}
		rep.breaker.Record(now, false)
		return nil, 0, err
	}
	if res.Stats.FallbackCPU {
		c.fallbacks.Add(1)
		rep.breaker.Record(now, false) // soft strike
	} else {
		rep.breaker.Record(now, true)
	}
	return res, res.Stats.Latency + stall, nil
}

// searchShard serves one shard of one query: admission-check (CoDel
// shed), route (breaker-aware), attempt, retry on a sibling with modeled
// backoff while the retry budget and token bucket last, then hedge a
// slow result on a sibling when configured and the brownout/token state
// allows. req's options carry the query's brownout degradation and, in
// Budget, the shard sub-deadline (0 = none).
func (c *Cluster) searchShard(ctx context.Context, g *shardGroup, req core.Request, now time.Duration, skipHedge bool) shardOutcome {
	var out shardOutcome
	timed, shardBudget := req.Timed, req.Budget
	ri, rep := g.pick(c.cfg.Routing, now, timed)
	out.replica = ri

	// Per-replica CoDel admission: shed when the backlog the sub-query
	// would face has exceeded the target for a sustained interval. A shed
	// sub-query is not retried — shedding then retrying on a sibling
	// would amplify the very overload being shed. CPU-degraded queries
	// skip the check: they never join the device queue.
	if !req.ForceCPU && !rep.shed.Offer(now, rep.queueDelay(now, timed)) {
		rep.breaker.Cancel() // the admitted probe (if any) never executes
		out.shed = true
		out.err = fmt.Errorf("shard %d replica %d admission: %w", g.id, ri, overload.ErrShed)
		return out
	}
	// Every primary admission earns the shard's token bucket its
	// fractional retry/hedge token.
	g.budget.Admit()

	res, eff, err := c.attempt(ctx, rep, req, now)
	out.res, out.effective, out.err = res, eff, err

	// Sibling retries: each failed attempt is charged the backoff before
	// the next replica tries. Retrying the same replica is pointless in
	// the model (it would draw the same fault stream), so the previous
	// replica is excluded. Each retry spends a token when the bucket is
	// configured; a budget rejection is retryable (a sibling may hold
	// less backlog) but still token-gated.
	retriesLeft := c.retryBudget()
	var waited time.Duration
	for out.err != nil && retriesLeft > 0 && len(g.replicas) > 1 {
		if ctx.Err() != nil {
			return out
		}
		if shardBudget > 0 && shardBudget-(waited+DefaultRetryBackoff) <= 0 {
			// The sub-deadline cannot absorb another backoff: stop.
			break
		}
		if !g.budget.Take() {
			break
		}
		retriesLeft--
		out.retries++
		c.retries.Add(1)
		waited += DefaultRetryBackoff
		prev := out.replica
		ri, rep = g.pickExcluding(c.cfg.Routing, now+waited, timed, prev)
		res, eff, err = c.attempt(ctx, rep, delayed(req, waited), now+waited)
		if err == nil {
			out.replica, out.res, out.err = ri, res, nil
			out.effective = waited + eff
		} else {
			out.err = err
		}
	}
	if out.err != nil {
		out.budgetRejected = gpu.IsBudget(out.err)
		return out
	}

	// Hedge: when the serving path is slower than the hedge delay, a
	// sibling gets the same sub-query at (arrival + HedgeDelay) and the
	// faster path defines the shard's effective latency. The model runs
	// the hedge after the primary completes — modeled latency is only
	// known then — and takes min(primary, HedgeDelay + hedge), which is
	// exactly the latency a concurrent dispatch would have produced.
	// Results need no reconciliation: replicas are bit-identical.
	// Brownout level >= 1 skips hedges outright (shedding duplicated
	// work first), and each hedge spends a token when the bucket is
	// configured.
	if c.cfg.HedgeDelay > 0 && len(g.replicas) > 1 && out.effective > c.cfg.HedgeDelay {
		if ctx.Err() != nil {
			return out
		}
		if skipHedge || !g.budget.Take() {
			out.hedgeSkipped = true
			c.hedgeSkips.Add(1)
			return out
		}
		hNow := now + c.cfg.HedgeDelay
		hi, hrep := g.pickExcluding(c.cfg.Routing, hNow, timed, out.replica)
		out.hedged = true
		c.hedges.Add(1)
		hres, heff, herr := c.attempt(ctx, hrep, delayed(req, c.cfg.HedgeDelay), hNow)
		if herr == nil {
			if hedgePath := c.cfg.HedgeDelay + heff; hedgePath < out.effective {
				out.replica, out.res, out.effective = hi, hres, hedgePath
				out.hedgeWon = true
				c.hedgeWins.Add(1)
			}
		}
	}
	return out
}

// delayed is req dispatched d later: its arrival moves out and its
// sub-deadline budget (when it has one) shrinks by the same amount.
func delayed(req core.Request, d time.Duration) core.Request {
	req.Arrival += d
	if req.Budget > 0 {
		req.Budget -= d
	}
	return req
}

// ShardTelemetry is one replica engine's live state, the /statz surface.
type ShardTelemetry struct {
	Shard   int
	Replica int
	// Site is the replica's fault-injection site name ("s2r1").
	Site string
	// Queries counts sub-queries this replica served.
	Queries int64
	// Breaker is the replica's circuit-breaker state ("closed", "open",
	// "half-open") at the cluster's current modeled time; BreakerTrips
	// counts how many times it has opened.
	Breaker      string
	BreakerTrips int64
	// Device is device 0's runtime snapshot (nil for CPU-only engines) —
	// the single-device view, preserved for existing consumers.
	Device *gpu.RuntimeStats
	// Devices has one runtime snapshot per node device, in device order,
	// when the replica's node has more than one GPU (nil otherwise).
	Devices []gpu.RuntimeStats
	// Cache is the replica's resident-list cache counters, aggregated
	// across the node's devices.
	Cache core.CacheStats
	// Batch is the replica's cross-query batching telemetry aggregated
	// across the node's devices (nil when the batching stage is disabled).
	Batch *gpu.BatchStats
	// Sheds counts sub-queries refused by this replica's CoDel admission
	// rule (zero when overload control is off).
	Sheds int64
}

// now returns the cluster's current modeled time (the untimed clock's
// position; timed workloads read breaker states against it too, which
// is safe because arrivals only ever advance alongside it).
func (c *Cluster) now() time.Duration {
	return time.Duration(c.seq.Load()) * time.Millisecond
}

// Telemetry snapshots every replica, shard-major.
func (c *Cluster) Telemetry() []ShardTelemetry {
	now := c.now()
	out := make([]ShardTelemetry, 0, len(c.shards)*c.cfg.Replicas)
	for _, g := range c.shards {
		for ri, rep := range g.replicas {
			t := ShardTelemetry{
				Shard:        g.id,
				Replica:      ri,
				Site:         rep.site,
				Queries:      rep.served.Load(),
				Breaker:      rep.breaker.State(now).String(),
				BreakerTrips: rep.breaker.Trips(),
				Cache:        rep.engine().CacheStats(),
			}
			if node := rep.engine().Node(); node != nil {
				st := node.Runtime(0).Stats()
				t.Device = &st
				if node.Devices() > 1 {
					t.Devices = node.Stats().Devices
				}
			}
			if _, on := rep.engine().Batching(); on {
				bs := rep.engine().BatchStats()
				t.Batch = &bs
			}
			t.Sheds = rep.shed.Stats().Sheds
			out = append(out, t)
		}
	}
	return out
}

// SelfHealStats is the cluster-lifetime self-healing counter snapshot.
type SelfHealStats struct {
	// Queries, Degraded, Failed count cluster queries served, answered
	// partially, and not answered at all.
	Queries  int64
	Degraded int64
	Failed   int64
	// Retries, Hedges, HedgeWins, Fallbacks count sibling retry
	// attempts, hedges dispatched, hedges that won, and sub-queries
	// answered by the engines' CPU fallback.
	Retries   int64
	Hedges    int64
	HedgeWins int64
	Fallbacks int64
	// BreakerTrips totals breaker openings across all replicas.
	BreakerTrips int64
	// InjectedFaults totals the fault injector's fired events (zero
	// without a fault plan).
	InjectedFaults int64
}

// SelfHeal snapshots the cluster's self-healing counters.
func (c *Cluster) SelfHeal() SelfHealStats {
	st := SelfHealStats{
		Queries:        c.queries.Load(),
		Degraded:       c.degraded.Load(),
		Failed:         c.failed.Load(),
		Retries:        c.retries.Load(),
		Hedges:         c.hedges.Load(),
		HedgeWins:      c.hedgeWins.Load(),
		Fallbacks:      c.fallbacks.Load(),
		InjectedFaults: c.cfg.Fault.Total(),
	}
	for _, g := range c.shards {
		for _, rep := range g.replicas {
			st.BreakerTrips += rep.breaker.Trips()
		}
	}
	return st
}

// Injector returns the cluster's fault injector (nil without a fault
// plan) — the /statz surface for the injected-fault log.
func (c *Cluster) Injector() *fault.Injector { return c.cfg.Fault }

// ShardHealth is one shard's reachability summary.
type ShardHealth struct {
	Shard int
	// Reachable reports that at least one replica's breaker admits
	// traffic; Open counts replicas whose breaker is open.
	Reachable bool
	Open      int
}

// Health is the cluster's degradation summary, the /healthz surface.
type Health struct {
	// Healthy is false when a majority of shards are unreachable (every
	// replica's breaker open) — the 503 condition.
	Healthy bool
	// Shards has one entry per shard; Unreachable counts shards with no
	// admitting replica.
	Shards      []ShardHealth
	Unreachable int
}

// Health reports per-shard reachability at the cluster's current
// modeled time.
func (c *Cluster) Health() Health {
	now := c.now()
	h := Health{Shards: make([]ShardHealth, len(c.shards))}
	for i, g := range c.shards {
		sh := ShardHealth{Shard: g.id}
		for _, rep := range g.replicas {
			if rep.breaker.State(now) == fault.Open {
				sh.Open++
			} else {
				sh.Reachable = true
			}
		}
		if !sh.Reachable {
			h.Unreachable++
		}
		h.Shards[i] = sh
	}
	h.Healthy = h.Unreachable*2 < len(c.shards)
	return h
}
