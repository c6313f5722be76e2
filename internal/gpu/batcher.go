// Cross-query batching: amortizing fixed per-op costs across queries.
//
// Every device op pays fixed costs — kernel launch overhead, DMA setup
// latency — that do not shrink with the op's size.
// Under load those costs repeat for every query on every shard, which is
// why saturated throughput scales sublinearly (the shard and device sweeps). Real GPU
// retrieval systems answer with cross-query batching: compatible ops from
// concurrently queued queries (same engine class, same kernel family) are
// packed into one combined launch / one DMA program, so the fixed cost is
// paid once per batch and each additional member pays only a marginal
// coordination cost (hwmodel.GPUModel.BatchMemberOverhead).
//
// The batcher is the stage between admission and lane submit that models
// exactly that. A batch opens when a keyed work item (QueryStream.SubmitOp)
// finds no open batch for its (engine class, batch key) it can join; it
// stays open for a bounded coalescing window measured from the leader's
// ready position on the global device timeline, and closes early when it
// reaches the configured size. Followers joining an open batch are rebated
// the fixed component of their charged time (minus the member overhead) —
// the timeline-visible effect of riding an already-paid launch. Results
// are never touched: batching moves simulated time, not bytes, so
// per-query answers stay bit-identical to unbatched execution.
//
// Batching is strictly *cross-query*: a batch holds at most one member per
// query stream. One query's own same-family ops are already modeled as
// back-to-back submissions on its private stream — letting them coalesce
// with each other would shave fixed costs off an isolated query and make
// contention-free latency depend on the batching flag. Instead a stream's
// second op of a family opens a parallel batch for the same key, which
// later queries' second ops join: with k overlapping queries of m uploads
// each, the stage forms m batches of ~k members, and a lone query forms m
// batches of one (rebate-free, timeline identical to unbatched).
package gpu

import "time"

// DefaultBatchMax is the batch size cap when BatchConfig.Max is zero: 16
// members packs well below the point where a combined grid would change
// occupancy behavior, and matches the admission fan-in a saturated lane
// sees within one window at calibrated loads.
const DefaultBatchMax = 16

// BatchConfig parameterizes a device runtime's cross-query batching
// stage. The zero value disables batching entirely (the pre-batching
// submission path, byte-identical timelines).
type BatchConfig struct {
	// Window is the coalescing window: a keyed work item joins an open
	// batch only while its ready position on the global timeline is within
	// Window of the batch leader's. <= 0 disables batching.
	Window time.Duration
	// Max closes a batch when it reaches this many members (flush-on-size);
	// <= 0 means DefaultBatchMax.
	Max int
}

// Enabled reports whether the config turns batching on.
func (c BatchConfig) Enabled() bool { return c.Window > 0 }

// Batched describes one work item's membership in a coalesced batch, as
// returned by QueryStream.SubmitOp. The zero value (ID 0) means the item
// was not batched: unkeyed submission, batching disabled, or the item
// failed before running.
type Batched struct {
	// ID is the batch's device-unique identifier (1-based).
	ID int64
	// Seq is the item's 1-based ordinal within the batch; 1 is the leader,
	// which pays the batch's full fixed costs.
	Seq int
	// Saved is the fixed-cost rebate this item received (zero for the
	// leader).
	Saved time.Duration
}

// BatchStats is a telemetry snapshot of one device's batching stage.
type BatchStats struct {
	// Batches counts opened batches; Members counts work items admitted
	// into them (leaders included), so Members/Batches is the mean batch
	// size.
	Batches int64
	Members int64
	// Saved is the total fixed-cost rebate granted to followers — simulated
	// device time the coalesced launches did not spend.
	Saved time.Duration
	// WindowFlushes counts batches retired because their coalescing window
	// expired (including batches still open when the device drained);
	// SizeFlushes counts batches closed at Max members.
	WindowFlushes int64
	SizeFlushes   int64
}

// Add accumulates o into s (node-level aggregation across devices).
func (s *BatchStats) Add(o BatchStats) {
	s.Batches += o.Batches
	s.Members += o.Members
	s.Saved += o.Saved
	s.WindowFlushes += o.WindowFlushes
	s.SizeFlushes += o.SizeFlushes
}

// batchKey identifies the compatibility class of coalescible work: same
// engine, same op family (the exec layer keys intersects by algorithm so
// MergePath and binary-skip kernels never share a grid).
type batchKey struct {
	class EngineClass
	key   string
}

// openBatch is one batch still accepting members. All access is under the
// owning runtime's lock.
type openBatch struct {
	id     int64
	anchor time.Duration // leader's ready position; the window runs from here
	n      int
	fixed  time.Duration // latest member's fixed cost: the saving estimate for the next joiner
	// queries records the member streams (QueryStream ids): a batch holds
	// at most one op per query, keeping batching strictly cross-query.
	queries map[int64]struct{}
}

// batcher is a device runtime's batching stage. It is owned by a
// DeviceRuntime and guarded by that runtime's mutex. Each key maps to the
// open batches for that family in opening order; parallel batches exist
// exactly when one query has submitted several ops of the family (its
// i-th op leads or joins the i-th batch).
type batcher struct {
	cfg    BatchConfig
	open   map[batchKey][]*openBatch
	nextID int64
	stats  BatchStats
}

func newBatcher(cfg BatchConfig) *batcher {
	if cfg.Max <= 0 {
		cfg.Max = DefaultBatchMax
	}
	return &batcher{cfg: cfg, open: make(map[batchKey][]*openBatch)}
}

// admit places one completed work item into the batching stage: it joins
// the oldest open batch for (class, key) that is unexpired at ready, has
// room, and does not already carry an op of the same query — otherwise it
// opens (and leads) a new batch, with expired predecessors retired along
// the way. It returns the item's membership and the rebate to credit back
// to the submitting stream. query is the submitting stream's id; fixed is
// the fixed-cost component the item just charged, overhead the per-member
// marginal cost, took the item's total charged time (the rebate ceiling).
func (b *batcher) admit(class EngineClass, key string, query int64, ready, fixed, overhead, took time.Duration) (Batched, time.Duration) {
	k := batchKey{class: class, key: key}
	live := b.open[k][:0]
	var ob *openBatch
	for _, o := range b.open[k] {
		if ready >= o.anchor+b.cfg.Window {
			b.stats.WindowFlushes++
			continue
		}
		live = append(live, o)
		if ob == nil {
			if _, dup := o.queries[query]; !dup {
				ob = o
			}
		}
	}
	if ob == nil {
		b.nextID++
		ob = &openBatch{
			id: b.nextID, anchor: ready, n: 1, fixed: fixed,
			queries: map[int64]struct{}{query: {}},
		}
		b.open[k] = append(live, ob)
		b.stats.Batches++
		b.stats.Members++
		return Batched{ID: ob.id, Seq: 1}, 0
	}
	ob.n++
	ob.fixed = fixed
	ob.queries[query] = struct{}{}
	b.stats.Members++
	rebate := fixed - overhead
	if rebate < 0 {
		rebate = 0
	}
	if rebate > took {
		rebate = took
	}
	b.stats.Saved += rebate
	m := Batched{ID: ob.id, Seq: ob.n, Saved: rebate}
	if ob.n >= b.cfg.Max {
		b.stats.SizeFlushes++
		out := live[:0]
		for _, o := range live {
			if o != ob {
				out = append(out, o)
			}
		}
		live = out
	}
	if len(live) == 0 {
		delete(b.open, k)
	} else {
		b.open[k] = live
	}
	return m, rebate
}

// flushAll retires every open batch — called when the device drains and a
// fresh untimed admission fast-forwards the clock: queries separated by a
// drained device never overlapped, so their ops must not share a launch.
func (b *batcher) flushAll() {
	for k, list := range b.open {
		b.stats.WindowFlushes += int64(len(list))
		delete(b.open, k)
	}
}

// saving estimates the rebate a compute op arriving at the given timeline
// point could collect: the best open, unexpired, non-full compute batch's
// latest fixed cost minus the member overhead. The batch-aware placement
// signal (NodeRuntime.BatchSavings). The arriving query is fresh, so no
// one-op-per-query exclusion applies.
func (b *batcher) saving(at, overhead time.Duration) time.Duration {
	var best time.Duration
	for k, list := range b.open {
		if k.class != ComputeEngine {
			continue
		}
		for _, ob := range list {
			if ob.n >= b.cfg.Max || at >= ob.anchor+b.cfg.Window {
				continue
			}
			if s := ob.fixed - overhead; s > best {
				best = s
			}
		}
	}
	return best
}

// EnableBatching installs (or, with a disabled config, removes) the
// runtime's cross-query batching stage. Like SetSubmitHook, configure it
// before serving traffic: swapping it mid-workload makes the modeled
// timeline depend on the swap's wall-clock timing.
func (rt *DeviceRuntime) EnableBatching(cfg BatchConfig) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if !cfg.Enabled() {
		rt.batch = nil
		return
	}
	rt.batch = newBatcher(cfg)
}

// BatchStats returns a snapshot of the batching stage's telemetry (zero
// value when batching is disabled).
func (rt *DeviceRuntime) BatchStats() BatchStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.batch == nil {
		return BatchStats{}
	}
	return rt.batch.stats
}

// BatchSaving reports the fixed-cost rebate a compute op submitted by a
// freshly admitted query could expect from the device's open batches —
// zero when batching is disabled or the device has drained (a fresh
// admission would flush every open batch).
func (rt *DeviceRuntime) BatchSaving() time.Duration {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.batch == nil || rt.active == 0 {
		return 0
	}
	return rt.batch.saving(rt.clock, rt.dev.model.BatchMemberOverhead)
}

// BatchSavingAt is BatchSaving for a query arriving at an explicit point
// on the global timeline (the timed placement path): open batches are
// judged against the arrival, and a drained device does not forfeit them
// (timed admissions never flush).
func (rt *DeviceRuntime) BatchSavingAt(arrival time.Duration) time.Duration {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.batch == nil {
		return 0
	}
	return rt.batch.saving(arrival, rt.dev.model.BatchMemberOverhead)
}
