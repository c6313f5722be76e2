// Package core is the Griffin engine: the end-to-end conjunctive query
// pipeline of §2.1 — posting-list lookup, SvS-ordered pairwise
// intersections, BM25 scoring, top-k selection — executed under one of
// four placements, each a placement policy over the one plan builder:
//
//   - CPUOnly: the highly optimized CPU baseline (§2.2), using block-wise
//     merge or skip-pointer binary search per pair;
//   - GPUOnly: Griffin-GPU (§3.1), running decompression (Para-EF) and
//     intersection (MergePath or parallel binary search over skip
//     pointers) on the simulated device;
//   - PerQueryHybrid: the static hybrid of Figure 1(c), one placement
//     decision for the whole query;
//   - Hybrid: Griffin proper (§3.2), scheduling each intersection to GPU
//     or CPU by the length-ratio policy and migrating intermediate results
//     from device to host when the query's characteristics shift.
//
// Per-query latency is simulated: CPU operations report work counts priced
// by hwmodel.CPUModel, device operations accumulate on the query's
// gpu.StreamSet (one stream per engine, so copies overlap kernels); host
// and device phases alternate on one timeline.
package core

import (
	"context"
	"fmt"
	"time"

	"griffin/internal/exec"
	"griffin/internal/fault"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/intersect"
	"griffin/internal/kernels"
	"griffin/internal/rank"
	"griffin/internal/sched"
)

// Mode selects the execution placement.
type Mode int

const (
	// CPUOnly runs every stage on the host.
	CPUOnly Mode = iota
	// GPUOnly runs decompression and intersection on the device
	// (Griffin-GPU standalone).
	GPUOnly
	// Hybrid is Griffin: dynamic per-operation scheduling with mid-query
	// migration (the paper's Figure 1(d)).
	Hybrid
	// PerQueryHybrid is the static hybrid baseline of Figure 1(c) (Ding
	// et al., WWW'09): the scheduler places the *whole* query on one
	// processor — decided once from the two shortest lists' length ratio —
	// and never revisits the choice as the query's characteristics change.
	// The paper's §5 argues this is exactly what Griffin improves on.
	PerQueryHybrid
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case CPUOnly:
		return "cpu-only"
	case GPUOnly:
		return "gpu-only"
	case PerQueryHybrid:
		return "per-query-hybrid"
	default:
		return "griffin"
	}
}

// Config parameterizes an Engine.
type Config struct {
	// Mode is the placement strategy.
	Mode Mode
	// Policy schedules Hybrid-mode intersections and makes PerQueryHybrid's
	// one decision; nil means the paper's RatioPolicy (crossover 128,
	// sticky migration).
	Policy sched.Policy
	// TopK is the result count (0 = 10).
	TopK int
	// CPU prices host work; the zero value means hwmodel.DefaultCPU().
	CPU hwmodel.CPUModel
	// Device is the simulated GPU; required unless Mode == CPUOnly. On a
	// multi-device node (Devices > 1) it is device 0 and the template the
	// siblings are cloned from.
	Device *gpu.Device
	// Devices is the node's simulated GPU count (0 or 1 = a single
	// device, byte-identical to the pre-node engine). Devices 1..N-1 are
	// clones of Device with private memory and independent timelines;
	// each query is placed on one of them by Placement before admission.
	Devices int
	// Placement picks the device for each query when Devices > 1; nil
	// means sched.AffinityDevices (backlog minus resident-list savings).
	// Ignored on single-device nodes, where every query runs on device 0
	// without consulting any policy.
	Placement sched.DevicePlacement
	// Streams bounds each device runtime's simulated compute lanes (0 = 1,
	// the K20's single compute engine).
	Streams int
	// SpillBacklog enables load-aware admission: when > 0, the engine
	// wraps its scheduling policy so intersections spill to the CPU plan
	// whenever the device runtime's compute backlog exceeds this
	// threshold — loadsim.Replay's spill limit promoted into the real
	// engine (§3.2's load-balancing hook). Zero disables spilling.
	SpillBacklog time.Duration
	// BatchWindow enables the device runtimes' cross-query batching stage:
	// compatible device ops (same engine class and batch key) from
	// concurrently admitted queries whose submissions fall within this
	// window of each other coalesce into one batched launch, paying the
	// fixed launch/DMA/alloc costs once plus a per-member marginal cost
	// (hwmodel.GPUModel.BatchMemberOverhead). Per-query results are
	// byte-identical to unbatched execution — batching moves simulated
	// time, never bytes. Zero disables batching (the pre-batching
	// submission path, timelines bit for bit); negative is a config error.
	BatchWindow time.Duration
	// BatchMax closes a batch when it reaches this many member ops
	// (flush-on-size); 0 means gpu.DefaultBatchMax. Meaningful only with
	// BatchWindow > 0; negative is a config error.
	BatchMax int
	// CacheLists keeps compressed posting lists resident in device memory
	// (bounded LRU), eliminating repeat PCIe uploads for hot terms — the
	// scalable middle ground between Griffin's upload-per-query prototype
	// and Ao et al.'s cache-everything design the paper's §5 discusses.
	CacheLists bool
	// CacheBytes bounds the device cache (0 = 4 GB, leaving headroom of
	// the K20's 5 GB for working buffers).
	CacheBytes int64
	// NoCPUFallback disables the engine's degradation path: by default a
	// query whose device plan dies on an injected device fault
	// (fault.DeviceFault — not ordinary resource errors like OOM) is
	// transparently re-run on the CPU-only plan, returning correct
	// results with the wasted device time charged to its stats. The
	// paper's CPU/GPU symmetry is what makes this sound: both processors
	// are full-fidelity executors of the same query work.
	NoCPUFallback bool
}

// Engine executes queries against one index.
type Engine struct {
	ix     *index.Index
	cfg    Config
	scorer *rank.Scorer
	// caches holds one device-resident list cache per node device (nil
	// without CacheLists); node is the engine's multi-device runtime (nil
	// for CPU-only engines).
	caches []*listCache
	node   *gpu.NodeRuntime
}

// New builds an engine, validating that GPU modes have a device. All
// queries of an engine — Search, SearchBatch, warmup — go through its
// node's runtimes, so concurrent queries contend for the modeled devices
// and are charged queueing delay (Stats.GPUWait) when they are busy.
func New(ix *index.Index, cfg Config) (*Engine, error) {
	if cfg.Mode != CPUOnly && cfg.Device == nil {
		return nil, fmt.Errorf("core: mode %v requires a device", cfg.Mode)
	}
	if cfg.BatchWindow < 0 {
		return nil, fmt.Errorf("core: negative BatchWindow %v", cfg.BatchWindow)
	}
	if cfg.BatchMax < 0 {
		return nil, fmt.Errorf("core: negative BatchMax %d", cfg.BatchMax)
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 10
	}
	if cfg.CPU == (hwmodel.CPUModel{}) {
		cfg.CPU = hwmodel.DefaultCPU()
	}
	if cfg.Policy == nil {
		cfg.Policy = sched.NewRatioPolicy()
	}
	if cfg.Placement == nil {
		cfg.Placement = sched.AffinityDevices{}
	}
	if cfg.CacheLists && cfg.CacheBytes <= 0 {
		cfg.CacheBytes = 4 << 30
	}
	var node *gpu.NodeRuntime
	if cfg.Device != nil {
		node = gpu.NewNode(cfg.Device, cfg.Devices, cfg.Streams)
		if cfg.BatchWindow > 0 {
			node.EnableBatching(gpu.BatchConfig{Window: cfg.BatchWindow, Max: cfg.BatchMax})
		}
	}
	return newEngine(ix, cfg, node), nil
}

// Successor returns an engine over ix with this engine's config and
// device node — per-device timelines, submit hooks (fault sites) and the
// batching stage survive, untouched — and fresh list caches. This is how
// a live index swap (a background merge publishing a re-encoded segment)
// replaces the engine without resetting device state: in-flight queries
// on the old engine and new queries on its successor contend for the
// same modeled devices.
func (e *Engine) Successor(ix *index.Index) *Engine {
	return newEngine(ix, e.cfg, e.node)
}

// newEngine assembles an engine over a validated, defaulted config and
// its device node (nil for CPU-only engines).
func newEngine(ix *index.Index, cfg Config, node *gpu.NodeRuntime) *Engine {
	e := &Engine{ix: ix, cfg: cfg, scorer: rank.NewScorer(ix, rank.DefaultBM25()), node: node}
	if cfg.CacheLists {
		devices := 1
		if node != nil {
			devices = node.Devices()
		}
		e.caches = make([]*listCache, devices)
		for i := range e.caches {
			e.caches[i] = newListCache(cfg.CacheBytes)
		}
	}
	return e
}

// Close releases the device memory the engine holds: the list caches, and
// the free blocks its queries left in the devices' memory pools, whose
// sizes fit this engine's lists and nobody else's. A Successor sharing
// the node (a live index swap) therefore starts, like a fresh build, from
// an empty pool.
func (e *Engine) Close() {
	for _, c := range e.caches {
		c.drop()
	}
	if e.node != nil {
		for d := 0; d < e.node.Devices(); d++ {
			e.node.Runtime(d).Device().Trim()
		}
	}
}

// CachedLists returns the number of device-resident cached lists, summed
// across the node's devices.
func (e *Engine) CachedLists() int {
	n := 0
	for _, c := range e.caches {
		n += c.len()
	}
	return n
}

// CacheStats returns the list caches' telemetry counters aggregated
// across the node's devices (zero value for engines without CacheLists).
func (e *Engine) CacheStats() CacheStats {
	var st CacheStats
	for _, c := range e.caches {
		st.Add(c.stats())
	}
	return st
}

// Index returns the engine's index.
func (e *Engine) Index() *index.Index { return e.ix }

// TopK returns the engine's result count.
func (e *Engine) TopK() int { return e.cfg.TopK }

// Mode returns the engine's placement mode.
func (e *Engine) Mode() Mode { return e.cfg.Mode }

// OpTrace records one intersection's placement and outcome — the
// scheduler visibility the examples and experiments inspect. It is the
// exec layer's trace type re-exported for engine callers.
type OpTrace = exec.OpTrace

// QueryStats aggregates one query's simulated execution (the exec
// layer's record, including the full physical-plan trace in Plan).
type QueryStats = exec.QueryStats

// PlanRecord is one executed operator of a query's physical plan.
type PlanRecord = exec.OpRecord

// Result is a completed query.
type Result struct {
	// Docs are the top-k results, descending by score. Non-nil whenever
	// the query executed (including empty-conjunction queries).
	Docs []kernels.ScoredDoc
	// Stats is the simulated execution record.
	Stats QueryStats
}

// Request is one conjunctive query and how to run it. Only Terms is
// required: the zero value of every other field is the service path —
// untimed admission, frozen corpus, configured top-k and plan mode.
type Request struct {
	Terms []string
	// Arrival places the query at an explicit simulated time on the
	// device runtime's global timeline — the load-study path. A driver
	// generating (e.g. Poisson) arrivals issues queries in arrival order;
	// backlog left on the device by earlier arrivals delays this query
	// even though the driver executes queries one at a time, so the
	// returned latency is the arrival-to-completion sojourn time. It is
	// honoured only when Timed is set: 0 is a valid arrival, not "none".
	Arrival time.Duration
	Timed   bool
	// Overlay is a live-ingestion overlay: the query executes against
	// this engine's main segment plus the pinned delta view, and the
	// overlay's scorer evaluates the snapshot's collection statistics. A
	// nil overlay (or one with an empty view and nil scorer) is the
	// frozen-corpus path byte for byte.
	Overlay *exec.Overlay
	SearchOptions
}

// Search is Query for a bare term list.
func (e *Engine) Search(terms []string) (*Result, error) {
	return e.Query(context.Background(), Request{Terms: terms})
}

// SearchContext is Query for a bare term list under ctx.
func (e *Engine) SearchContext(ctx context.Context, terms []string) (*Result, error) {
	return e.Query(ctx, Request{Terms: terms})
}

// Query runs one conjunctive query and returns the top-k scored docs.
// Terms missing from the index make the conjunction empty: the result is
// well-formed (non-nil empty Docs, fetch ops traced, latency set) rather
// than a zero value.
//
// Execution is plan-based: the engine's Mode selects the placement policy
// of the one plan builder, and the exec layer's single executor walks the
// resulting operator pipeline (fetch → upload/decompress → intersect →
// migrate → score → top-k) on one shared simulated timeline. Device work
// goes through the engine's shared DeviceRuntime: a query running alone
// reproduces the paper's per-query numbers exactly, while queries
// overlapping in wall clock contend for the modeled device and pay
// queueing delay (Stats.GPUWait).
// A budget rejection (gpu.ErrBudget) leaves the device timeline as the
// query found it.
//
// ctx is checked between plan operators, so a caller that no longer
// needs the answer — a cluster query whose hedge already won, a closed
// HTTP request — aborts the remaining work with ctx's error. A nil ctx
// means context.Background().
func (e *Engine) Query(ctx context.Context, req Request) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	var h *gpu.QueryStream
	if e.node != nil && !req.ForceCPU {
		adm := gpu.Admission{Arrival: req.Arrival, Timed: req.Timed, Budget: req.Budget}
		if req.Budget > 0 {
			adm.Est = e.estimateDeviceCost(req.Terms)
		}
		var err error
		if h, err = e.node.AdmitOnWith(e.placeDevice(req), adm); err != nil {
			return nil, err
		}
		defer h.Release()
	}
	return e.search(ctx, req, h)
}

// placeDevice chooses the device for one query. Single-device nodes skip
// the policy entirely — every query lands on device 0, which keeps the
// devices=1 engine byte-identical to the pre-node one. At Devices > 1
// the placement policy sees each device's compute backlog plus, when the
// engine caches lists, the upload time each device's resident lists
// would save this query (the affinity signal) and, when it batches, the
// rebate each device's open batches offer. A timed query reads both
// signals relative to its arrival point on the global timeline, so
// discrete-event load studies see queue skew even though their driver
// runs queries one at a time in wall clock.
func (e *Engine) placeDevice(req Request) int {
	if e.node.Devices() == 1 {
		return 0
	}
	var info sched.NodeInfo
	batching := e.cfg.BatchWindow > 0
	if req.Timed {
		info.Backlog = e.node.BacklogsAt(req.Arrival)
		if batching {
			info.BatchSaving = e.node.BatchSavingsAt(req.Arrival)
		}
	} else {
		info.Backlog = e.node.Backlogs()
		if batching {
			info.BatchSaving = e.node.BatchSavings()
		}
	}
	if e.caches != nil {
		info.Saving = e.affinitySavings(req.Terms)
	}
	return e.cfg.Placement.Place(info)
}

// affinitySavings estimates, per device, the transfer time the query's
// terms would not pay there because their compressed lists are already
// cache-resident. The probe reads residency without touching LRU order
// or hit/miss counters; only the chosen device's cache sees real gets.
func (e *Engine) affinitySavings(terms []string) []time.Duration {
	model := e.node.Model()
	out := make([]time.Duration, e.node.Devices())
	for _, t := range terms {
		pl, ok := e.ix.Lookup(t)
		if !ok {
			continue
		}
		bytes := pl.EF.CompressedBytes()
		for d, c := range e.caches {
			if c.contains(pl.Term) {
				out[d] += model.TransferTime(bytes)
			}
		}
	}
	return out
}

// search plans and executes req on the admitted handle h (nil for
// CPU-only engines and ForceCPU requests).
func (e *Engine) search(cancel context.Context, req Request, h *gpu.QueryStream) (*Result, error) {
	fetches := make([]exec.Fetch, len(req.Terms))
	for i, t := range req.Terms {
		fetches[i] = exec.Fetch{Term: t}
		if pl, ok := e.ix.Lookup(t); ok {
			fetches[i].List = pl
		}
	}
	device := e.cfg.Device
	if e.node != nil && h != nil {
		// The plan executes on the device the query was placed on: its
		// buffers live in (and its capacity checks charge) that device's
		// memory. Device 0 is cfg.Device itself, so single-device nodes
		// are unchanged.
		device = e.node.Runtime(h.Device()).Device()
	}
	topK := e.cfg.TopK
	if req.TopK > 0 {
		topK = req.TopK
	}
	ctx := &exec.Context{
		Ctx:           cancel,
		CPU:           e.cfg.CPU,
		Device:        device,
		Handle:        h,
		Lists:         e.listProvider(),
		Scorer:        e.scorer,
		SkipThreshold: intersect.DefaultSkipThreshold,
		TopK:          topK,
	}
	if ov := req.Overlay; ov != nil {
		ctx.Delta = ov.Delta
		if ov.Scorer != nil {
			ctx.Scorer = ov.Scorer
		}
	}
	policy := e.policy(req, h)
	out, err := exec.Run(ctx, fetches, func(ordered []*index.PostingList) exec.Builder {
		return exec.NewHybridBuilder(ordered, policy, sched.DefaultCrossover)
	})
	if err != nil {
		if fault.IsDeviceFault(err) && !e.cfg.NoCPUFallback && !req.ForceCPU {
			return e.fallbackCPU(cancel, req, h, err)
		}
		return nil, err
	}
	return &Result{Docs: out.Docs, Stats: out.Stats}, nil
}

// fallbackCPU re-runs a query whose device plan died on an injected
// fault as a ForceCPU query — the paper's hybrid symmetry made
// load-bearing: the CPU executes the exact same query work over the same
// pinned snapshot, so the fallback's results match the CPU-only golden
// bit for bit. The simulated device time the aborted plan had
// accumulated (service time plus queueing delay) is charged to the
// fallback's stats as FaultWasted/GPUTime: the failed attempt happened on
// the timeline even though its results were discarded.
func (e *Engine) fallbackCPU(cancel context.Context, req Request, h *gpu.QueryStream, cause error) (*Result, error) {
	var wasted time.Duration
	if h != nil {
		wasted = h.Elapsed()
	}
	req.ForceCPU = true
	res, err := e.search(cancel, req, nil)
	if err != nil {
		return nil, err
	}
	st := &res.Stats
	st.FallbackCPU = true
	st.Fault = cause.Error()
	st.FaultWasted = wasted
	st.GPUTime += wasted
	st.Latency = st.CPUTime + st.GPUTime
	if h != nil {
		st.GPUWait = h.Waited()
	}
	return res, nil
}

// policy picks the placement policy for one query — the one place the
// four execution modes differ (Figure 1 (a)–(d)): CPU-only and brownout's
// ForceCPU pin the CPU, GPU-only pins the device, and Hybrid runs the
// configured policy, wrapped with the load-aware spill when the engine
// has SpillBacklog set (the wrapper reads this query's view of the device
// backlog, its runtime handle, before every placement decision).
// PerQueryHybrid asks that same policy once and pins the answer.
func (e *Engine) policy(req Request, h *gpu.QueryStream) sched.Policy {
	switch {
	case e.cfg.Mode == CPUOnly || req.ForceCPU:
		return sched.AlwaysPolicy{Target: sched.CPU}
	case e.cfg.Mode == GPUOnly:
		return sched.AlwaysPolicy{Target: sched.GPU}
	}
	p := e.cfg.Policy
	if e.cfg.SpillBacklog > 0 && h != nil {
		p = &sched.LoadAwarePolicy{Inner: p, Backlog: h, Threshold: e.cfg.SpillBacklog}
	}
	if e.cfg.Mode == PerQueryHybrid {
		p = &sched.PerQueryPolicy{Inner: p}
	}
	return p
}

// Runtime returns device 0's runtime (nil for CPU-only engines) — the
// single-device telemetry surface, preserved for callers that predate
// multi-device nodes; Node is the full per-device view.
func (e *Engine) Runtime() *gpu.DeviceRuntime {
	if e.node == nil {
		return nil
	}
	return e.node.Runtime(0)
}

// Node returns the engine's multi-device runtime (nil for CPU-only
// engines) — per-device backlog, utilization, and admission telemetry.
func (e *Engine) Node() *gpu.NodeRuntime { return e.node }

// Batching returns the engine's cross-query batching configuration and
// whether the stage is enabled (always false for CPU-only engines, whose
// plans place no device work).
func (e *Engine) Batching() (gpu.BatchConfig, bool) {
	if e.node == nil || e.cfg.BatchWindow <= 0 {
		return gpu.BatchConfig{}, false
	}
	max := e.cfg.BatchMax
	if max <= 0 {
		max = gpu.DefaultBatchMax
	}
	return gpu.BatchConfig{Window: e.cfg.BatchWindow, Max: max}, true
}

// BatchStats aggregates the node's cross-query batching telemetry across
// devices (zero value when the stage is disabled).
func (e *Engine) BatchStats() gpu.BatchStats {
	if e.node == nil {
		return gpu.BatchStats{}
	}
	return e.node.BatchStats()
}

// listProvider exposes the engine's resident-list caches to cacheable
// Upload operators; without caching, uploads go straight over PCIe.
func (e *Engine) listProvider() exec.ListProvider {
	if e.caches == nil {
		return nil
	}
	return cacheProvider{caches: e.caches, model: e.node.Model()}
}

// cacheProvider adapts the per-device listCaches to the executor's
// ListProvider: local cache hits skip the transfer entirely; local
// misses whose list is resident on a sibling device take the priced
// choice between a peer copy over the inter-device interconnect and a
// host PCIe re-upload (the cheaper wins — a decision, not a free move);
// successful puts hand ownership to the cache (the executor only drops
// the reference), and full-cache misses leave the buffer executor-owned.
type cacheProvider struct {
	caches []*listCache
	model  *hwmodel.GPUModel
}

func (p cacheProvider) DeviceCompressed(s *gpu.Stream, dev int, pl *index.PostingList) (exec.DeviceList, error) {
	local := p.caches[dev]
	if buf, release, ok := local.get(pl.Term); ok {
		return exec.DeviceList{Buf: buf, Release: release}, nil // already resident: no transfer
	}
	if comp, ok, err := p.peerCopy(s, dev, pl.Term); ok || err != nil {
		if err != nil {
			return exec.DeviceList{}, err
		}
		local.notePeerCopy()
		if release, ok := local.put(pl.Term, comp); ok {
			return exec.DeviceList{Buf: comp, Release: release, Peer: true}, nil
		}
		return exec.DeviceList{Buf: comp, Peer: true}, nil
	}
	comp, err := kernels.UploadEF(s, pl.EF)
	if err != nil {
		return exec.DeviceList{}, err
	}
	if release, ok := local.put(pl.Term, comp); ok {
		return exec.DeviceList{Buf: comp, Release: release, Uploaded: true}, nil
	}
	return exec.DeviceList{Buf: comp, Uploaded: true}, nil
}

// peerCopy scans the sibling devices' caches for term and, when found
// and the interconnect beats the host path for that size, copies the
// compressed list device-to-device onto s. ok is false when the list is
// resident nowhere (or re-uploading is cheaper), sending the caller to
// the host PCIe path.
func (p cacheProvider) peerCopy(s *gpu.Stream, dev int, term string) (*gpu.Buffer, bool, error) {
	for d, c := range p.caches {
		if d == dev || !c.contains(term) {
			continue
		}
		src, release, ok := c.get(term)
		if !ok {
			continue // evicted between the probe and the get
		}
		if p.model.PeerTransferTime(src.Bytes) >= p.model.TransferTime(src.Bytes) {
			release()
			return nil, false, nil
		}
		comp, err := s.PeerIn(src.Data, src.Bytes)
		release()
		if err != nil {
			return nil, false, err
		}
		return comp, true, nil
	}
	return nil, false, nil
}
