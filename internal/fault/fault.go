// Package fault is a seeded, deterministic fault-injection framework for
// the simulated Griffin serving stack. A Plan declares fault Rules —
// kernel-launch failures, device resets, PCIe transfer errors, shard
// stalls, whole-engine errors — each with a firing rate and an optional
// per-site opportunity window; an Injector evaluates the plan at every
// injection point (a device work-item submission, a sub-query admission)
// and decides whether the fault fires.
//
// Determinism is the design center, for the same reason the simulator
// exists at all: a modeled device lets you inject hardware events that
// are unobservable (and unrepeatable) on real silicon. Decisions are not
// drawn from a shared RNG — which would make outcomes depend on goroutine
// interleaving — but hashed from (plan seed, site, fault kind, per-site
// opportunity index). Two runs of the same seeded workload therefore
// inject byte-identical fault sequences even though shard sub-queries
// execute on concurrent goroutines, because each site's opportunity order
// is fixed by the modeled workload, not by wall-clock scheduling.
//
// A nil *Injector is the universal off switch: every method is nil-safe
// and returns the zero answer, so un-faulted configurations pay a single
// pointer test per injection point.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"griffin/internal/gpu"
)

// Kind enumerates the injectable fault classes.
type Kind uint8

const (
	// KernelLaunch fails one compute-engine work item (the CUDA
	// "launch failed" class: a kernel that never starts).
	KernelLaunch Kind = iota
	// TransferError fails one copy-engine work item (a PCIe transfer
	// that aborts mid-flight).
	TransferError
	// DeviceReset takes the whole device down for a modeled window
	// (Rule.Stall, default DefaultResetWindow): every work item submitted
	// while the reset is in progress fails fast.
	DeviceReset
	// ShardStall inflates one sub-query's modeled latency by Rule.Stall
	// (default DefaultStall) — the slow-shard pathology hedged requests
	// exist to absorb.
	ShardStall
	// EngineError fails a whole sub-query at admission (a crashed or
	// wedged replica process, before any device work is attempted).
	EngineError
	// TornWrite persists only a prefix of one storage record: the frame
	// reaches the disk surface cut mid-record, the canonical power-loss
	// artifact a WAL reader must truncate at.
	TornWrite
	// ShortWrite persists only a prefix of the bytes a sync was asked to
	// flush — several buffered records survive, the tail does not.
	ShortWrite
	// BitFlip corrupts one bit of a storage record after the length
	// prefix, the silent-corruption class checksums exist to catch.
	BitFlip

	numKinds
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KernelLaunch:
		return "kernel-launch"
	case TransferError:
		return "transfer-error"
	case DeviceReset:
		return "device-reset"
	case ShardStall:
		return "shard-stall"
	case EngineError:
		return "engine-error"
	case TornWrite:
		return "torn-write"
	case ShortWrite:
		return "short-write"
	case BitFlip:
		return "bit-flip"
	default:
		return fmt.Sprintf("fault(%d)", uint8(k))
	}
}

// Default modeled durations for duration-bearing faults.
const (
	// DefaultResetWindow is how long a DeviceReset keeps the device down.
	DefaultResetWindow = 2 * time.Millisecond
	// DefaultStall is the latency a ShardStall adds to a sub-query.
	DefaultStall = time.Millisecond
)

// Rule is one fault class's firing schedule.
type Rule struct {
	// Kind selects the fault class.
	Kind Kind
	// Rate is the firing probability per opportunity, in [0,1]. An
	// opportunity is one device work-item submission (KernelLaunch,
	// TransferError, DeviceReset) or one sub-query admission (ShardStall,
	// EngineError) at a site.
	Rate float64
	// After and Until bound the rule to a per-site opportunity window:
	// the rule is live for opportunities n with After <= n < Until
	// (Until == 0 means unbounded). Both count per site, so a schedule
	// like {After: 100, Until: 200} injects a mid-run fault burst.
	After, Until int64
	// Stall is the fault's modeled duration: the reset window for
	// DeviceReset, the added latency for ShardStall. Zero selects the
	// kind's default.
	Stall time.Duration
}

// Plan is a complete fault-injection schedule.
type Plan struct {
	// Seed drives every firing decision. The same seed over the same
	// modeled workload reproduces the same injected-fault log exactly.
	Seed int64
	// Rules are the live fault schedules. An empty rule set injects
	// nothing.
	Rules []Rule
}

// ChaosPlan derives the full fault mix from one base rate — what the
// chaos sweep measures and griffin-server -chaos-rate serves under:
// device-level kernel and transfer failures at the base rate, occasional
// device resets, engine admission errors, and shard stalls. Every
// (seed, rate) pair replays the identical fault stream.
func ChaosPlan(seed int64, rate float64) Plan {
	return Plan{Seed: seed, Rules: []Rule{
		{Kind: KernelLaunch, Rate: rate},
		{Kind: TransferError, Rate: rate},
		{Kind: DeviceReset, Rate: rate / 4, Stall: 2 * time.Millisecond},
		{Kind: EngineError, Rate: rate / 2},
		{Kind: ShardStall, Rate: rate, Stall: 3 * time.Millisecond},
	}}
}

// Event is one injected fault, the unit of the deterministic fault log.
type Event struct {
	// Site is the injection site ("s2r0" for shard 2 replica 0).
	Site string
	// Seq is the per-site opportunity index at which the fault fired.
	Seq int64
	// Kind is the fault class.
	Kind Kind
	// At is the site's position on its modeled timeline when the fault
	// fired (zero for untimed paths).
	At time.Duration
}

// DeviceFault is the error an injected device-level fault produces; it
// propagates from the runtime's submit hook through the executor to the
// engine, which answers it by re-planning the query on the CPU.
type DeviceFault struct {
	Kind Kind
	Site string
}

// Error implements error.
func (e *DeviceFault) Error() string {
	return fmt.Sprintf("fault: injected %s at %s", e.Kind, e.Site)
}

// EngineFault is the error an injected whole-engine fault produces: the
// sub-query fails before any work runs, so the cluster's answer is a
// sibling-replica retry, not a CPU fallback.
type EngineFault struct {
	Site string
}

// Error implements error.
func (e *EngineFault) Error() string {
	return fmt.Sprintf("fault: injected engine-error at %s", e.Site)
}

// StorageFault is the error an injected storage-level fault produces: a
// WAL append or sync (or a checkpoint write) that corrupted what it put
// on disk. Unlike device faults — which the engine heals by re-planning —
// a storage fault is not retryable: the corrupt bytes are already on the
// durable surface, so the log must wedge rather than append acknowledged
// records after a record recovery will truncate at.
type StorageFault struct {
	Kind Kind
	Site string
	// Frac is a deterministic value in [0,1) hashed from the same
	// (seed, site, seq) stream as the firing decision; the storage layer
	// uses it to pick the torn length or the flipped bit, so the
	// corruption itself — not just its occurrence — is reproducible.
	Frac float64
}

// Error implements error.
func (e *StorageFault) Error() string {
	return fmt.Sprintf("fault: injected %s at %s", e.Kind, e.Site)
}

// IsStorageFault reports whether err is (or wraps) an injected storage
// fault.
func IsStorageFault(err error) bool {
	var sf *StorageFault
	return errors.As(err, &sf)
}

// IsDeviceFault reports whether err is (or wraps) an injected device
// fault — the trigger for the engine's CPU fallback.
func IsDeviceFault(err error) bool {
	var df *DeviceFault
	return errors.As(err, &df)
}

// IsEngineFault reports whether err is (or wraps) an injected engine
// fault.
func IsEngineFault(err error) bool {
	var ef *EngineFault
	return errors.As(err, &ef)
}

// DeviceSite derives the injection-site name for one device of a
// replica's multi-GPU node: base for single-device nodes — unchanged, so
// existing seeded fault streams are untouched — and "base.g<dev>" when
// the node has several devices, making per-device faults distinguishable
// in the fault log and the /statz site counters. The site string feeds
// hashUnit, so the naming is part of the deterministic contract: a
// devices=1 run must hash the same site names it always has.
func DeviceSite(base string, dev, devices int) string {
	if devices <= 1 {
		return base
	}
	return fmt.Sprintf("%s.g%d", base, dev)
}

// siteState is one injection site's private stream: opportunity counters
// per channel, the in-progress reset window, and the site's slice of the
// fault log.
type siteState struct {
	deviceSeq  int64 // device work-item submissions seen
	querySeq   int64 // sub-query admissions seen
	storageSeq int64 // storage operations (appends, syncs, checkpoints) seen
	resetAt    time.Duration
	resetTill  time.Duration
	resetLive  bool
	events     []Event
}

// Injector evaluates a Plan at injection points. All methods are safe
// for concurrent use and nil-safe (a nil injector never injects).
type Injector struct {
	plan  Plan
	rules [numKinds]*Rule

	mu     sync.Mutex
	sites  map[string]*siteState
	counts [numKinds]int64
}

// NewInjector compiles a plan. A plan with no rules still yields a
// working injector that injects nothing; callers that want the true
// zero-cost path should keep a nil *Injector instead.
func NewInjector(plan Plan) *Injector {
	in := &Injector{plan: plan, sites: make(map[string]*siteState)}
	for i := range plan.Rules {
		r := &plan.Rules[i]
		if r.Kind < numKinds && r.Rate > 0 {
			in.rules[r.Kind] = r
		}
	}
	return in
}

// site returns (creating) the named site's state. Caller holds in.mu.
func (in *Injector) site(name string) *siteState {
	s := in.sites[name]
	if s == nil {
		s = &siteState{}
		in.sites[name] = s
	}
	return s
}

// fires decides whether rule k fires at opportunity seq of site. The
// decision is a pure hash of (seed, site, kind, seq) — independent of
// goroutine interleaving and of which other rules exist.
func (in *Injector) fires(site string, k Kind, seq int64) (*Rule, bool) {
	r := in.rules[k]
	if r == nil {
		return nil, false
	}
	if seq < r.After || (r.Until > 0 && seq >= r.Until) {
		return nil, false
	}
	return r, hashUnit(in.plan.Seed, site, uint64(k), seq) < r.Rate
}

// record appends one fired fault to the site's log and the kind counter.
// Caller holds in.mu.
func (in *Injector) record(site string, s *siteState, seq int64, k Kind, at time.Duration) {
	s.events = append(s.events, Event{Site: site, Seq: seq, Kind: k, At: at})
	in.counts[k]++
}

// DeviceHook returns the runtime submit hook for one site, or nil when
// the injector is nil (the zero-cost default). The hook fails work items
// per the plan: a live DeviceReset window rejects everything; otherwise
// compute items draw KernelLaunch, copy items draw TransferError, and
// every item draws DeviceReset (which opens a reset window on fire).
func (in *Injector) DeviceHook(site string) gpu.SubmitHook {
	if in == nil {
		return nil
	}
	return func(class gpu.EngineClass, at time.Duration) error {
		in.mu.Lock()
		defer in.mu.Unlock()
		s := in.site(site)
		seq := s.deviceSeq
		s.deviceSeq++
		if s.resetLive && at < s.resetTill {
			// Mid-reset: fail fast without logging a fresh event — the
			// window itself was the injected fault.
			return &DeviceFault{Kind: DeviceReset, Site: site}
		}
		s.resetLive = false
		if r, ok := in.fires(site, DeviceReset, seq); ok {
			window := r.Stall
			if window <= 0 {
				window = DefaultResetWindow
			}
			s.resetAt, s.resetTill, s.resetLive = at, at+window, true
			in.record(site, s, seq, DeviceReset, at)
			return &DeviceFault{Kind: DeviceReset, Site: site}
		}
		k := TransferError
		if class == gpu.ComputeEngine {
			k = KernelLaunch
		}
		if _, ok := in.fires(site, k, seq); ok {
			in.record(site, s, seq, k, at)
			return &DeviceFault{Kind: k, Site: site}
		}
		return nil
	}
}

// ResetRemaining reports how much of the site's device-reset window is
// still ahead of the modeled time at — the load signal a router should
// add to a replica's backlog so a mid-reset device (whose queues are
// empty precisely because it is down) does not look attractively idle.
func (in *Injector) ResetRemaining(site string, at time.Duration) time.Duration {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.sites[site]
	if s == nil || !s.resetLive || at >= s.resetTill {
		return 0
	}
	return s.resetTill - at
}

// AdmitQuery evaluates the sub-query-level faults for one admission at
// site: a fired EngineError fails the sub-query (returned error), a
// fired ShardStall returns the added latency. Both may be zero.
func (in *Injector) AdmitQuery(site string, at time.Duration) (stall time.Duration, err error) {
	if in == nil {
		return 0, nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.site(site)
	seq := s.querySeq
	s.querySeq++
	if _, ok := in.fires(site, EngineError, seq); ok {
		in.record(site, s, seq, EngineError, at)
		return 0, &EngineFault{Site: site}
	}
	if r, ok := in.fires(site, ShardStall, seq); ok {
		d := r.Stall
		if d <= 0 {
			d = DefaultStall
		}
		in.record(site, s, seq, ShardStall, at)
		return d, nil
	}
	return 0, nil
}

// StorageOp evaluates the storage-level faults for one operation at
// site — a WAL append (site "<base>.wal.append"), a WAL sync
// ("<base>.wal.sync"), or a checkpoint write ("<base>.ckpt"). Each site
// draws its own opportunity stream, so the decision depends only on the
// modeled sequence of storage operations, never on goroutine
// interleaving. kinds names the failure modes this site class can
// exhibit (an append can tear or flip, a sync can come up short); with
// none given all three storage kinds are drawn. Kinds are drawn in the
// given order and the first live rule that fires wins. Returns nil when
// nothing fires.
func (in *Injector) StorageOp(site string, at time.Duration, kinds ...Kind) *StorageFault {
	if in == nil {
		return nil
	}
	if len(kinds) == 0 {
		kinds = []Kind{TornWrite, ShortWrite, BitFlip}
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	s := in.site(site)
	seq := s.storageSeq
	s.storageSeq++
	for _, k := range kinds {
		if _, ok := in.fires(site, k, seq); ok {
			in.record(site, s, seq, k, at)
			// The fraction is hashed with the kind offset past numKinds so
			// it is decorrelated from every firing decision at this site.
			return &StorageFault{
				Kind: k,
				Site: site,
				Frac: hashUnit(in.plan.Seed, site, uint64(k)+uint64(numKinds), seq),
			}
		}
	}
	return nil
}

// Log returns the complete injected-fault log, sorted by (site, seq,
// kind) so the order is deterministic regardless of which goroutines
// served which sites.
func (in *Injector) Log() []Event {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	names := make([]string, 0, len(in.sites))
	for name := range in.sites {
		names = append(names, name)
	}
	var out []Event
	for _, name := range names {
		out = append(out, in.sites[name].events...)
	}
	in.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Site != out[j].Site {
			return out[i].Site < out[j].Site
		}
		if out[i].Seq != out[j].Seq {
			return out[i].Seq < out[j].Seq
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Counts returns the number of injected faults per kind.
func (in *Injector) Counts() map[string]int64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int64, numKinds)
	for k := Kind(0); k < numKinds; k++ {
		if in.counts[k] > 0 {
			out[k.String()] = in.counts[k]
		}
	}
	return out
}

// SiteCounts returns the number of injected faults per site (sites with
// none are omitted) — the telemetry view that shows which shard, replica,
// and device the faults landed on.
func (in *Injector) SiteCounts() map[string]int64 {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[string]int64)
	for name, s := range in.sites {
		if len(s.events) > 0 {
			out[name] = int64(len(s.events))
		}
	}
	return out
}

// Total returns the total number of injected faults.
func (in *Injector) Total() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	var n int64
	for k := Kind(0); k < numKinds; k++ {
		n += in.counts[k]
	}
	return n
}

// hashUnit maps (seed, site, kind, seq) to a uniform value in [0,1) via
// an FNV-1a fold and a splitmix64 finalizer.
func hashUnit(seed int64, site string, kind uint64, seq int64) float64 {
	h := uint64(0xcbf29ce484222325) ^ uint64(seed)
	for i := 0; i < len(site); i++ {
		h = (h ^ uint64(site[i])) * 0x100000001b3
	}
	h ^= kind * 0x9E3779B97F4A7C15
	h ^= uint64(seq) * 0xBF58476D1CE4E5B9
	// splitmix64 finalizer
	h ^= h >> 30
	h *= 0xBF58476D1CE4E5B9
	h ^= h >> 27
	h *= 0x94D049BB133111EB
	h ^= h >> 31
	return float64(h>>11) / float64(1<<53)
}
