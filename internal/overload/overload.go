// Package overload is the cluster's overload-control toolkit: the
// pieces that keep a saturated system answering *some* queries well
// instead of answering every query late.
//
// Four mechanisms compose (each independently optional, zero value =
// off, so a cluster configured without them behaves byte-identically to
// one built before this package existed):
//
//   - deadline budgets: a per-query deadline enters at the server and
//     propagates as a shrinking budget — shard sub-deadline, then device
//     admission, where an op whose estimated completion already exceeds
//     the remaining budget is rejected early instead of queued to die;
//   - CoDel-style admission shedding (Shedder, Gate): a bounded queue
//     sheds work only when the oldest waiter's age has exceeded a target
//     for a full interval — transient bursts ride through, sustained
//     overload sheds;
//   - retry/hedge token budgets (Budget): self-healing retries and
//     hedges spend tokens earned by admissions, so the recovery layer
//     cannot amplify an overload into a retry storm (metastable failure);
//   - brownout tiers (Brownout): a pressure signal first sheds
//     batch-class traffic, then degrades interactive queries (reduced
//     top-k, CPU-only plans) before ever refusing them.
//
// Everything except Gate runs on the cluster's modeled clock
// (time.Duration positions supplied by the caller), so overload behavior
// under a seeded workload is as deterministic as the workload itself.
// Gate guards the HTTP server's wall-clock admission queue and sheds
// through a Shedder whose clock is wall time.
package overload

import (
	"errors"
	"sync"
	"time"
)

// ErrShed is wrapped by every admission-control rejection: a query (or
// sub-query) refused to protect the system rather than failed by it.
// Servers map it to 503; load drivers count it as shed, not errored.
var ErrShed = errors.New("overload: shed")

// ErrDeadline is wrapped when a query's deadline budget cannot be met —
// infeasibly small against the merge reserve, or already exhausted.
var ErrDeadline = errors.New("overload: deadline budget exhausted")

// IsOverload reports whether err is an overload-control rejection
// (shed or deadline) rather than an execution failure.
func IsOverload(err error) bool {
	return errors.Is(err, ErrShed) || errors.Is(err, ErrDeadline)
}

// Class is a query's criticality class. Brownout sheds Batch traffic
// before it degrades Interactive traffic.
type Class int

const (
	// Interactive is the latency-sensitive default: shed last, degraded
	// (reduced top-k, CPU-only plan) before being refused.
	Interactive Class = iota
	// Batch is throughput traffic: the first tier shed under pressure.
	Batch
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == Batch {
		return "batch"
	}
	return "interactive"
}

// ParseClass maps the wire names ("interactive", "batch") to a Class.
func ParseClass(s string) (Class, bool) {
	switch s {
	case "", "interactive":
		return Interactive, true
	case "batch":
		return Batch, true
	}
	return Interactive, false
}

// Config parameterizes the cluster's overload controls. The zero value
// disables every mechanism: no deadline, unbounded admission, unbudgeted
// retries/hedges, no brownout — the pre-overload cluster bit for bit.
type Config struct {
	// DefaultDeadline is the per-query deadline budget applied when a
	// query carries none (0 = no deadline).
	DefaultDeadline time.Duration
	// ShedTarget enables CoDel-style per-replica admission shedding: a
	// sub-query offered to a replica whose admission backlog has exceeded
	// ShedTarget continuously for ShedInterval is shed instead of queued
	// (0 = no shedding). ShedInterval 0 selects 2x ShedTarget.
	ShedTarget   time.Duration
	ShedInterval time.Duration
	// RetryBudget gates sibling retries and hedges with a token bucket:
	// each admitted sub-query earns RetryBudget tokens and each retry or
	// hedge spends one, so self-healing actions are bounded by that
	// fraction of recent admissions (e.g. 0.1 = at most ~10%). Zero
	// disables the budget (unbudgeted, pre-overload behavior). The bucket
	// holds at most DefaultRetryBurst tokens and starts full, so
	// fault-path behavior at low load is unchanged until the burst is
	// spent faster than it refills.
	RetryBudget float64
	// BrownoutEnter enables brownout tiers: level 1 (shed batch-class
	// queries, skip hedges) when the cluster pressure signal — the
	// slowest shard's best-replica backlog — exceeds BrownoutEnter, and
	// level 2 (degrade interactive queries: reduced top-k, CPU-only
	// plans) when it exceeds BrownoutEscalate (0 = 2x Enter). Levels step
	// back down one at a time after BrownoutHold of modeled time below
	// half the level's entry threshold (0 = Enter). Zero Enter disables
	// brownout entirely.
	BrownoutEnter    time.Duration
	BrownoutEscalate time.Duration
	BrownoutHold     time.Duration
	// DegradedTopK is the reduced result count level 2 serves interactive
	// queries at (0 = half the configured top-k, floor 1).
	DegradedTopK int
}

// Enabled reports whether any overload control is configured.
func (c Config) Enabled() bool { return c != (Config{}) }

// DefaultRetryBurst is a cluster's retry token bucket's cap and starting
// balance.
const DefaultRetryBurst = 10.0

// Budget is a token bucket bounding self-healing amplification: each
// admission earns a fractional token, each retry or hedge spends a whole
// one. A nil *Budget is the unbudgeted pre-overload behavior (Take
// always grants). Safe for concurrent use.
type Budget struct {
	ratio float64
	burst float64

	mu      sync.Mutex
	tokens  float64
	earned  int64
	granted int64
	denied  int64
}

// NewBudget builds a bucket earning ratio tokens per admission, capped
// at burst. The bucket starts full, so sparse low-load retries are never
// denied. ratio <= 0 returns nil (disabled).
func NewBudget(ratio, burst float64) *Budget {
	if ratio <= 0 {
		return nil
	}
	return &Budget{ratio: ratio, burst: burst, tokens: burst}
}

// Admit credits one admission's worth of tokens.
func (b *Budget) Admit() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.earned++
	b.tokens += b.ratio
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.mu.Unlock()
}

// Take spends one token, reporting whether the retry/hedge may proceed.
func (b *Budget) Take() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	// Epsilon absorbs float accumulation (10 x 0.1 sums just under 1).
	if b.tokens < 1-1e-9 {
		b.denied++
		return false
	}
	b.tokens--
	b.granted++
	return true
}

// BudgetStats is a bucket's counter snapshot.
type BudgetStats struct {
	// Admissions is the number of token-earning admissions; Granted and
	// Denied count retry/hedge requests by outcome.
	Admissions int64
	Granted    int64
	Denied     int64
	// Tokens is the current balance.
	Tokens float64
}

// Stats snapshots the bucket (zero value for a nil bucket).
func (b *Budget) Stats() BudgetStats {
	if b == nil {
		return BudgetStats{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return BudgetStats{Admissions: b.earned, Granted: b.granted, Denied: b.denied, Tokens: b.tokens}
}

// Add accumulates other into s.
func (s *BudgetStats) Add(other BudgetStats) {
	s.Admissions += other.Admissions
	s.Granted += other.Granted
	s.Denied += other.Denied
	s.Tokens += other.Tokens
}

// Shedder is a CoDel-style admission rule over the modeled clock: offers
// are admitted while the queue age (the backlog a new waiter would face)
// is at or under the target, and while overage is younger than a full
// interval — a transient burst rides through, sustained overload sheds.
// A nil *Shedder admits everything. Safe for concurrent use.
type Shedder struct {
	target   time.Duration
	interval time.Duration

	mu         sync.Mutex
	aboveSince time.Duration
	above      bool
	offered    int64
	sheds      int64
	lastAge    time.Duration
}

// NewShedder builds a shedder with the given target age and sustain
// interval (interval 0 = 2x target). target <= 0 returns nil (disabled).
func NewShedder(target, interval time.Duration) *Shedder {
	if target <= 0 {
		return nil
	}
	if interval <= 0 {
		interval = 2 * target
	}
	return &Shedder{target: target, interval: interval}
}

// Offer reports whether a request arriving at modeled time now, facing a
// queue age of age, is admitted (true) or shed (false).
func (s *Shedder) Offer(now, age time.Duration) bool {
	if s == nil {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.offered++
	s.lastAge = age
	if age <= s.target {
		s.above = false
		return true
	}
	if !s.above {
		s.above = true
		s.aboveSince = now
		return true
	}
	if now-s.aboveSince < s.interval {
		return true
	}
	s.sheds++
	return false
}

// ShedStats is a shedder's counter snapshot.
type ShedStats struct {
	// Offered and Sheds count admission offers and refusals; LastAge is
	// the queue age the most recent offer saw, and Above reports the
	// shedder is currently inside a sustained-overage window.
	Offered int64
	Sheds   int64
	LastAge time.Duration
	Above   bool
}

// Stats snapshots the shedder (zero value for a nil shedder).
func (s *Shedder) Stats() ShedStats {
	if s == nil {
		return ShedStats{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return ShedStats{Offered: s.offered, Sheds: s.sheds, LastAge: s.lastAge, Above: s.above}
}

// Brownout is the graceful-degradation ladder over the modeled clock.
// Level 0 is normal service; level 1 sheds batch-class traffic and
// skips hedges; level 2 additionally degrades interactive queries
// (reduced top-k, CPU-only plans). Levels step up immediately when the
// pressure signal crosses a threshold and step down one at a time after
// a hold below half the level's entry threshold (hysteresis, so the
// ladder does not flap at the boundary). A nil *Brownout stays at level
// 0. Safe for concurrent use.
type Brownout struct {
	enter    time.Duration
	escalate time.Duration
	hold     time.Duration

	mu          sync.Mutex
	level       int
	since       time.Duration
	escalations int64
	batchSheds  int64
	degraded    int64
}

// NewBrownout builds a controller entering level 1 at enter, level 2 at
// escalate (0 = 2x enter), stepping down after hold (0 = enter) of
// modeled time below half the level's entry threshold. enter <= 0
// returns nil (disabled).
func NewBrownout(enter, escalate, hold time.Duration) *Brownout {
	if enter <= 0 {
		return nil
	}
	if escalate <= 0 {
		escalate = 2 * enter
	}
	if hold <= 0 {
		hold = enter
	}
	return &Brownout{enter: enter, escalate: escalate, hold: hold}
}

// Observe feeds one pressure sample at modeled time now and returns the
// (possibly updated) brownout level.
func (b *Brownout) Observe(now, pressure time.Duration) int {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	desired := 0
	switch {
	case pressure >= b.escalate:
		desired = 2
	case pressure >= b.enter:
		desired = 1
	}
	switch {
	case desired > b.level:
		b.escalations += int64(desired - b.level)
		b.level = desired
		b.since = now
	case desired < b.level && now-b.since >= b.hold && pressure < b.exitThreshold():
		b.level--
		b.since = now
	}
	return b.level
}

// exitThreshold is the pressure below which the current level may step
// down: half its entry threshold. Caller holds b.mu.
func (b *Brownout) exitThreshold() time.Duration {
	if b.level >= 2 {
		return b.escalate / 2
	}
	return b.enter / 2
}

// NoteBatchShed counts one batch-class query shed by the ladder.
func (b *Brownout) NoteBatchShed() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.batchSheds++
	b.mu.Unlock()
}

// NoteDegraded counts one interactive query served degraded.
func (b *Brownout) NoteDegraded() {
	if b == nil {
		return
	}
	b.mu.Lock()
	b.degraded++
	b.mu.Unlock()
}

// BrownoutStats is the ladder's counter snapshot.
type BrownoutStats struct {
	// Level is the current position; Escalations counts upward steps.
	Level       int
	Escalations int64
	// BatchSheds counts batch queries shed at level >= 1; Degraded counts
	// interactive queries served degraded at level 2.
	BatchSheds int64
	Degraded   int64
}

// Stats snapshots the ladder (zero value for a nil controller).
func (b *Brownout) Stats() BrownoutStats {
	if b == nil {
		return BrownoutStats{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return BrownoutStats{Level: b.level, Escalations: b.escalations, BatchSheds: b.batchSheds, Degraded: b.degraded}
}
