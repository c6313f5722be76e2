package fault

import (
	"sync"
	"time"
)

// BreakerState is a circuit breaker's position.
type BreakerState uint8

const (
	// Closed: traffic flows; failures are counted.
	Closed BreakerState = iota
	// Open: traffic is refused until the cooldown expires.
	Open
	// HalfOpen: one probe request at a time is admitted; its success
	// re-closes the breaker, its failure re-opens it.
	HalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	default:
		return "half-open"
	}
}

// BreakerConfig tunes one replica's circuit breaker. The zero value
// selects defaults (Threshold 3, Cooldown 5ms); Threshold < 0 disables
// the breaker entirely (Allow always true). A half-open breaker admits
// one probe at a time, and one probe success re-closes it.
type BreakerConfig struct {
	// Threshold is the consecutive-failure count that trips the breaker.
	Threshold int
	// Cooldown is how long (in the cluster's modeled time) the breaker
	// stays Open before admitting half-open probes.
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.Threshold == 0 {
		c.Threshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Millisecond
	}
	return c
}

// Breaker is a per-replica circuit breaker over the cluster's modeled
// timeline: "now" is a time.Duration the caller supplies (a query
// arrival time), not the wall clock, so breaker trips and recoveries are
// as deterministic as the workload that drives them. Safe for
// concurrent use.
type Breaker struct {
	cfg BreakerConfig

	mu        sync.Mutex
	state     BreakerState
	strikes   int  // consecutive failures while Closed
	probing   bool // the probe slot is reserved while HalfOpen
	openUntil time.Duration
	trips     int64
}

// NewBreaker returns a breaker with cfg's defaults applied.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// Disabled reports whether the breaker is configured off.
func (b *Breaker) Disabled() bool { return b.cfg.Threshold < 0 }

// Allow reports whether a request may proceed at modeled time now. An
// Open breaker whose cooldown has expired transitions to HalfOpen and
// admits the probe. A HalfOpen breaker reserves its one probe slot per
// admission — two concurrent callers cannot both be admitted as *the*
// probe. Each admitted probe must settle its reservation with Record (an
// outcome) or Cancel (the attempt never executed).
func (b *Breaker) Allow(now time.Duration) bool {
	if b.Disabled() {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		return true
	case Open:
		if now >= b.openUntil {
			b.state = HalfOpen
			b.probing = true
			return true
		}
		return false
	default: // HalfOpen: admit one outstanding probe
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// Cancel releases a probe slot reserved by Allow when the admitted
// attempt never executed (e.g. shed upstream before reaching the
// replica), so an unused reservation cannot wedge a HalfOpen breaker.
// No-op in any other state.
func (b *Breaker) Cancel() {
	if b.Disabled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == HalfOpen {
		b.probing = false
	}
}

// Record reports one request outcome at modeled time now. Failures
// accumulate toward the trip threshold (Closed) or re-open immediately
// (HalfOpen); successes reset the strike count or, from a probe,
// re-close the breaker.
func (b *Breaker) Record(now time.Duration, ok bool) {
	if b.Disabled() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case Closed:
		if ok {
			b.strikes = 0
			return
		}
		b.strikes++
		if b.strikes >= b.cfg.Threshold {
			b.trip(now)
		}
	case Open:
		// A straggler finishing after the trip; ignore.
	case HalfOpen:
		b.probing = false
		if !ok {
			b.trip(now)
			return
		}
		b.state = Closed
		b.strikes = 0
	}
}

// trip opens the breaker. Caller holds b.mu.
func (b *Breaker) trip(now time.Duration) {
	b.state = Open
	b.openUntil = now + b.cfg.Cooldown
	b.strikes = 0
	b.probing = false
	b.trips++
}

// State returns the breaker's position at modeled time now (an Open
// breaker past its cooldown reports HalfOpen without mutating).
func (b *Breaker) State(now time.Duration) BreakerState {
	if b.Disabled() {
		return Closed
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && now >= b.openUntil {
		return HalfOpen
	}
	return b.state
}

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
