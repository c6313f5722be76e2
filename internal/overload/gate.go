package overload

import (
	"context"
	"sync"
	"time"
)

// Gate bounds the HTTP server's in-flight query count with a FIFO
// waiter queue and a Shedder fed the wall-clock wait: requests beyond
// MaxInflight wait their turn, and once the oldest waiter's age has
// exceeded the target continuously for a full interval, new arrivals
// are shed instead of queued. A nil *Gate admits everything
// immediately. Safe for concurrent use.
type Gate struct {
	max  int
	shed *Shedder
	// The shedder's clock is the wall time since epoch.
	epoch time.Time
	now   func() time.Time

	mu       sync.Mutex
	inflight int
	waiters  []*waiter
	admitted int64
}

type waiter struct {
	ready chan struct{}
	since time.Time
}

// DefaultGateTarget is the queue-age shed target when GateConfig leaves
// it zero; the sustain interval defaults to twice the target.
const DefaultGateTarget = 100 * time.Millisecond

// NewGate builds a gate admitting at most max concurrent queries, with
// a CoDel shed rule at target/interval (0 = DefaultGateTarget, 2x
// target). max <= 0 returns nil (unbounded, disabled).
func NewGate(max int, target, interval time.Duration) *Gate {
	if max <= 0 {
		return nil
	}
	if target <= 0 {
		target = DefaultGateTarget
	}
	return &Gate{max: max, shed: NewShedder(target, interval), epoch: time.Now(), now: time.Now}
}

// Enter blocks until a slot is free, the context is done, or the shed
// rule fires. It returns nil on admission (pair with Leave), ErrShed on
// shed, or the context's error. A nil gate admits immediately.
func (g *Gate) Enter(ctx context.Context) error {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	now := g.now()
	// The shedder sees the oldest waiter's age: zero when nobody waits,
	// which ends any overage window.
	age := time.Duration(0)
	if len(g.waiters) > 0 {
		age = now.Sub(g.waiters[0].since)
	}
	if !g.shed.Offer(now.Sub(g.epoch), age) {
		g.mu.Unlock()
		return ErrShed
	}
	if g.inflight < g.max && len(g.waiters) == 0 {
		g.inflight++
		g.admitted++
		g.mu.Unlock()
		return nil
	}
	w := &waiter{ready: make(chan struct{}), since: now}
	g.waiters = append(g.waiters, w)
	g.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
		g.mu.Lock()
		// Either remove ourselves from the queue, or — if Leave already
		// handed us the slot — pass it on.
		select {
		case <-w.ready:
			g.leaveLocked()
			g.mu.Unlock()
			return ctx.Err()
		default:
		}
		for i, q := range g.waiters {
			if q == w {
				g.waiters = append(g.waiters[:i], g.waiters[i+1:]...)
				break
			}
		}
		g.mu.Unlock()
		return ctx.Err()
	}
}

// Leave releases a slot obtained by a successful Enter, handing it to
// the queue head if any.
func (g *Gate) Leave() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.leaveLocked()
	g.mu.Unlock()
}

// leaveLocked frees one slot; caller holds g.mu.
func (g *Gate) leaveLocked() {
	g.inflight--
	if len(g.waiters) > 0 && g.inflight < g.max {
		w := g.waiters[0]
		g.waiters = g.waiters[1:]
		g.inflight++
		g.admitted++
		close(w.ready)
	}
}

// GateStats is the gate's snapshot for /statz.
type GateStats struct {
	// MaxInflight is the configured bound; Inflight and QueueDepth are
	// current occupancy; OldestWait is the head waiter's age.
	MaxInflight int
	Inflight    int
	QueueDepth  int
	OldestWait  time.Duration
	// Admitted and Sheds count gate outcomes since start.
	Admitted int64
	Sheds    int64
}

// Stats snapshots the gate (zero value for a nil gate).
func (g *Gate) Stats() GateStats {
	if g == nil {
		return GateStats{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	st := GateStats{
		MaxInflight: g.max,
		Inflight:    g.inflight,
		QueueDepth:  len(g.waiters),
		Admitted:    g.admitted,
		Sheds:       g.shed.Stats().Sheds,
	}
	if len(g.waiters) > 0 {
		st.OldestWait = g.now().Sub(g.waiters[0].since)
	}
	return st
}
