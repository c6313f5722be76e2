package cluster

import (
	"context"
	"sort"
	"sync/atomic"
	"time"

	"griffin/internal/core"
	"griffin/internal/fault"
	"griffin/internal/overload"
)

// Routing selects how a shard group picks the replica for one sub-query.
type Routing int

const (
	// RoundRobin rotates through the replicas — the oblivious baseline.
	RoundRobin Routing = iota
	// LeastPending routes to the replica whose device reports the
	// smallest compute backlog — the same sched.DeviceBacklog signal the
	// engine's load-aware spill policy consults, reused one level up:
	// instead of spilling an intersection from a busy device to the CPU,
	// the router steers the whole sub-query to a less busy device.
	// In-flight sub-query counts break ties (and stand in for the signal
	// entirely on CPU-only replicas, which have no device runtime).
	//
	// A device mid-reset is a trap for this policy: its queues are empty
	// precisely because it is down, so raw backlog makes it look like the
	// best destination. The router therefore adds the remaining reset
	// window (fault.Injector.ResetRemaining) to the backlog signal, and
	// pick skips replicas whose circuit breaker refuses traffic outright.
	LeastPending
)

// String implements fmt.Stringer.
func (r Routing) String() string {
	if r == LeastPending {
		return "least-pending"
	}
	return "round-robin"
}

// engineRef is one refcounted engine incarnation of a replica. Live
// index swaps (ReplaceShard) publish a successor and drop the current
// reference; the engine closes — releasing its device-resident caches —
// when the last in-flight sub-query pinning it finishes.
type engineRef struct {
	eng  *core.Engine
	refs atomic.Int64
}

func (er *engineRef) release() {
	if er.refs.Add(-1) == 0 {
		er.eng.Close()
	}
}

// replica is one engine serving a shard.
type replica struct {
	// cur is the serving engine, swapped atomically by ReplaceShard.
	cur atomic.Pointer[engineRef]
	// site names this replica at fault-injection points ("s2r1").
	site string
	// breaker gates traffic to the replica; never nil.
	breaker *fault.Breaker
	// inj is the cluster's fault injector (nil when faults are off);
	// the replica reads it for the mid-reset routing signal.
	inj *fault.Injector
	// shed is the replica's CoDel admission shedder (nil = admit all):
	// sub-queries offered while the replica's backlog has exceeded the
	// target for a sustained interval are refused instead of queued.
	shed *overload.Shedder

	inflight atomic.Int64
	served   atomic.Int64
}

func newReplica(eng *core.Engine, site string, breaker *fault.Breaker, inj *fault.Injector) *replica {
	r := &replica{site: site, breaker: breaker, inj: inj}
	er := &engineRef{eng: eng}
	er.refs.Store(1) // the "current" reference, dropped on swap/close
	r.cur.Store(er)
	return r
}

// engine returns the current serving engine without pinning it — the
// telemetry read path, safe for state that tolerates a concurrent swap.
// Sub-queries go through acquire instead.
func (r *replica) engine() *core.Engine { return r.cur.Load().eng }

// acquire pins the current engine incarnation for one sub-query; nil
// once the replica is closed.
func (r *replica) acquire() *engineRef {
	for {
		er := r.cur.Load()
		if er.refs.Add(1) <= 1 {
			// Fully drained already: undo, and retry if it was swapped
			// out — a swap publishes the successor before it drains the
			// predecessor, so a drained current one was closed.
			er.refs.Add(-1)
			if r.cur.Load() == er {
				return nil
			}
			continue
		}
		if r.cur.Load() == er {
			return er
		}
		er.release()
	}
}

// swap publishes a successor engine; the predecessor retires when its
// last in-flight sub-query finishes.
func (r *replica) swap(eng *core.Engine) {
	er := &engineRef{eng: eng}
	er.refs.Store(1)
	old := r.cur.Swap(er)
	old.release()
}

// close drops the current reference (cluster shutdown).
func (r *replica) close() {
	r.cur.Load().release()
}

// queueDelay returns the replica's routing signal: the least-loaded
// device's pending compute time (the node-level sched.DeviceBacklog
// view) plus that device's remaining injected reset window, or just the
// reset window for CPU-only replicas. A multi-device replica is as
// attractive as its best device — a new sub-query would be placed there
// — and each device's reset window is charged at its own fault site, so
// one resetting GPU of a node does not poison routing to its healthy
// siblings. Discrete-event (timed) queries measure the lanes' residual
// work at their arrival point (PendingAt) — an idle-in-wall-clock device
// still charges the backlog scheduled past the arrival — while
// service-path queries use the live PendingTime signal. The overload
// controls (CoDel shedder, brownout pressure) consult this too, so
// sequential load studies see the same queueing delay the device
// timeline will actually charge.
func (r *replica) queueDelay(now time.Duration, timed bool) time.Duration {
	node := r.engine().Node()
	if node == nil {
		return r.inj.ResetRemaining(r.site, now)
	}
	devices := node.Devices()
	var best time.Duration
	for d := 0; d < devices; d++ {
		var b time.Duration
		if timed {
			b = node.Runtime(d).PendingAt(now)
		} else {
			b = node.Runtime(d).PendingTime()
		}
		b += r.inj.ResetRemaining(fault.DeviceSite(r.site, d, devices), now)
		if d == 0 || b < best {
			best = b
		}
	}
	return best
}

// search runs one sub-query, tracking in-flight and served counters for
// the router and telemetry. The engine incarnation is pinned for the
// query's whole execution: a concurrent index swap never tears a result.
// Budget rejections surface as gpu.ErrBudget.
func (r *replica) search(ctx context.Context, req core.Request) (*core.Result, error) {
	r.inflight.Add(1)
	defer r.inflight.Add(-1)
	r.served.Add(1)
	er := r.acquire()
	if er == nil {
		// A straggler of a query that returned before the cluster closed.
		return nil, errClosed
	}
	defer er.release()
	return er.eng.Query(ctx, req)
}

// shardGroup is one shard's replica set.
type shardGroup struct {
	id       int
	rr       atomic.Int64
	replicas []*replica
	// budget is the shard's retry/hedge token bucket (nil = unbudgeted):
	// primary admissions earn tokens, sibling retries and hedges spend
	// them. Per-shard rather than cluster-wide so a sequential workload's
	// token accounting is independent of shard-goroutine interleaving.
	budget *overload.Budget
}

// pick selects a replica under the routing policy at modeled time now,
// returning its index and the replica. Replicas whose circuit breaker
// refuses traffic are skipped; when every breaker refuses, pick fails
// open and routes as if all were admissible (availability over purity —
// a wrong guess degrades, refusing outright fails).
func (g *shardGroup) pick(routing Routing, now time.Duration, timed bool) (int, *replica) {
	return g.pickExcluding(routing, now, timed, -1)
}

// pickExcluding is pick with one replica index barred — the sibling
// selection for retries and hedges (exclude < 0 bars nothing).
//
// Candidacy is decided with the non-mutating breaker State (anything not
// Open may serve), then candidates are tried in the routing policy's
// preference order with the mutating Allow — which, on a HalfOpen
// breaker, reserves the probe slot for the replica actually being
// dispatched to. This ordering matters: calling Allow on every candidate
// up front would reserve probe slots on replicas that are never picked,
// wedging their breakers HalfOpen with no one to Record an outcome.
func (g *shardGroup) pickExcluding(routing Routing, now time.Duration, timed bool, exclude int) (int, *replica) {
	if len(g.replicas) == 1 {
		return 0, g.replicas[0]
	}
	candidates := make([]int, 0, len(g.replicas))
	for i := range g.replicas {
		if i != exclude && g.replicas[i].breaker.State(now) != fault.Open {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) > 0 {
		for _, i := range g.order(routing, now, timed, candidates) {
			if g.replicas[i].breaker.Allow(now) {
				return i, g.replicas[i]
			}
		}
	}
	// Fail open: every breaker refused (or only the excluded replica
	// remained). Route over the full set minus the exclusion without
	// reserving anything — availability over purity: a wrong guess
	// degrades, refusing outright fails.
	candidates = candidates[:0]
	for i := range g.replicas {
		if i != exclude {
			candidates = append(candidates, i)
		}
	}
	if len(candidates) == 0 {
		return exclude, g.replicas[exclude]
	}
	i := g.order(routing, now, timed, candidates)[0]
	return i, g.replicas[i]
}

// order arranges candidate indices in the routing policy's preference
// order: backlog-ascending (in-flight tiebreak) for LeastPending, the
// rotation for RoundRobin. One rr tick is consumed per call, exactly as
// the pre-ordering picker consumed one per pick.
func (g *shardGroup) order(routing Routing, now time.Duration, timed bool, candidates []int) []int {
	if routing == LeastPending {
		type load struct {
			backlog  time.Duration
			inflight int64
		}
		// Timed queries rank replicas by the backlog at the arrival point
		// (PendingAt): a sequential timed load study would otherwise see
		// every wall-clock-idle replica as empty and pile the whole run
		// onto the first one while its siblings idle.
		loads := make(map[int]load, len(candidates))
		for _, i := range candidates {
			loads[i] = load{g.replicas[i].queueDelay(now, timed), g.replicas[i].inflight.Load()}
		}
		ordered := append([]int(nil), candidates...)
		sort.SliceStable(ordered, func(a, b int) bool {
			la, lb := loads[ordered[a]], loads[ordered[b]]
			if la.backlog != lb.backlog {
				return la.backlog < lb.backlog
			}
			return la.inflight < lb.inflight
		})
		return ordered
	}
	start := int((g.rr.Add(1) - 1) % int64(len(candidates)))
	ordered := make([]int, 0, len(candidates))
	for k := 0; k < len(candidates); k++ {
		ordered = append(ordered, candidates[(start+k)%len(candidates)])
	}
	return ordered
}
