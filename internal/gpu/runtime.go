// Device runtime: the device as a *shared, timed* resource.
//
// A StreamSet models one query's private view of the device: its clock is
// that query's service time, and two queries' sets know nothing about each
// other. That is faithful to the paper's single-query prototype but
// makes multi-user load invisible — concurrent queries would each see an
// idle device. DeviceRuntime closes the gap: it owns a bounded set of
// simulated compute lanes (hardware stream slots) plus a copy-engine
// queue, tracks every admitted query on one global device timeline, and
// charges each submitted work item its modeled service cost *plus the
// queueing delay* it would have experienced behind work from other
// queries. Per-query simulated latency thereby becomes a function of
// offered load, while a query running alone reproduces the private-
// stream numbers exactly (zero queueing, bit-identical clocks).
package gpu

import (
	"fmt"
	"sync"
	"time"
)

// EngineClass selects which of the device's hardware engines a submitted
// work item occupies. The K20's GK110 exposes dual copy engines (one per
// PCIe direction) alongside the compute engine, so uploads, downloads,
// and kernels all queue independently — in particular, one query's final
// result drain does not stall the next query's list upload.
type EngineClass int

const (
	// CopyEngine serializes host-to-device PCIe traffic (uploads).
	CopyEngine EngineClass = iota
	// CopyOutEngine serializes device-to-host PCIe traffic (downloads,
	// migrations, result drains).
	CopyOutEngine
	// ComputeEngine runs kernels on one of the runtime's bounded compute
	// lanes.
	ComputeEngine
)

// String implements fmt.Stringer.
func (c EngineClass) String() string {
	switch c {
	case CopyEngine:
		return "copy-in"
	case CopyOutEngine:
		return "copy-out"
	default:
		return "compute"
	}
}

// LaneSpan is one work item's occupancy interval on a runtime lane,
// recorded when runtime profiling is enabled. Start/End are points on
// the global device timeline.
type LaneSpan struct {
	Start, End time.Duration
	Query      int64 // admission id of the owning query
}

// lane is one serialized engine queue on the global timeline.
type lane struct {
	busyUntil time.Duration
	spans     []LaneSpan
}

// SubmitHook intercepts work-item submissions on a runtime, seeing the
// engine class and the item's ready position on the global timeline. A
// non-nil error fails the item before it runs or occupies any lane —
// the fault-injection seam (internal/fault wires injected kernel-launch
// failures, transfer errors, and device resets through it). The default
// is nil: un-hooked runtimes pay one pointer test per submission.
type SubmitHook func(class EngineClass, at time.Duration) error

// DeviceRuntime multiplexes one simulated device among concurrent
// queries. All methods are safe for concurrent use.
type DeviceRuntime struct {
	dev     *Device
	streams int
	hook    SubmitHook
	// index is the runtime's device ordinal within its NodeRuntime (0 for
	// a standalone runtime, which is indistinguishable from device 0 of a
	// single-device node).
	index int

	mu      sync.Mutex
	compute []lane
	copyEng [2]lane // [0] host-to-device, [1] device-to-host
	// clock is the runtime's notion of "now" for untimed admissions: it
	// advances to the busy horizon whenever the device goes idle, so a
	// query arriving at an idle device sees zero backlog (contention-free
	// parity), while queries overlapping in wall time share one epoch and
	// contend on the timeline.
	clock  time.Duration
	active int

	admitted    int64
	computeBusy time.Duration
	copyBusy    time.Duration
	waited      time.Duration
	horizon     time.Duration
	profiling   bool
	// batch is the cross-query batching stage (nil = disabled, the
	// pre-batching submission path bit for bit). See batcher.go.
	batch *batcher
}

// NewRuntime returns a runtime over dev with the given number of compute
// lanes (simulated stream slots); streams <= 0 means 1, the K20's single
// compute engine. The dual copy engines are always one queue per PCIe
// direction, as on the GK110.
func NewRuntime(dev *Device, streams int) *DeviceRuntime {
	if streams <= 0 {
		streams = 1
	}
	return &DeviceRuntime{dev: dev, streams: streams, compute: make([]lane, streams)}
}

// Device returns the underlying simulated device.
func (rt *DeviceRuntime) Device() *Device { return rt.dev }

// SetSubmitHook installs (or, with nil, removes) the submission
// interceptor. Install hooks before serving traffic: the hook field is
// read under the runtime lock, but swapping it mid-workload makes the
// modeled timeline depend on the swap's wall-clock timing.
func (rt *DeviceRuntime) SetSubmitHook(h SubmitHook) {
	rt.mu.Lock()
	rt.hook = h
	rt.mu.Unlock()
}

// QueryStream is one admitted query's handle on the runtime: a private
// StreamSet carrying the query's service time plus an anchor placing its
// streams on the global device timeline. Submit work through it; Release
// it when the query completes.
type QueryStream struct {
	rt     *DeviceRuntime
	set    *StreamSet
	id     int64
	anchor time.Duration

	mu       sync.Mutex
	waited   time.Duration
	released bool
}

// Admission parameterizes one query's admission to a device runtime.
// The zero value is the service path (Search, HTTP
// handlers): no explicit arrival, no deadline budget.
type Admission struct {
	// Arrival places the query at an explicit point on the global
	// timeline — the load-study path, where a driver generates simulated
	// (e.g. Poisson) arrivals and executes queries in arrival order.
	// Backlog left by earlier-arriving queries delays this one even
	// though the driver runs queries one at a time in wall clock. It is
	// honoured only when Timed is set: 0 is a valid arrival, not "none".
	Arrival time.Duration
	Timed   bool
	// Budget, when positive, is the caller's remaining deadline budget:
	// the query is rejected (ErrBudget) if the compute backlog it would
	// face plus Est, the caller's cost estimate, already exceeds it.
	Budget time.Duration
	Est    time.Duration
}

// Admit is AdmitWith for the zero Admission.
func (rt *DeviceRuntime) Admit() *QueryStream {
	h, _ := rt.AdmitWith(Admission{}) // only a budgeted admission can be rejected
	return h
}

// AdmitWith registers a query on the runtime. An untimed query arriving
// at an idle device is anchored past all previously accumulated work —
// it sees no backlog — otherwise it joins the in-flight queries' epoch
// and contends with them on the timeline. A timed query is anchored at
// its arrival whatever the wall-clock state of the device. A budget
// rejection does not anchor the query: a rejected timed arrival leaves
// the timeline untouched and is invisible to later queries, a rejected
// untimed one leaves the runtime as an admission to an idle device
// would have found it.
func (rt *DeviceRuntime) AdmitWith(a Admission) (*QueryStream, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	anchor := a.Arrival
	if !a.Timed {
		if rt.active == 0 {
			if rt.horizon > rt.clock {
				rt.clock = rt.horizon
			}
			// The device drained before this query arrived: no prior query's
			// work is still pending, so no open batch may absorb this query's
			// ops. (Timed admissions never flush: their overlap lives on the
			// simulated timeline, not in wall clock.)
			if rt.batch != nil {
				rt.batch.flushAll()
			}
		}
		anchor = rt.clock
	}
	if a.Budget > 0 {
		if backlog := rt.pendingLocked(anchor); backlog+a.Est > a.Budget {
			return nil, fmt.Errorf("backlog %v + est %v > budget %v: %w", backlog, a.Est, a.Budget, ErrBudget)
		}
	}
	if anchor > rt.clock {
		rt.clock = anchor
	}
	rt.admitted++
	rt.active++
	return &QueryStream{rt: rt, set: rt.dev.NewStreamSet(), id: rt.admitted, anchor: anchor}, nil
}

// Release returns the query's slot; the runtime fast-forwards its idle
// clock when the last in-flight query leaves. Releasing twice is a no-op.
func (h *QueryStream) Release() {
	h.mu.Lock()
	if h.released {
		h.mu.Unlock()
		return
	}
	h.released = true
	h.mu.Unlock()
	rt := h.rt
	rt.mu.Lock()
	rt.active--
	rt.mu.Unlock()
}

// Streams returns the query's streams, one per engine: where callers
// record and wait on events between submissions, join, and enable
// profiling.
func (h *QueryStream) Streams() *StreamSet { return h.set }

// Elapsed returns the query's device clock — service time plus queueing
// delay so far, along the critical path through its streams.
func (h *QueryStream) Elapsed() time.Duration { return h.set.Elapsed() }

// Waited returns the total queueing delay charged to this query so far.
func (h *QueryStream) Waited() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.waited
}

// Device returns the ordinal of the device this query was admitted to
// within its node (0 on a standalone runtime) — the id exec operators and
// plan records carry.
func (h *QueryStream) Device() int { return h.rt.index }

// Submit runs one unkeyed work item on the given engine — SubmitOp
// without batch participation (ingest prices its merges with it).
func (h *QueryStream) Submit(class EngineClass, fn func(*Stream) error) error {
	_, err := h.SubmitOp(class, "", fn)
	return err
}

// SubmitOp runs one work item on the given engine, on the query's stream
// for that engine. The item becomes ready at that stream's position on
// the global timeline (anchor + the stream's clock, which the caller has
// already moved past the events of the item's inputs); if the chosen
// engine lane is still busy with other queries' work, the difference is
// charged to the stream as queueing delay *before* fn runs, then fn
// executes on the stream and its service time occupies the lane. fn's
// error is returned unchanged.
//
// key names the item's batch-compatibility class (exec.Op.BatchKey).
// When the runtime's batching stage is enabled and key is non-empty, the
// item is placed into a per-(engine, key) batch whose coalescing window
// covers its ready position and that holds no other op of this query
// (batching is strictly cross-query): the batch leader pays full cost,
// while followers are rebated the fixed component of their charged time
// (launch/DMA overheads) minus the per-member marginal cost —
// their kernels ride the leader's launch. The rebate shrinks both the
// query's stream clock and the lane occupancy, which is where batched
// throughput comes from; results are untouched. An empty key, a disabled
// stage, or a failed item opts out entirely and the returned membership
// is the zero Batched.
//
// The runtime lock is held across fn: work items serialize in wall
// clock (kernels stay internally parallel on the block worker pool),
// which makes admission order — and therefore the whole timeline —
// coherent without reservations.
func (h *QueryStream) SubmitOp(class EngineClass, key string, fn func(*Stream) error) (Batched, error) {
	rt := h.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()

	s := h.set.On(class)
	ready := h.anchor + s.Elapsed()
	if rt.hook != nil {
		if err := rt.hook(class, ready); err != nil {
			return Batched{}, err
		}
	}
	ln := rt.pickLane(class)
	start := ready
	if ln.busyUntil > start {
		start = ln.busyUntil
	}
	if delay := start - ready; delay > 0 {
		s.record("wait", class.String(), 0, s.elapsed, delay)
		s.elapsed += delay
		h.mu.Lock()
		h.waited += delay
		h.mu.Unlock()
		rt.waited += delay
	}

	fixedBefore := s.fixed
	before := s.Elapsed()
	err := fn(s)
	took := s.Elapsed() - before

	var m Batched
	if err == nil && rt.batch != nil && key != "" {
		fixed := s.fixed - fixedBefore
		var rebate time.Duration
		m, rebate = rt.batch.admit(class, key, h.id, ready, fixed, rt.dev.model.BatchMemberOverhead, took)
		if rebate > 0 {
			// Credit the follower's share of the already-paid fixed costs
			// back to its stream (a negative-duration profile event keeps
			// the per-op timeline reconstructible).
			s.record("batch", key, int64(m.Seq), s.elapsed, -rebate)
			s.elapsed -= rebate
			took -= rebate
		}
	}

	end := start + took
	ln.busyUntil = end
	if rt.profiling && took > 0 {
		ln.spans = append(ln.spans, LaneSpan{Start: start, End: end, Query: h.id})
	}
	if class == ComputeEngine {
		rt.computeBusy += took
	} else {
		rt.copyBusy += took
	}
	if end > rt.horizon {
		rt.horizon = end
	}
	return m, err
}

// pickLane selects the least-loaded lane of the class (each copy
// direction is a single queue).
func (rt *DeviceRuntime) pickLane(class EngineClass) *lane {
	switch class {
	case CopyEngine:
		return &rt.copyEng[0]
	case CopyOutEngine:
		return &rt.copyEng[1]
	}
	best := &rt.compute[0]
	for i := 1; i < len(rt.compute); i++ {
		if rt.compute[i].busyUntil < best.busyUntil {
			best = &rt.compute[i]
		}
	}
	return best
}

// PendingTime reports the queueing delay a kernel submitted by this
// query right now would experience: how far past the query's compute
// stream's timeline position the earliest compute lane frees up. Load-aware
// scheduling policies (sched.LoadAwarePolicy) read it to decide whether
// the device is worth waiting for.
func (h *QueryStream) PendingTime() time.Duration {
	rt := h.rt
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ready := h.anchor + h.set.On(ComputeEngine).Elapsed()
	return rt.pendingLocked(ready)
}

// PendingTime reports the compute backlog a query admitted right now
// would face: the earliest compute lane's remaining busy time relative
// to the runtime clock. Zero when the device is idle.
func (rt *DeviceRuntime) PendingTime() time.Duration {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if rt.active == 0 {
		return 0
	}
	return rt.pendingLocked(rt.clock)
}

// PendingAt reports the compute backlog a query arriving at the given
// point on the global timeline (a timed Admission) would face. Unlike
// PendingTime it does not treat an idle device as backlog-free: in
// discrete-event load studies the lanes legitimately hold work scheduled
// past the arrival even when no query is in flight in wall clock, and
// that residual is exactly the queueing delay the arrival would be
// charged.
func (rt *DeviceRuntime) PendingAt(arrival time.Duration) time.Duration {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.pendingLocked(arrival)
}

func (rt *DeviceRuntime) pendingLocked(ready time.Duration) time.Duration {
	minBusy := rt.compute[0].busyUntil
	for i := 1; i < len(rt.compute); i++ {
		if rt.compute[i].busyUntil < minBusy {
			minBusy = rt.compute[i].busyUntil
		}
	}
	if minBusy > ready {
		return minBusy - ready
	}
	return 0
}

// RuntimeStats is a telemetry snapshot of the runtime.
type RuntimeStats struct {
	// Streams is the compute-lane count; Active and Admitted count
	// in-flight and lifetime admitted queries.
	Streams  int
	Active   int
	Admitted int64
	// ComputeBusy and CopyBusy are aggregate engine service time;
	// Waited is total queueing delay charged across all queries.
	ComputeBusy time.Duration
	CopyBusy    time.Duration
	Waited      time.Duration
	// Horizon is the busy frontier of the global timeline; Backlog the
	// current compute backlog (PendingTime).
	Horizon time.Duration
	Backlog time.Duration
	// Utilization is ComputeBusy over the compute lanes' total timeline
	// capacity (Streams x Horizon), in [0,1].
	Utilization float64
	// Reserved is the device memory its live blocks occupy (Device.Reserved).
	Reserved int64
}

// Stats returns a telemetry snapshot.
func (rt *DeviceRuntime) Stats() RuntimeStats {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	st := RuntimeStats{
		Streams:     rt.streams,
		Active:      rt.active,
		Admitted:    rt.admitted,
		ComputeBusy: rt.computeBusy,
		CopyBusy:    rt.copyBusy,
		Waited:      rt.waited,
		Horizon:     rt.horizon,
		Reserved:    rt.dev.Reserved(),
	}
	if rt.active > 0 {
		st.Backlog = rt.pendingLocked(rt.clock)
	}
	if rt.horizon > 0 {
		st.Utilization = float64(rt.computeBusy) / (float64(rt.streams) * float64(rt.horizon))
	}
	return st
}
