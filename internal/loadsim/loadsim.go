// Package loadsim is a discrete-event simulation of Griffin under
// concurrent load — the "complex scenarios under heavy system loads with
// multiple users" the paper leaves as future work (§6).
//
// Queries arrive in a Poisson stream and execute as an alternating
// sequence of resource-bound segments (CPU or GPU), extracted from the
// engine's per-query traces. The host is a k-server resource (the paper's
// Xeon has 4 cores); the device serializes kernels, so it is a single
// server. Each resource serves FCFS. The simulation exposes the system
// effect the hybrid design buys beyond single-query latency: offloading
// the heavy early intersections to the GPU drains the CPU queue, so under
// load Griffin's response times degrade far later than the CPU-only
// configuration's.
package loadsim

import (
	"container/heap"
	"math/rand"
	"time"

	"griffin/internal/core"
	"griffin/internal/sched"
	"griffin/internal/stats"
)

// Resource identifies a simulated execution resource.
type Resource int

const (
	// ResCPU is the k-core host pool.
	ResCPU Resource = iota
	// ResGPU is the single-server device.
	ResGPU
)

// Segment is one resource-bound phase of a query's execution.
type Segment struct {
	Res Resource
	D   time.Duration
}

// SegmentsFromStats converts an engine query trace into the segment
// sequence the simulator replays.
//
// Engine traces carry the full physical-plan record (QueryStats.Plan):
// every executed operator — fetch, upload, decompress, intersect,
// migrate, score, top-k — lands in a segment on the processor it ran on
// (adjacent same-resource operators merge), so the replayed timeline is
// exactly the executor's. Host operators run one after another and add
// up; the device operators between two host phases overlap across the
// copy and compute engines, so their segment is the span they cover on
// the query's timeline (OpRecord.Start), which sums to GPUTime. For
// hand-built stats without a plan, the legacy conversion applies: each
// traced intersection is a segment, and the residual CPU/GPU time forms
// trailing segments.
func SegmentsFromStats(qs core.QueryStats) []Segment {
	var segs []Segment
	var opCPU time.Duration
	push := func(r Resource, d time.Duration) {
		if d <= 0 {
			return
		}
		if n := len(segs); n > 0 && segs[n-1].Res == r {
			segs[n-1].D += d
			return
		}
		segs = append(segs, Segment{Res: r, D: d})
	}
	if len(qs.Plan) > 0 {
		// Operator-trace replay: the plan records account for the query's
		// entire CPU and GPU time, so no residual pushes are needed.
		var from, to time.Duration // span of the current run of device ops
		inRun := false
		endRun := func() {
			if inRun {
				push(ResGPU, to-from)
				inRun = false
			}
		}
		for _, op := range qs.Plan {
			if op.Where != sched.GPU {
				endRun()
				push(ResCPU, op.Took)
				continue
			}
			if !inRun {
				from, to, inRun = op.Start, op.Start, true
			}
			to = max(to, op.Start+op.Took)
		}
		endRun()
		return segs
	}
	for _, op := range qs.Ops {
		if op.Where == sched.GPU {
			push(ResGPU, op.Took)
		} else {
			push(ResCPU, op.Took)
			opCPU += op.Took
		}
	}
	// GPU transfer/migration time not attributed to a traced op rides the
	// GPU resource; ranking and other residual host time rides the CPU.
	var tracedGPU time.Duration
	for _, op := range qs.Ops {
		if op.Where == sched.GPU {
			tracedGPU += op.Took
		}
	}
	push(ResGPU, qs.GPUTime-tracedGPU)
	push(ResCPU, qs.CPUTime-opCPU)
	return segs
}

// Spec parameterizes a simulation run.
type Spec struct {
	// CPUWorkers is the host core count (the paper's testbed: 4).
	CPUWorkers int
	// GPUServers is the device count (default 1; the K20 serializes
	// kernels, so one device is one server). Raising it models the
	// multi-GPU load-balancing extension §3.2 leaves a hook for.
	GPUServers int
	// ArrivalRate is the offered load in queries per second (Poisson).
	ArrivalRate float64
	// Seed drives arrival-time generation.
	Seed int64
	// TolerateFailures makes RunCluster treat an all-shards-failed query
	// as a counted failure (ClusterResult.Failed) instead of aborting the
	// run — the chaos-mode setting, where injected faults are expected to
	// kill some queries outright.
	TolerateFailures bool
}

// Result aggregates a simulation run.
type Result struct {
	// Latencies records per-query response times (sojourn: arrival to
	// completion, including queueing).
	Latencies *stats.LatencyRecorder
	// CPUBusy and GPUBusy are resource utilizations in [0,1].
	CPUBusy float64
	GPUBusy float64
	// Makespan is the simulated time to drain all queries.
	Makespan time.Duration
}

// event is a scheduled simulation occurrence.
type event struct {
	at   time.Duration
	kind int // 0 = arrival, 1 = segment completion
	q    *queryState
}

type eventQueue []event

func (e eventQueue) Len() int           { return len(e) }
func (e eventQueue) Less(i, j int) bool { return e[i].at < e[j].at }
func (e eventQueue) Swap(i, j int)      { e[i], e[j] = e[j], e[i] }
func (e *eventQueue) Push(x any)        { *e = append(*e, x.(event)) }
func (e *eventQueue) Pop() any {
	old := *e
	n := len(old)
	x := old[n-1]
	*e = old[:n-1]
	return x
}

type queryState struct {
	segs    []Segment
	next    int
	arrived time.Duration
	dual    *DualTrace // adaptive mode only: the plan pair to pick from
}

// resource is a k-server FCFS station.
type resource struct {
	free int
	fifo []*queryState
	busy time.Duration // aggregate busy server-time
}

// Run simulates the query traces under the spec and returns response-time
// statistics. Each trace is one query's segment sequence; arrival order
// follows the slice order.
func Run(traces [][]Segment, spec Spec) Result {
	rng := rand.New(rand.NewSource(spec.Seed))
	res := Result{Latencies: stats.NewLatencyRecorder(len(traces))}
	if len(traces) == 0 || spec.ArrivalRate <= 0 || spec.CPUWorkers <= 0 {
		return res
	}

	gpuServers := spec.GPUServers
	if gpuServers <= 0 {
		gpuServers = 1
	}
	cpu := &resource{free: spec.CPUWorkers}
	gpuRes := &resource{free: gpuServers}
	station := func(r Resource) *resource {
		if r == ResGPU {
			return gpuRes
		}
		return cpu
	}

	var eq eventQueue
	t := time.Duration(0)
	for _, segs := range traces {
		// Poisson arrivals: exponential inter-arrival times.
		t += time.Duration(rng.ExpFloat64() / spec.ArrivalRate * float64(time.Second))
		heap.Push(&eq, event{at: t, kind: 0, q: &queryState{segs: segs, arrived: t}})
	}

	var now time.Duration
	start := func(q *queryState, at time.Duration) {
		seg := q.segs[q.next]
		st := station(seg.Res)
		st.free--
		st.busy += seg.D
		heap.Push(&eq, event{at: at + seg.D, kind: 1, q: q})
	}
	request := func(q *queryState, at time.Duration) {
		if q.next >= len(q.segs) {
			res.Latencies.Record(at - q.arrived)
			return
		}
		st := station(q.segs[q.next].Res)
		if st.free > 0 {
			start(q, at)
		} else {
			st.fifo = append(st.fifo, q)
		}
	}

	for eq.Len() > 0 {
		ev := heap.Pop(&eq).(event)
		now = ev.at
		switch ev.kind {
		case 0: // arrival
			request(ev.q, now)
		case 1: // segment completion
			st := station(ev.q.segs[ev.q.next].Res)
			st.free++
			ev.q.next++
			// FCFS: queries already waiting on the freed station are
			// served before the continuing query can re-enter it.
			if len(st.fifo) > 0 {
				nq := st.fifo[0]
				st.fifo = st.fifo[1:]
				start(nq, now)
			}
			request(ev.q, now)
		}
	}
	res.Makespan = now
	if now > 0 {
		res.CPUBusy = float64(cpu.busy) / (float64(now) * float64(spec.CPUWorkers))
		res.GPUBusy = float64(gpuRes.busy) / (float64(now) * float64(gpuServers))
	}
	return res
}

// DualTrace carries one query's execution under both placements, the
// input to the load-aware simulation: the Griffin trace (mixed CPU/GPU
// segments) and the CPU-only fallback trace.
type DualTrace struct {
	Griffin []Segment
	CPUOnly []Segment
}

// RunAdaptive simulates a load-balancing admission policy over dual
// traces: a query arriving while the GPU backlog exceeds gpuQueueLimit
// waiting queries executes its CPU-only plan instead of its Griffin plan.
// This is the scheduler extension the paper sketches in §3.2 ("it could
// be extended to support other features like load balancing"): placement
// decisions consult system load, not just the query's own characteristics.
func RunAdaptive(traces []DualTrace, spec Spec, gpuQueueLimit int) Result {
	rng := rand.New(rand.NewSource(spec.Seed))
	res := Result{Latencies: stats.NewLatencyRecorder(len(traces))}
	if len(traces) == 0 || spec.ArrivalRate <= 0 || spec.CPUWorkers <= 0 {
		return res
	}
	gpuServers := spec.GPUServers
	if gpuServers <= 0 {
		gpuServers = 1
	}
	cpu := &resource{free: spec.CPUWorkers}
	gpuRes := &resource{free: gpuServers}
	station := func(r Resource) *resource {
		if r == ResGPU {
			return gpuRes
		}
		return cpu
	}

	var eq eventQueue
	t := time.Duration(0)
	pending := make([]*DualTrace, len(traces))
	for i := range traces {
		t += time.Duration(rng.ExpFloat64() / spec.ArrivalRate * float64(time.Second))
		q := &queryState{arrived: t}
		pending[i] = &traces[i]
		heap.Push(&eq, event{at: t, kind: 0, q: q})
		q.segs = nil // chosen at arrival
		q.dual = pending[i]
	}

	var now time.Duration
	start := func(q *queryState, at time.Duration) {
		seg := q.segs[q.next]
		st := station(seg.Res)
		st.free--
		st.busy += seg.D
		heap.Push(&eq, event{at: at + seg.D, kind: 1, q: q})
	}
	request := func(q *queryState, at time.Duration) {
		if q.next >= len(q.segs) {
			res.Latencies.Record(at - q.arrived)
			return
		}
		st := station(q.segs[q.next].Res)
		if st.free > 0 {
			start(q, at)
		} else {
			st.fifo = append(st.fifo, q)
		}
	}

	for eq.Len() > 0 {
		ev := heap.Pop(&eq).(event)
		now = ev.at
		switch ev.kind {
		case 0: // arrival: choose the plan by instantaneous GPU backlog
			if len(gpuRes.fifo) > gpuQueueLimit {
				ev.q.segs = ev.q.dual.CPUOnly
			} else {
				ev.q.segs = ev.q.dual.Griffin
			}
			request(ev.q, now)
		case 1:
			st := station(ev.q.segs[ev.q.next].Res)
			st.free++
			ev.q.next++
			if len(st.fifo) > 0 {
				nq := st.fifo[0]
				st.fifo = st.fifo[1:]
				start(nq, now)
			}
			request(ev.q, now)
		}
	}
	res.Makespan = now
	if now > 0 {
		res.CPUBusy = float64(cpu.busy) / (float64(now) * float64(spec.CPUWorkers))
		res.GPUBusy = float64(gpuRes.busy) / (float64(now) * float64(gpuServers))
	}
	return res
}
