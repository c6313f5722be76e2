package loadsim

import (
	"container/heap"
	"math"
	"math/rand"
	"time"

	"griffin/internal/stats"
)

// Plan is one query as Replay executes it: the segment sequence it runs
// and, for the load-aware policy, the CPU-only sequence it takes instead
// when it arrives behind a long device queue (nil: it never spills).
type Plan struct {
	Segments []Segment
	Spill    []Segment
}

// NoSpill is the gpuQueueLimit no device queue exceeds: every query runs
// its own segments, whatever the load.
const NoSpill = math.MaxInt

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
	plan    *Plan
	segs    []Segment // chosen at arrival
	next    int
	arrived time.Duration
}

// resource is a k-server FCFS station.
type resource struct {
	free int
	fifo []*queryState
	busy time.Duration // aggregate busy server-time
}

// Replay simulates the plans under the spec's Poisson arrivals and
// returns response-time statistics; arrival order follows the slice
// order. A query arriving while more than gpuQueueLimit queries wait on
// the device executes its Spill plan instead of its own segments — the
// load-balancing admission policy the paper sketches in §3.2 ("it could
// be extended to support other features like load balancing"): placement
// decisions consult system load, not just the query's own
// characteristics. NoSpill replays every query as traced.
func Replay(plans []Plan, spec Spec, gpuQueueLimit int) Result {
	rng := rand.New(rand.NewSource(spec.Seed))
	res := Result{Latencies: stats.NewLatencyRecorder(len(plans))}
	if len(plans) == 0 || spec.ArrivalRate <= 0 || spec.CPUWorkers <= 0 {
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
	for i := range plans {
		// Poisson arrivals: exponential inter-arrival times.
		t += time.Duration(rng.ExpFloat64() / spec.ArrivalRate * float64(time.Second))
		heap.Push(&eq, event{at: t, kind: 0, q: &queryState{plan: &plans[i], arrived: t}})
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
			ev.q.segs = ev.q.plan.Segments
			if len(gpuRes.fifo) > gpuQueueLimit && ev.q.plan.Spill != nil {
				ev.q.segs = ev.q.plan.Spill
			}
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
