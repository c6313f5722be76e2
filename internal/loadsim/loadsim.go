// Package loadsim puts Griffin under concurrent load — the "complex
// scenarios under heavy system loads with multiple users" the paper leaves
// as future work (§6). One Poisson arrival process feeds two evaluators.
//
// Replay is an abstract queueing model: queries execute as an alternating
// sequence of resource-bound segments (CPU or GPU), extracted from the
// engine's per-query traces. The host is a k-server resource (the paper's
// Xeon has 4 cores); the device serializes kernels, so it is a single
// server. Each resource serves FCFS. The simulation exposes the system
// effect the hybrid design buys beyond single-query latency: offloading
// the heavy early intersections to the GPU drains the CPU queue, so under
// load Griffin's response times degrade far later than the CPU-only
// configuration's.
//
// Drive runs the *real* system — an engine, a sharded cluster, or a live
// engine taking writes — admitting each query at its generated arrival
// time on the shared device runtimes, so queueing, self-healing, overload
// control and merge interference are the implementation's own.
package loadsim

import (
	"time"

	"griffin/internal/core"
	"griffin/internal/sched"
	"griffin/internal/stats"
	"griffin/internal/wal"
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
// Every executed query carries its full physical-plan record
// (QueryStats.Plan): each operator — fetch, upload, decompress,
// intersect, migrate, score, top-k — lands in a segment on the processor
// it ran on (adjacent same-resource operators merge), so the replayed
// timeline is exactly the executor's. Host operators run one after
// another and add up; the device operators between two host phases
// overlap across the copy and compute engines, so their segment is the
// span they cover on the query's timeline (OpRecord.Start), which sums to
// GPUTime.
func SegmentsFromStats(qs core.QueryStats) []Segment {
	var segs []Segment
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

// Mutation is one scripted write. Scripts are consumed in order, so a
// script that is valid sequentially (no update before its add, no double
// delete) stays valid under any interleaving Drive chooses.
type Mutation struct {
	Op     wal.Op
	DocID  uint32
	Tokens []string
}

// Spec parameterizes a run. Replay reads the arrival process and the two
// server counts; Drive reads the arrival process and everything below it.
type Spec struct {
	// CPUWorkers is the host core count (the paper's testbed: 4).
	CPUWorkers int
	// GPUServers is the device count (default 1; the K20 serializes
	// kernels, so one device is one server). Raising it models the
	// multi-GPU load-balancing extension §3.2 leaves a hook for.
	GPUServers int
	// ArrivalRate is the offered load in operations per second (Poisson):
	// queries, plus writes while Mutations remain.
	ArrivalRate float64
	// Seed drives arrival times and the write and class coins. Nothing a
	// target does consumes it, so runs that share a seed and differ only
	// in Merge, PropagateDeadline or the target replay one interleaving.
	Seed int64
	// Deadline is the per-query latency budget every answer is scored
	// against (0 = none); with PropagateDeadline it is also enforced: the
	// deadline and the class travel with the query into the target,
	// activating a cluster's overload controls. Flipping it gives the
	// overload study's two arms.
	Deadline          time.Duration
	PropagateDeadline bool
	// BatchFraction is the probability a query is tagged Batch. At zero
	// no class coin is drawn and every query tallies as interactive.
	BatchFraction float64
	// Mutations is the write script and WriteFraction the probability an
	// arrival is a write while scripted mutations remain; once the script
	// is exhausted every arrival is a read. Only a Writer target takes
	// writes.
	Mutations     []Mutation
	WriteFraction float64
	// Merge enables threshold merging: whenever a write leaves a merge
	// due, it is run at the current modeled time so its re-encoding work
	// contends with queries on the shared device. With Merge false the
	// delta grows unboundedly and every read pays the widening reconcile
	// cost — the no-merge control arm.
	Merge bool
}

// ClassOutcome aggregates one criticality class's outcomes.
type ClassOutcome struct {
	// Queries is the class's total offered queries; Good those answered
	// complete (no missing shards) within the deadline — the goodput
	// numerator. A brownout-degraded answer (reduced top-k on the CPU
	// path) still counts as good when timely: every shard contributed.
	Queries int
	Good    int
	// DeadlineMisses counts complete answers that landed past the
	// deadline; Degraded answers missing shards; Shed queries refused by
	// overload control (admission shed, batch brownout, infeasible
	// deadline); Failed queries with no answer at all.
	DeadlineMisses int
	Degraded       int
	Shed           int
	Failed         int
}

// Goodput is Good over Queries (1.0 for an empty class).
func (c ClassOutcome) Goodput() float64 {
	if c.Queries == 0 {
		return 1
	}
	return float64(c.Good) / float64(c.Queries)
}

// Result aggregates a run. Replay fills the first four fields; Drive
// everything but CPUBusy (it contends only the devices).
type Result struct {
	// Latencies records answered queries' response times (sojourn:
	// arrival to completion, including queueing).
	Latencies *stats.LatencyRecorder
	// CPUBusy and GPUBusy are resource utilizations in [0,1]; for Drive,
	// GPUBusy is the target's busiest-device view.
	CPUBusy float64
	GPUBusy float64
	// Makespan is the simulated time to drain all queries.
	Makespan time.Duration
	// Interactive and Batch tally every offered query by class.
	Interactive ClassOutcome
	Batch       ClassOutcome
	// Retries, Hedges, HedgeSkips and Fallbacks total a cluster's
	// self-healing actions (sibling retries, hedged sub-queries, hedges
	// the budget or brownout suppressed, CPU-fallback sub-queries);
	// BrownoutDegraded counts queries served through the brownout CPU
	// path.
	Retries          int
	Hedges           int
	HedgeSkips       int
	Fallbacks        int
	BrownoutDegraded int
	// MaxShardMean and MergeMean decompose the mean latency into the
	// critical-path shard and the gather-side merge, verifying the
	// cluster's latency model under load: Latency = MaxShard + Merge for
	// every query, so the means decompose the same way.
	MaxShardMean time.Duration
	MergeMean    time.Duration
	// Writes counts applied mutations; DeltaPeak is the largest delta
	// (records) observed after a write — the freshness-lag high-water
	// mark.
	Writes    int
	DeltaPeak int
}

// Available returns the fraction of offered queries answered completely —
// not failed, not shed, not missing a shard. The chaos and ingest
// studies' availability metric (1.0 for a run with no queries).
func (r Result) Available() float64 {
	q := r.Interactive.Queries + r.Batch.Queries
	if q == 0 {
		return 1
	}
	complete := r.Interactive.Good + r.Interactive.DeadlineMisses + r.Batch.Good + r.Batch.DeadlineMisses
	return float64(complete) / float64(q)
}
