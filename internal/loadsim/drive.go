package loadsim

import (
	"context"
	"errors"
	"math/rand"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/gpu"
	"griffin/internal/ingest"
	"griffin/internal/overload"
	"griffin/internal/stats"
)

// Outcome is what one timed query reports to Drive: the execution record
// of an answer (an engine fills only Latency), or one of the refusals a
// target counts instead of failing the run on — Shed, an overload-control
// refusal, which is the control system working; Failed, a query that got
// no answer at all.
type Outcome struct {
	cluster.Stats
	Shed   bool
	Failed bool
}

// Target is a system Drive can offer load to. It should be dedicated to
// the run: a shared device runtime would mix foreign backlog into the
// measurement.
type Target interface {
	// Query admits terms at arrival on the target's device timelines (a
	// timed request) and runs it to completion. A returned error aborts
	// the run; refusals the run should count come back as an Outcome.
	Query(terms []string, arrival time.Duration, opts cluster.QueryOpts) (Outcome, error)
	// Utilization is the busiest device's busy fraction so far: in a
	// scatter-gather tier the hottest shard bounds throughput.
	Utilization() float64
}

// Writer is a Target that takes writes: a live engine.
type Writer interface {
	Target
	// Apply applies one scripted mutation and reports the delta's size
	// after it. With merge set, a merge the write left due is run at
	// time at, priced on the same device timelines queries use.
	Apply(m Mutation, at time.Duration, merge bool) (deltaDocs int, err error)
}

// Drive offers a Poisson stream of queries — and, to a Writer with a
// mutation script, writes — to the real system, instead of replaying
// extracted segment traces: each query is admitted at its generated
// arrival time, executes its actual plan, and pays modeled queueing delay
// behind the device backlog earlier arrivals (and merges) left. Because
// the runtimes' engine queues serve FCFS and operations are issued in
// arrival order, sequential wall-clock execution is a faithful
// discrete-event evaluation of the contended timeline.
//
// Where Replay models both resources as queues, Drive contends only the
// devices (the host is per-query service time): it isolates the GPU-side
// effect the shared runtime models. Every answer is scored against
// spec.Deadline; the run ends when the query log is exhausted.
//
// The coin flips are part of the arrival process: after each exponential
// gap the write coin is drawn only while scripted mutations remain for a
// Writer (whatever WriteFraction is), then the class coin only when
// BatchFraction > 0. Arms of one study rely on drawing identically.
func Drive(target Target, queries [][]string, spec Spec) (Result, error) {
	rng := rand.New(rand.NewSource(spec.Seed))
	res := Result{Latencies: stats.NewLatencyRecorder(len(queries))}
	if len(queries) == 0 || spec.ArrivalRate <= 0 {
		return res, nil
	}
	muts := spec.Mutations
	writer, _ := target.(Writer)
	if writer == nil {
		muts = nil
	}
	var t, maxShardSum, mergeSum time.Duration
	for qi := 0; qi < len(queries); {
		t += time.Duration(rng.ExpFloat64() / spec.ArrivalRate * float64(time.Second))
		if len(muts) > 0 && rng.Float64() < spec.WriteFraction {
			delta, err := writer.Apply(muts[0], t, spec.Merge)
			if err != nil {
				return res, err
			}
			muts = muts[1:]
			res.Writes++
			if delta > res.DeltaPeak {
				res.DeltaPeak = delta
			}
			continue
		}
		batch := spec.BatchFraction > 0 && rng.Float64() < spec.BatchFraction
		tally := &res.Interactive
		if batch {
			tally = &res.Batch
		}
		var opts cluster.QueryOpts
		if spec.PropagateDeadline {
			opts.Deadline = spec.Deadline
			if batch {
				opts.Class = overload.Batch
			}
		}
		tally.Queries++
		out, err := target.Query(queries[qi], t, opts)
		qi++
		switch {
		case err != nil:
			return res, err
		case out.Shed:
			tally.Shed++
			continue
		case out.Failed:
			tally.Failed++
			continue
		}

		res.Latencies.Record(out.Latency)
		if end := t + out.Latency; end > res.Makespan {
			res.Makespan = end
		}
		maxShardSum += out.MaxShard
		mergeSum += out.MergeTime
		res.Retries += out.Retries
		res.Hedges += out.Hedges
		res.HedgeSkips += out.HedgeSkips
		res.Fallbacks += out.Fallbacks
		if out.ForcedCPU {
			res.BrownoutDegraded++
		}
		switch {
		case out.Degraded:
			tally.Degraded++
		case spec.Deadline > 0 && out.Latency > spec.Deadline:
			tally.DeadlineMisses++
		default:
			tally.Good++
		}
	}
	if n := res.Latencies.Count(); n > 0 {
		res.MaxShardMean = maxShardSum / time.Duration(n)
		res.MergeMean = mergeSum / time.Duration(n)
	}
	res.GPUBusy = target.Utilization()
	return res, nil
}

// engineTarget drives one engine; any error aborts the run.
type engineTarget struct{ e *core.Engine }

// EngineTarget adapts an engine for Drive.
func EngineTarget(e *core.Engine) Target { return engineTarget{e} }

func (t engineTarget) Query(terms []string, arrival time.Duration, _ cluster.QueryOpts) (Outcome, error) {
	r, err := t.e.Query(context.Background(), core.Request{Terms: terms, Arrival: arrival, Timed: true})
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Stats: cluster.Stats{Latency: r.Stats.Latency}}, nil
}

// Utilization is node-level: busy time over capacity summed across every
// device, so a multi-GPU engine with one hot device and idle siblings
// reads as underutilized rather than saturated. Identical to the
// device-0 view at devices=1.
func (t engineTarget) Utilization() float64 { return nodeUtilization(t.e.Node()) }

func nodeUtilization(node *gpu.NodeRuntime) float64 {
	if node == nil {
		return 0
	}
	return node.Utilization()
}

// clusterTarget drives a sharded cluster: every shard replica's device
// timeline sees the arrival, so a shard still carrying backlog delays the
// queries routed to it and, through the max-over-shards critical path,
// the whole response. Latencies are sojourns of that critical path:
// slowest awaited shard plus merge.
type clusterTarget struct{ cl *cluster.Cluster }

// ClusterTarget adapts a cluster for Drive. Overload refusals count as
// sheds; a query that lost every shard counts as failed when the cluster
// was built to expect losses (a fault plan, or overload control rejecting
// device work) and aborts the run otherwise.
func ClusterTarget(cl *cluster.Cluster) Target { return clusterTarget{cl} }

func (t clusterTarget) Query(terms []string, arrival time.Duration, opts cluster.QueryOpts) (Outcome, error) {
	r, err := t.cl.Query(context.Background(), cluster.Request{Terms: terms, Arrival: arrival, Timed: true, QueryOpts: opts})
	switch {
	case err == nil:
	case overload.IsOverload(err):
		return Outcome{Shed: true}, nil
	case errors.Is(err, cluster.ErrAllShardsFailed) && (t.cl.Injector() != nil || t.cl.OverloadEnabled()):
		return Outcome{Failed: true}, nil
	default:
		return Outcome{}, err
	}
	return Outcome{Stats: r.Stats}, nil
}

func (t clusterTarget) Utilization() float64 {
	var busiest float64
	for _, row := range t.cl.Telemetry() {
		if row.Device != nil && row.Device.Utilization > busiest {
			busiest = row.Device.Utilization
		}
	}
	return busiest
}

// liveTarget drives a live engine under mixed reads and writes. A read
// error counts as a failed query rather than aborting the run, so
// availability under injected merge faults is measurable.
type liveTarget struct{ e *ingest.Engine }

// LiveTarget adapts a live engine for Drive.
func LiveTarget(e *ingest.Engine) Writer { return liveTarget{e} }

func (t liveTarget) Query(terms []string, arrival time.Duration, _ cluster.QueryOpts) (Outcome, error) {
	r, err := t.e.Query(context.Background(), cluster.Request{Terms: terms, Arrival: arrival, Timed: true})
	if err != nil {
		return Outcome{Failed: true}, nil
	}
	return Outcome{Stats: r.Stats}, nil
}

func (t liveTarget) Utilization() float64 { return nodeUtilization(t.e.Cluster().ShardNode(0)) }

func (t liveTarget) Apply(m Mutation, at time.Duration, merge bool) (int, error) {
	if err := t.e.Apply(m.Op, m.DocID, m.Tokens); err != nil {
		return 0, err
	}
	delta := t.e.Stats().DeltaDocs
	if merge && t.e.NeedsMerge() {
		return delta, t.e.MergeAt(at)
	}
	return delta, nil
}
