package loadsim

import (
	"context"
	"math/rand"
	"time"

	"griffin/internal/core"
	"griffin/internal/stats"
)

// RunEngine drives the *real* engine under Poisson load through its
// shared device runtime, instead of replaying extracted segment traces:
// each query is admitted at its generated arrival time (a timed
// core.Request),
// executes its actual plan, and pays modeled queueing delay behind the
// device backlog earlier arrivals left. Because the runtime's engine
// queues serve FCFS and queries are driven in arrival order, sequential
// wall-clock execution is a faithful discrete-event evaluation of the
// contended timeline.
//
// Where Run models both resources as queues, RunEngine contends only
// the device (the host is per-query service time): it isolates the
// GPU-side effect the shared runtime models — and the one the
// load-aware policy (core.Config.SpillBacklog) reacts to. Keep using
// the trace-replay simulators for dual-resource studies; RunEngine
// validates that the promoted policy behaves the same inside the real
// engine.
//
// The engine should be dedicated to the run (a shared runtime would mix
// foreign backlog into the measurement). Latencies are sojourn times:
// arrival to completion, queueing included.
func RunEngine(e *core.Engine, queries [][]string, spec Spec) (Result, error) {
	rng := rand.New(rand.NewSource(spec.Seed))
	res := Result{Latencies: stats.NewLatencyRecorder(len(queries))}
	if len(queries) == 0 || spec.ArrivalRate <= 0 {
		return res, nil
	}
	var t time.Duration
	for _, q := range queries {
		t += time.Duration(rng.ExpFloat64() / spec.ArrivalRate * float64(time.Second))
		r, err := e.Query(context.Background(), core.Request{Terms: q, Arrival: t, Timed: true})
		if err != nil {
			return res, err
		}
		res.Latencies.Record(r.Stats.Latency)
		if end := t + r.Stats.Latency; end > res.Makespan {
			res.Makespan = end
		}
	}
	if node := e.Node(); node != nil {
		// Node-level utilization: busy time over capacity summed across
		// every device, so a multi-GPU engine with one hot device and idle
		// siblings reads as underutilized rather than saturated. Identical
		// to the device-0 view at devices=1.
		res.GPUBusy = node.Utilization()
	}
	return res, nil
}
