package loadsim

import (
	"context"
	"math/rand"
	"time"

	"griffin/internal/core"
	"griffin/internal/ingest"
	"griffin/internal/stats"
)

// MutationKind labels one scripted write for RunMixed.
type MutationKind int

const (
	// MutAdd inserts a new document.
	MutAdd MutationKind = iota
	// MutUpdate replaces an existing document's tokens.
	MutUpdate
	// MutDelete tombstones an existing document.
	MutDelete
)

// Mutation is one scripted write in a mixed workload. Scripts are
// consumed in order, so a script that is valid sequentially (no update
// before its add, no double delete) stays valid under any interleaving
// RunMixed chooses.
type Mutation struct {
	Kind   MutationKind
	DocID  uint32
	Tokens []string
}

// MixedSpec parameterizes a mixed read/write run over a live engine.
type MixedSpec struct {
	// ArrivalRate is total operations per second (reads + writes),
	// Poisson as in Run/RunEngine.
	ArrivalRate float64
	// WriteFraction is the probability an arrival is a write while
	// scripted mutations remain; once the script is exhausted every
	// arrival is a read.
	WriteFraction float64
	// Seed drives arrivals and the read/write coin.
	Seed int64
	// Merge enables threshold merging: whenever the engine reports a
	// due merge (NeedsMerge), it is run at the current modeled time so
	// its re-encoding work contends with queries on the shared device.
	// With Merge false the delta grows unboundedly and every read pays
	// the widening reconcile cost — the no-merge control arm.
	Merge bool
}

// MixedResult is what RunMixed measures.
type MixedResult struct {
	// Reads counts read attempts; Failed the subset that errored.
	// Availability() = successful reads / read attempts.
	Reads  int
	Failed int
	// Writes counts applied mutations.
	Writes int
	// Latencies records successful read sojourn times (arrival to
	// completion, device queueing behind merges included).
	Latencies *stats.LatencyRecorder
	// DeltaPeak is the largest delta (records) observed after a write —
	// the freshness-lag high-water mark.
	DeltaPeak int
	// Makespan is the last completion time; GPUBusy the node busy
	// fraction over it.
	Makespan time.Duration
	GPUBusy  float64
	// Stats is the engine's final ingestion telemetry (merge counts,
	// device/CPU/stall time, residual lag).
	Stats ingest.Stats
}

// Availability returns the fraction of read attempts that succeeded
// (1.0 for a run with no reads).
func (r MixedResult) Availability() float64 {
	if r.Reads == 0 {
		return 1
	}
	return float64(r.Reads-r.Failed) / float64(r.Reads)
}

// RunMixed drives a live ingest.Engine under a Poisson stream of mixed
// reads and writes, the serving-under-mutation experiment: reads are
// timed sub-queries through the shared device runtime (RunEngine's
// discipline), writes apply scripted mutations to the delta, and — on
// the merge arm — due merges are priced at their trigger time on the
// same device timelines, so merge interference surfaces directly in
// read latency. Reads cycle through queries; the run ends when the
// read log is exhausted.
//
// Read errors are counted as failures rather than aborting the run, so
// availability under injected merge faults is measurable.
func RunMixed(e *ingest.Engine, queries [][]string, muts []Mutation, spec MixedSpec) (MixedResult, error) {
	rng := rand.New(rand.NewSource(spec.Seed))
	res := MixedResult{Latencies: stats.NewLatencyRecorder(len(queries))}
	if len(queries) == 0 || spec.ArrivalRate <= 0 {
		res.Stats = e.Stats()
		return res, nil
	}
	var t time.Duration
	next := 0 // next scripted mutation
	for qi := 0; qi < len(queries); {
		t += time.Duration(rng.ExpFloat64() / spec.ArrivalRate * float64(time.Second))
		if next < len(muts) && rng.Float64() < spec.WriteFraction {
			m := muts[next]
			next++
			var err error
			switch m.Kind {
			case MutAdd:
				err = e.Add(m.DocID, m.Tokens)
			case MutUpdate:
				err = e.Update(m.DocID, m.Tokens)
			default:
				err = e.Delete(m.DocID)
			}
			if err != nil {
				return res, err
			}
			res.Writes++
			if d := e.Stats().DeltaDocs; d > res.DeltaPeak {
				res.DeltaPeak = d
			}
			if spec.Merge && e.NeedsMerge() {
				if err := e.MergeAt(t); err != nil {
					return res, err
				}
			}
			continue
		}
		res.Reads++
		r, err := e.Query(context.Background(), core.Request{Terms: queries[qi], Arrival: t, Timed: true})
		qi++
		if err != nil {
			res.Failed++
			continue
		}
		res.Latencies.Record(r.Stats.Latency)
		if end := t + r.Stats.Latency; end > res.Makespan {
			res.Makespan = end
		}
	}
	if node := e.Engine().Node(); node != nil {
		res.GPUBusy = node.Utilization()
	}
	res.Stats = e.Stats()
	return res, nil
}
