package cluster

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"griffin/internal/core"
	"griffin/internal/fault"
)

// faultSite is the timing-independent identity of one injected fault.
// Event.At is deliberately excluded: fault *decisions* hash (site, kind,
// opportunity index) and must not move when batching reshapes the
// timeline, but the timeline position at which an opportunity occurs is
// exactly what batching changes.
type faultSite struct {
	Site string
	Seq  int64
	Kind fault.Kind
}

func sites(events []fault.Event) []faultSite {
	out := make([]faultSite, len(events))
	for i, e := range events {
		out[i] = faultSite{Site: e.Site, Seq: e.Seq, Kind: e.Kind}
	}
	return out
}

// Batching must not move fault sites: the injector draws per-opportunity
// hashes over (site, kind, seq), and the batching stage sits after the
// submit hook at the same pipeline position, so an identically seeded
// chaotic run fires the same faults at the same opportunities whether
// batching is off or on. A batching-enabled run is also bit-reproducible
// against itself — timings included.
func TestBatchingPreservesFaultSites(t *testing.T) {
	c := parityCorpus(t)
	queries := parityQueries(c, 40)
	run := func(window time.Duration) ([]fault.Event, []time.Duration) {
		inj := fault.NewInjector(fault.Plan{Seed: 1234, Rules: []fault.Rule{
			{Kind: fault.KernelLaunch, Rate: 0.05},
			{Kind: fault.TransferError, Rate: 0.05},
			{Kind: fault.DeviceReset, Rate: 0.01, Stall: 2 * time.Millisecond},
			{Kind: fault.ShardStall, Rate: 0.05, Stall: 3 * time.Millisecond},
			{Kind: fault.EngineError, Rate: 0.03},
		}})
		cl := buildCluster(t, c, 2, Config{
			Engine:     core.Config{Mode: core.Hybrid, BatchWindow: window},
			TopK:       10,
			Replicas:   2,
			Fault:      inj,
			HedgeDelay: 2 * time.Millisecond,
		})
		defer cl.Close()
		var lats []time.Duration
		var at time.Duration
		for _, q := range queries {
			at += 500 * time.Microsecond
			r, err := cl.Query(context.Background(), Request{Terms: q.Terms, Arrival: at, Timed: true})
			if err != nil {
				if !errors.Is(err, ErrAllShardsFailed) {
					t.Fatal(err)
				}
				lats = append(lats, -1)
				continue
			}
			lats = append(lats, r.Stats.Latency)
		}
		return inj.Log(), lats
	}

	offLog, _ := run(0)
	onLog, onLats := run(500 * time.Microsecond)
	onLog2, onLats2 := run(500 * time.Microsecond)

	if got, want := sites(onLog), sites(offLog); !reflect.DeepEqual(got, want) {
		t.Fatalf("batching moved fault sites:\n off %v\n on  %v", want, got)
	}
	if !reflect.DeepEqual(onLog, onLog2) {
		t.Fatalf("batching-on runs diverge: %d vs %d events", len(onLog), len(onLog2))
	}
	if !reflect.DeepEqual(onLats, onLats2) {
		t.Fatal("batching-on per-query latencies differ across identically seeded runs")
	}
	if len(offLog) == 0 {
		t.Fatal("chaos plan injected nothing (test is vacuous)")
	}
}
