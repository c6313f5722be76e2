package core

import (
	"context"
	"math"
	"reflect"
	"testing"
	"time"

	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/workload"
)

// sameResult fails unless got and want agree bit for bit: doc ids, score
// bits, and the full execution record including the plan trace.
func sameResult(t *testing.T, got, want *Result) {
	t.Helper()
	if len(got.Docs) != len(want.Docs) {
		t.Fatalf("%d docs != %d", len(got.Docs), len(want.Docs))
	}
	for i := range want.Docs {
		if got.Docs[i].DocID != want.Docs[i].DocID ||
			math.Float32bits(got.Docs[i].Score) != math.Float32bits(want.Docs[i].Score) {
			t.Fatalf("doc[%d] diverges: %+v != %+v", i, got.Docs[i], want.Docs[i])
		}
	}
	if !reflect.DeepEqual(got.Stats, want.Stats) {
		t.Fatalf("stats diverge:\n got %+v\nwant %+v", got.Stats, want.Stats)
	}
}

// Every way of asking goes through Query: the shims are Query with only
// Terms set, an arrival of 0 is an arrival, and a budget rejection is
// invisible on the device timeline.
func TestQueryOnePath(t *testing.T) {
	c := testCorpus(t)
	q := []string{c.Terms[1], c.Terms[4], c.Terms[9]}
	hybrid := func(t *testing.T) *Engine {
		e, err := New(c.Index, Config{Mode: Hybrid, Device: gpu.New(hwmodel.DefaultGPU(), 0)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		return e
	}
	timed := func(at time.Duration) Request { return Request{Terms: q, Arrival: at, Timed: true} }

	t.Run("shims equal Query", func(t *testing.T) {
		for _, mode := range []Mode{CPUOnly, GPUOnly, Hybrid, PerQueryHybrid} {
			// One engine per call form, so each sees a fresh device timeline.
			var got [3]*Result
			for i := range got {
				e, err := New(c.Index, Config{Mode: mode, Device: gpu.New(hwmodel.DefaultGPU(), 0)})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				switch i {
				case 0:
					var none context.Context // nil means context.Background()
					got[i], err = e.Query(none, Request{Terms: q})
				case 1:
					got[i], err = e.Search(q)
				case 2:
					got[i], err = e.SearchContext(context.Background(), q)
				}
				if err != nil {
					t.Fatalf("%v form %d: %v", mode, i, err)
				}
			}
			sameResult(t, got[1], got[0])
			sameResult(t, got[2], got[0])
		}
	})

	t.Run("arrival 0 pays the backlog", func(t *testing.T) {
		e := hybrid(t)
		first, err := e.Query(context.Background(), timed(0))
		if err != nil {
			t.Fatal(err)
		}
		if first.Stats.GPUWait != 0 {
			t.Fatalf("first arrival waited %v on an empty timeline", first.Stats.GPUWait)
		}
		// The device is idle in wall clock but its lanes hold the first
		// query's work past t=0: a second arrival at 0 queues behind it.
		second, err := e.Query(context.Background(), timed(0))
		if err != nil {
			t.Fatal(err)
		}
		if second.Stats.GPUWait <= 0 {
			t.Fatal("arrival 0 behind backlog saw no GPUWait: taken for an untimed admission")
		}
		// An untimed query is anchored past the drained device's horizon.
		untimed, err := e.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if untimed.Stats.GPUWait != 0 {
			t.Fatalf("untimed query on a drained device waited %v", untimed.Stats.GPUWait)
		}
	})

	t.Run("budget rejection leaves the timeline untouched", func(t *testing.T) {
		e := hybrid(t)
		for i := 0; i < 4; i++ {
			if _, err := e.Query(context.Background(), timed(0)); err != nil {
				t.Fatal(err)
			}
		}
		rt := e.Runtime()
		before, backlog := rt.Stats(), rt.PendingAt(time.Microsecond)
		if backlog <= 0 {
			t.Fatal("no backlog built")
		}
		req := timed(time.Microsecond)
		req.Budget = backlog / 2
		if _, err := e.Query(context.Background(), req); !gpu.IsBudget(err) {
			t.Fatalf("want budget rejection, got %v", err)
		}
		if after := rt.Stats(); !reflect.DeepEqual(after, before) {
			t.Fatalf("rejection changed the runtime:\n got %+v\nwant %+v", after, before)
		}
		if got := rt.PendingAt(time.Microsecond); got != backlog {
			t.Fatalf("rejection changed the backlog: %v != %v", got, backlog)
		}
		// The same budget on the CPU plan never reaches the device.
		req.ForceCPU = true
		if _, err := e.Query(context.Background(), req); err != nil {
			t.Fatalf("ForceCPU request rejected: %v", err)
		}
		req.ForceCPU, req.Budget = false, backlog+time.Hour
		if _, err := e.Query(context.Background(), req); err != nil {
			t.Fatalf("ample budget rejected: %v", err)
		}
	})

	// Brownout's ForceCPU is the CPU-only mode's policy: same docs, same
	// plan, same record, whatever mode the engine was built in.
	t.Run("ForceCPU equals CPU-only", func(t *testing.T) {
		cpuE, err := New(c.Index, Config{Mode: CPUOnly})
		if err != nil {
			t.Fatal(err)
		}
		queries := workload.GenerateQueryLog(c, workload.QuerySpec{NumQueries: 40, PopularityAlpha: 0.7, Seed: 7})
		for _, mode := range []Mode{GPUOnly, Hybrid, PerQueryHybrid} {
			e, err := New(c.Index, Config{Mode: mode, Device: gpu.New(hwmodel.DefaultGPU(), 0)})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for _, q := range queries {
				want, err := cpuE.Search(q.Terms)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.Query(context.Background(), Request{Terms: q.Terms, SearchOptions: SearchOptions{ForceCPU: true}})
				if err != nil {
					t.Fatal(err)
				}
				sameResult(t, got, want)
			}
		}
	})

	t.Run("cancelled ctx", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := hybrid(t).Query(ctx, timed(0)); err != context.Canceled {
			t.Fatalf("timed query under a cancelled ctx returned %v", err)
		}
	})
}
