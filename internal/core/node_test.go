package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"griffin/internal/exec"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/sched"
	"griffin/internal/workload"
)

// An explicit Devices: 1 engine must be byte-identical to the default
// (pre-node) configuration: same docs, same full QueryStats — plan
// records, latencies, everything. This is the parity guarantee the
// multi-device refactor makes: a single-device node is not "almost the
// same", it is the same engine.
func TestSingleDeviceNodeParity(t *testing.T) {
	c := testCorpus(t)
	queries := workload.GenerateQueryLog(c, workload.QuerySpec{
		NumQueries: 60, PopularityAlpha: 0.7, Seed: 11,
	})
	for _, mode := range []Mode{GPUOnly, Hybrid, PerQueryHybrid} {
		for _, cached := range []bool{false, true} {
			mk := func(devices int) *Engine {
				e, err := New(c.Index, Config{
					Mode:       mode,
					Device:     gpu.New(hwmodel.DefaultGPU(), 0),
					Devices:    devices,
					CacheLists: cached,
				})
				if err != nil {
					t.Fatal(err)
				}
				return e
			}
			base, node := mk(0), mk(1)
			defer base.Close()
			defer node.Close()
			for i, q := range queries {
				want, err := base.Search(q.Terms)
				if err != nil {
					t.Fatal(err)
				}
				got, err := node.Search(q.Terms)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got.Docs, want.Docs) {
					t.Fatalf("%v cached=%v q%d %v: docs differ", mode, cached, i, q.Terms)
				}
				if !reflect.DeepEqual(got.Stats, want.Stats) {
					t.Fatalf("%v cached=%v q%d %v: stats differ\n got    %+v\n want   %+v",
						mode, cached, i, q.Terms, got.Stats, want.Stats)
				}
			}
			if bs, ns := base.CacheStats(), node.CacheStats(); bs != ns {
				t.Fatalf("%v cached=%v: cache stats %+v != %+v", mode, cached, ns, bs)
			}
		}
	}
}

// A multi-device engine returns the same answers as a single-device one
// (placement moves work, never changes it), stamps each query's device
// ops with the device it was placed on, and actually spreads sequential
// queries' residency so sibling caches serve peer copies.
func TestMultiDeviceEngineCorrectAndPlaced(t *testing.T) {
	c := testCorpus(t)
	queries := workload.GenerateQueryLog(c, workload.QuerySpec{
		NumQueries: 80, PopularityAlpha: 0.7, Seed: 13,
	})
	mk := func(devices int, placement sched.DevicePlacement) *Engine {
		e, err := New(c.Index, Config{
			Mode:       Hybrid,
			Device:     gpu.New(hwmodel.DefaultGPU(), 0),
			Devices:    devices,
			Placement:  placement,
			CacheLists: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	single := mk(1, nil)
	multi := mk(4, &sched.RoundRobinDevices{})
	defer single.Close()
	defer multi.Close()
	if multi.Node().Devices() != 4 {
		t.Fatalf("Devices() = %d, want 4", multi.Node().Devices())
	}

	usedDevices := map[int]bool{}
	for i, q := range queries {
		want, err := single.Search(q.Terms)
		if err != nil {
			t.Fatal(err)
		}
		got, err := multi.Search(q.Terms)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Docs, want.Docs) {
			t.Fatalf("q%d %v: multi-device docs differ from single-device", i, q.Terms)
		}
		if got.Stats.Candidates != want.Stats.Candidates {
			t.Fatalf("q%d %v: candidates %d != %d", i, q.Terms, got.Stats.Candidates, want.Stats.Candidates)
		}
		// Every device op of one query carries the same device id (whole-
		// query placement) and it matches a real device ordinal.
		dev := -1
		for _, rec := range got.Stats.Plan {
			if rec.Kind == exec.OpUpload || (rec.Kind == exec.OpIntersect && rec.Device != 0) {
				if dev == -1 {
					dev = rec.Device
				}
				if rec.Device != dev {
					t.Fatalf("q%d: ops on devices %d and %d within one query", i, dev, rec.Device)
				}
			}
		}
		if dev >= 0 {
			if dev >= 4 {
				t.Fatalf("q%d placed on device %d of 4", i, dev)
			}
			usedDevices[dev] = true
		}
	}
	if len(usedDevices) < 2 {
		t.Fatalf("round-robin placement used only devices %v", usedDevices)
	}

	// Striped residency plus repeated hot terms must have produced peer
	// copies — and every peer copy must be priced (the node stats show
	// interconnect transfers, the cache stats count them).
	cs := multi.CacheStats()
	if cs.PeerCopies == 0 {
		t.Fatal("80 popularity-skewed queries over 4 devices produced no peer copies")
	}
	if len(multi.caches) != 4 {
		t.Fatalf("%d device caches", len(multi.caches))
	}
	var sum CacheStats
	for _, c := range multi.caches {
		sum.Add(c.stats())
	}
	if sum != cs {
		t.Fatalf("per-device stats %+v do not sum to aggregate %+v", sum, cs)
	}
	if single.CacheStats().PeerCopies != 0 {
		t.Fatal("single-device engine recorded peer copies")
	}
}

// Affinity placement routes a query toward the device whose cache holds
// its list: on an idle node the resident-list saving is the only signal.
func TestAffinityRoutesToResidentDevice(t *testing.T) {
	c := testCorpus(t)
	e, err := New(c.Index, Config{
		Mode:       Hybrid,
		Device:     gpu.New(hwmodel.DefaultGPU(), 0),
		Devices:    2,
		CacheLists: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	pl, ok := c.Index.Lookup(c.Index.Terms()[1])
	if !ok {
		t.Fatal("term missing")
	}
	release, ok := e.caches[1].put(pl.Term, allocBuf(t, e.node.Runtime(1).Device(), pl.EF.CompressedBytes()))
	if !ok {
		t.Fatal("cache refused the list")
	}
	release()
	if got := e.placeDevice(Request{Terms: []string{pl.Term}}); got != 1 {
		t.Fatalf("query for a term resident on device 1 placed on device %d", got)
	}
}

// Under timed load the affinity default balances: saturating
// arrivals spread across devices rather than all queueing on one.
func TestTimedQueriesSpreadAcrossDevices(t *testing.T) {
	c := testCorpus(t)
	e, err := New(c.Index, Config{
		Mode:    Hybrid,
		Device:  gpu.New(hwmodel.DefaultGPU(), 0),
		Devices: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	queries := workload.GenerateQueryLog(c, workload.QuerySpec{
		NumQueries: 24, PopularityAlpha: 0.7, Seed: 17,
	})
	// Arrivals far faster than service: without spreading, backlog grows
	// unboundedly on device 0.
	for i, q := range queries {
		if _, err := e.Query(context.Background(), Request{Terms: q.Terms, Arrival: time.Duration(i) * time.Microsecond, Timed: true}); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Node().Stats()
	if len(st.Devices) != 2 {
		t.Fatalf("node has %d device snapshots", len(st.Devices))
	}
	if st.Devices[0].Admitted == 0 || st.Devices[1].Admitted == 0 {
		t.Fatalf("admissions %d/%d: one device never used under saturation",
			st.Devices[0].Admitted, st.Devices[1].Admitted)
	}
}
