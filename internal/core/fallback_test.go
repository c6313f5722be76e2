package core

import (
	"reflect"
	"testing"

	"griffin/internal/fault"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/workload"
)

// TestDeviceFaultFallsBackToCPU is the tentpole's correctness claim: a
// query whose device plan dies on an injected fault returns results
// identical to the CPU-only golden — the fallback re-plan, not an error
// — with the wasted device time visible in its stats.
func TestDeviceFaultFallsBackToCPU(t *testing.T) {
	c := testCorpus(t)
	queries := workload.GenerateQueryLog(c, workload.QuerySpec{
		NumQueries: 30, PopularityAlpha: 0.6, Seed: 9,
	})

	cpuE, err := New(c.Index, Config{Mode: CPUOnly})
	if err != nil {
		t.Fatal(err)
	}

	for _, mode := range []Mode{GPUOnly, Hybrid, PerQueryHybrid} {
		eng, err := New(c.Index, Config{Mode: mode, Device: gpu.New(hwmodel.DefaultGPU(), 0)})
		if err != nil {
			t.Fatal(err)
		}
		rt := eng.Node().Runtime(0)
		// Every device submission fails: every GPU-touching query must
		// fall back, and all results must match the CPU golden.
		in := fault.NewInjector(fault.Plan{Seed: 1, Rules: []fault.Rule{
			{Kind: fault.KernelLaunch, Rate: 1},
			{Kind: fault.TransferError, Rate: 1},
		}})
		rt.SetSubmitHook(in.DeviceHook("s0r0"))

		fellBack := 0
		for qi, q := range queries {
			want, err := cpuE.Search(q.Terms)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Search(q.Terms)
			if err != nil {
				t.Fatalf("mode %v query %d: fault surfaced as error instead of fallback: %v", mode, qi, err)
			}
			if !reflect.DeepEqual(docIDsOf(want), docIDsOf(got)) {
				t.Fatalf("mode %v query %d: fallback results differ from CPU golden: %v vs %v",
					mode, qi, docIDsOf(want), docIDsOf(got))
			}
			if got.Stats.FallbackCPU {
				fellBack++
				if got.Stats.Fault == "" {
					t.Fatalf("mode %v query %d: fallback stats carry no fault description", mode, qi)
				}
				if got.Stats.Latency != got.Stats.CPUTime+got.Stats.GPUTime {
					t.Fatalf("mode %v query %d: latency invariant broken: %v != %v + %v",
						mode, qi, got.Stats.Latency, got.Stats.CPUTime, got.Stats.GPUTime)
				}
				if got.Stats.GPUTime < got.Stats.FaultWasted {
					t.Fatalf("mode %v query %d: wasted time %v not carried into GPUTime %v",
						mode, qi, got.Stats.FaultWasted, got.Stats.GPUTime)
				}
			}
		}
		if mode == GPUOnly && fellBack == 0 {
			t.Fatalf("mode %v: no query fell back under a rate-1 fault plan", mode)
		}
	}
}

// TestNoCPUFallbackSurfacesError checks the opt-out: with the
// degradation path disabled, an injected device fault propagates as the
// error it is.
func TestNoCPUFallbackSurfacesError(t *testing.T) {
	c := testCorpus(t)
	eng, err := New(c.Index, Config{Mode: GPUOnly, Device: gpu.New(hwmodel.DefaultGPU(), 0), NoCPUFallback: true})
	if err != nil {
		t.Fatal(err)
	}
	rt := eng.Node().Runtime(0)
	in := fault.NewInjector(fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Kind: fault.TransferError, Rate: 1},
	}})
	rt.SetSubmitHook(in.DeviceHook("s0r0"))
	q := workload.GenerateQueryLog(c, workload.QuerySpec{NumQueries: 1, PopularityAlpha: 0.6, Seed: 9})[0]
	if _, err := eng.Search(q.Terms); !fault.IsDeviceFault(err) {
		t.Fatalf("NoCPUFallback query error = %v, want injected DeviceFault", err)
	}
}

// TestFallbackChargesWastedDeviceTime pins the accounting: the aborted
// plan's accumulated stream time shows up as FaultWasted on the
// fallback stats. A mid-plan fault (first kernel, after the uploads
// succeeded) guarantees nonzero waste.
func TestFallbackChargesWastedDeviceTime(t *testing.T) {
	c := testCorpus(t)
	eng, err := New(c.Index, Config{Mode: GPUOnly, Device: gpu.New(hwmodel.DefaultGPU(), 0)})
	if err != nil {
		t.Fatal(err)
	}
	rt := eng.Node().Runtime(0)
	// Uploads (copy engine) run clean; the first compute submission dies.
	in := fault.NewInjector(fault.Plan{Seed: 1, Rules: []fault.Rule{
		{Kind: fault.KernelLaunch, Rate: 1},
	}})
	rt.SetSubmitHook(in.DeviceHook("s0r0"))
	q := workload.GenerateQueryLog(c, workload.QuerySpec{NumQueries: 1, PopularityAlpha: 0.6, Seed: 9})[0]
	r, err := eng.Search(q.Terms)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Stats.FallbackCPU {
		t.Fatalf("query did not fall back")
	}
	if r.Stats.FaultWasted <= 0 {
		t.Fatalf("FaultWasted = %v, want > 0 (uploads ran before the kernel died)", r.Stats.FaultWasted)
	}
	if r.Stats.GPUTime != r.Stats.FaultWasted {
		t.Fatalf("GPUTime %v != FaultWasted %v on a CPU re-run", r.Stats.GPUTime, r.Stats.FaultWasted)
	}
	if r.Stats.Latency <= r.Stats.CPUTime {
		t.Fatalf("latency %v does not include the wasted device time (CPU %v)", r.Stats.Latency, r.Stats.CPUTime)
	}
}
