package sched_test

import (
	"testing"
	"time"

	"griffin/internal/exec"
	"griffin/internal/index"
	"griffin/internal/sched"
)

// TestCostPolicyPricesWhatExecPlans holds the scheduler's cost comparison
// to the plan layer's operator estimates: CostPolicy's device estimate is
// what exec prices the device step it would emit mid-query (the short side
// already on the device) — the long list's Upload, its Decompress and the
// MergePath intersection — and its host estimate is exec's price of the
// cpu-adaptive intersection.
func TestCostPolicyPricesWhatExecPlans(t *testing.T) {
	p := sched.NewCostPolicy()
	for _, short := range []int{1, 100, 1_000, 30_000, 250_000} {
		for _, ratio := range []int{1, 2, 8, 15, 16, 17, 64, 127} {
			long := short * ratio
			lists := []*index.PostingList{{N: short}, {N: short}, {N: long}}

			gpuPlan := exec.NewHybridBuilder(lists, sched.AlwaysPolicy{Target: sched.GPU}, sched.DefaultCrossover)
			gpuPlan.Next(exec.State{Len: short})
			ops := gpuPlan.Next(exec.State{Len: short, OnDevice: true})
			if len(ops) != 3 || ops[0].Kind != exec.OpUpload || ops[1].Kind != exec.OpDecompress || ops[2].Algo != exec.AlgoMergePath {
				t.Fatalf("%dx%d: the device step is %+v, not upload, decompress, merge path", short, long, ops)
			}
			var execGPU time.Duration
			for i := range ops {
				execGPU += ops[i].Estimate(&p.CPU, &p.GPU)
			}
			if got := p.EstimateGPU(short, long); got != execGPU {
				t.Errorf("%dx%d: CostPolicy prices the device at %v, exec at %v", short, long, got, execGPU)
			}

			cpuPlan := exec.NewHybridBuilder(lists[1:], sched.AlwaysPolicy{Target: sched.CPU}, sched.DefaultCrossover)
			ops = cpuPlan.Next(exec.State{Len: short})
			if len(ops) != 1 || ops[0].Algo != exec.AlgoCPUAdaptive {
				t.Fatalf("%dx%d: the host step is %+v, not one cpu-adaptive intersection", short, long, ops)
			}
			if got, want := p.EstimateCPU(short, long), ops[0].Estimate(&p.CPU, &p.GPU); got != want {
				t.Errorf("%dx%d: CostPolicy prices the host at %v, exec at %v", short, long, got, want)
			}
		}
	}
}
