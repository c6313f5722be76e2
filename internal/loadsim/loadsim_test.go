package loadsim

import (
	"testing"
	"time"

	"griffin/internal/core"
	"griffin/internal/sched"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// uniform is n queries that each run segs and never spill.
func uniform(n int, segs ...Segment) []Plan {
	plans := make([]Plan, n)
	for i := range plans {
		plans[i].Segments = segs
	}
	return plans
}

func TestSegmentsMergeAdjacent(t *testing.T) {
	qs := core.QueryStats{
		CPUTime: ms(5),
		Plan: []core.PlanRecord{
			{Where: sched.CPU, Start: ms(0), Took: ms(2)},
			{Where: sched.CPU, Start: ms(2), Took: ms(3)},
		},
	}
	segs := SegmentsFromStats(qs)
	if len(segs) != 1 || segs[0] != (Segment{ResCPU, ms(5)}) {
		t.Fatalf("segments = %v, want one merged CPU 5ms", segs)
	}
}

func TestLightLoadNoQueueing(t *testing.T) {
	// At negligible load, response time equals service time.
	plans := uniform(50, Segment{ResCPU, ms(1)}, Segment{ResGPU, ms(1)})
	res := Replay(plans, Spec{CPUWorkers: 4, ArrivalRate: 1, Seed: 1}, NoSpill) // 1 q/s, 2ms service
	if got := res.Latencies.Max(); got > ms(3) {
		t.Fatalf("max latency %v under light load, want ~2ms", got)
	}
	if res.Latencies.Count() != 50 {
		t.Fatalf("completed %d queries", res.Latencies.Count())
	}
}

func TestHeavyLoadQueues(t *testing.T) {
	// Offered load far above capacity: latencies must blow up.
	plans := uniform(200, Segment{ResCPU, ms(10)})
	// Capacity = 4 workers / 10ms = 400 q/s; offer 2000 q/s.
	res := Replay(plans, Spec{CPUWorkers: 4, ArrivalRate: 2000, Seed: 2}, NoSpill)
	if res.Latencies.Percentile(99) < ms(50) {
		t.Fatalf("P99 %v under 5x overload, expected heavy queueing", res.Latencies.Percentile(99))
	}
	if res.CPUBusy < 0.5 {
		t.Fatalf("CPU utilization %v under overload", res.CPUBusy)
	}
}

func TestUtilizationAccounting(t *testing.T) {
	res := Replay(uniform(1, Segment{ResGPU, ms(10)}), Spec{CPUWorkers: 4, ArrivalRate: 100, Seed: 3}, NoSpill)
	if res.GPUBusy <= 0 || res.GPUBusy > 1 {
		t.Fatalf("GPU utilization %v", res.GPUBusy)
	}
	if res.CPUBusy != 0 {
		t.Fatalf("CPU utilization %v for GPU-only trace", res.CPUBusy)
	}
}

func TestOffloadingHelpsUnderLoad(t *testing.T) {
	// The system effect the hybrid design buys: the same work, run as
	// CPU-only segments vs mostly-GPU segments, under an arrival rate the
	// CPU pool alone cannot sustain.
	spec := Spec{CPUWorkers: 4, ArrivalRate: 450, Seed: 4}
	rc := Replay(uniform(300, Segment{ResCPU, ms(8)}), spec, NoSpill)
	rh := Replay(uniform(300, Segment{ResGPU, ms(2)}, Segment{ResCPU, ms(1)}), spec, NoSpill)
	if rh.Latencies.Percentile(99) >= rc.Latencies.Percentile(99) {
		t.Fatalf("hybrid P99 %v not better than cpu-only P99 %v under load",
			rh.Latencies.Percentile(99), rc.Latencies.Percentile(99))
	}
}

func TestEmptyAndDegenerateSpecs(t *testing.T) {
	if res := Replay(nil, Spec{CPUWorkers: 4, ArrivalRate: 10, Seed: 5}, NoSpill); res.Latencies.Count() != 0 {
		t.Fatal("empty traces produced latencies")
	}
	plans := uniform(1, Segment{ResCPU, ms(1)})
	if res := Replay(plans, Spec{CPUWorkers: 0, ArrivalRate: 10}, NoSpill); res.Latencies.Count() != 0 {
		t.Fatal("zero workers should not run")
	}
	if res := Replay(plans, Spec{CPUWorkers: 4, ArrivalRate: 0}, NoSpill); res.Latencies.Count() != 0 {
		t.Fatal("zero arrival rate should not run")
	}
}

func TestFCFSOrderPreserved(t *testing.T) {
	// Single worker, two queries arriving in order: the second waits for
	// the first (no overtaking on one resource).
	plans := []Plan{
		{Segments: []Segment{{ResCPU, ms(10)}}},
		{Segments: []Segment{{ResCPU, ms(1)}}},
	}
	res := Replay(plans, Spec{CPUWorkers: 1, ArrivalRate: 1e6, Seed: 6}, NoSpill)
	// Both arrive ~immediately; total makespan ~11ms means serial service.
	if res.Makespan < ms(10) {
		t.Fatalf("makespan %v too small for serial service", res.Makespan)
	}
	if res.Latencies.Max() < ms(10) {
		t.Fatalf("max latency %v: queueing not applied", res.Latencies.Max())
	}
}

func TestSegmentsFromPlanTrace(t *testing.T) {
	// Stats carrying a physical-plan trace replay operator by operator:
	// adjacent same-processor operators merge, overlapping device
	// operators count once, and nothing is residual.
	qs := core.QueryStats{
		CPUTime:    ms(6),
		GPUTime:    ms(9),
		Overlapped: ms(2),
		Plan: []core.PlanRecord{
			{Where: sched.CPU, Start: ms(0), Took: ms(1)},  // fetch
			{Where: sched.GPU, Start: ms(1), Took: ms(3)},  // upload A
			{Where: sched.GPU, Start: ms(4), Took: ms(3)},  // decompress A, under which...
			{Where: sched.GPU, Start: ms(4), Took: ms(2)},  // ...upload B hides
			{Where: sched.GPU, Start: ms(7), Took: ms(3)},  // intersect
			{Where: sched.CPU, Start: ms(10), Took: ms(2)}, // migrated intersect
			{Where: sched.CPU, Start: ms(12), Took: ms(3)}, // score + topk
		},
	}
	segs := SegmentsFromStats(qs)
	want := []Segment{{ResCPU, ms(1)}, {ResGPU, ms(9)}, {ResCPU, ms(5)}}
	if len(segs) != len(want) {
		t.Fatalf("segments = %v, want %v", segs, want)
	}
	var cpu, gpu time.Duration
	for i := range want {
		if segs[i] != want[i] {
			t.Fatalf("segment %d = %v, want %v", i, segs[i], want[i])
		}
		if segs[i].Res == ResGPU {
			gpu += segs[i].D
		} else {
			cpu += segs[i].D
		}
	}
	// Plan replay conserves the stats' per-processor totals exactly.
	if cpu != qs.CPUTime || gpu != qs.GPUTime {
		t.Fatalf("replayed cpu=%v gpu=%v, stats cpu=%v gpu=%v", cpu, gpu, qs.CPUTime, qs.GPUTime)
	}
}
