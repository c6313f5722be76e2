package loadsim

import (
	"testing"
	"time"
)

func dualWork(n int) []Plan {
	// Same logical work: Griffin plan = 2ms GPU + 1ms CPU; CPU-only plan
	// = 8ms CPU (the GPU path is 2.7x cheaper in total service time).
	out := make([]Plan, n)
	for i := range out {
		out[i] = Plan{
			Segments: []Segment{{ResGPU, 2 * time.Millisecond}, {ResCPU, time.Millisecond}},
			Spill:    []Segment{{ResCPU, 8 * time.Millisecond}},
		}
	}
	return out
}

func TestAdaptiveMatchesGriffinUnderLightLoad(t *testing.T) {
	traces := dualWork(100)
	spec := Spec{CPUWorkers: 4, ArrivalRate: 50, Seed: 10} // far below capacity
	rs := Replay(traces, spec, NoSpill)
	ra := Replay(traces, spec, 4)
	// No backlog ever forms, so the adaptive policy always picks the
	// Griffin plan: identical distributions.
	if rs.Latencies.Percentile(99) != ra.Latencies.Percentile(99) {
		t.Fatalf("light-load adaptive P99 %v != static %v",
			ra.Latencies.Percentile(99), rs.Latencies.Percentile(99))
	}
}

func TestAdaptiveBeatsStaticBeyondGPUSaturation(t *testing.T) {
	// GPU capacity = 1 server / 2ms = 500 q/s. Offer 650 q/s: the static
	// Griffin plan queues on the device without bound, while the adaptive
	// policy spills excess queries to the (otherwise idle) CPU pool.
	traces := dualWork(800)
	spec := Spec{CPUWorkers: 4, ArrivalRate: 650, Seed: 11}
	rs := Replay(traces, spec, NoSpill)
	ra := Replay(traces, spec, 4)
	if ra.Latencies.Percentile(99) >= rs.Latencies.Percentile(99) {
		t.Fatalf("adaptive P99 %v not better than static %v past GPU saturation",
			ra.Latencies.Percentile(99), rs.Latencies.Percentile(99))
	}
	// The spill must actually use the CPU pool.
	if ra.CPUBusy <= rs.CPUBusy {
		t.Fatalf("adaptive CPU utilization %.2f not above static %.2f",
			ra.CPUBusy, rs.CPUBusy)
	}
}

func TestAdaptiveDegenerateSpecs(t *testing.T) {
	if res := Replay(nil, Spec{CPUWorkers: 4, ArrivalRate: 10}, 1); res.Latencies.Count() != 0 {
		t.Fatal("empty adaptive run produced latencies")
	}
	traces := dualWork(1)
	if res := Replay(traces, Spec{CPUWorkers: 0, ArrivalRate: 10}, 1); res.Latencies.Count() != 0 {
		t.Fatal("zero workers should not run")
	}
}

// Replay replaces two simulators that differed in five lines. On the
// fixtures of the tests above and in loadsim_test.go it reproduces what
// each of them computed at the commit that still had both — Run for
// NoSpill, RunAdaptive for a limit of 4: the literals are that commit's
// output (count, mean, P99 and max in ns, busy fractions, makespan in ns).
func TestReplayEqualsTheTwoSimulatorsItReplaced(t *testing.T) {
	for _, tc := range []struct {
		name             string
		plans            []Plan
		spec             Spec
		limit            int
		count            int
		mean, p99, max   time.Duration
		cpuBusy, gpuBusy float64
		makespan         time.Duration
	}{
		{"light", uniform(50, Segment{ResCPU, ms(1)}, Segment{ResGPU, ms(1)}), Spec{CPUWorkers: 4, ArrivalRate: 1, Seed: 1}, NoSpill,
			50, 2000000, 2000000, 2000000, 0.00029303672351724274, 0.001172146894068971, 42656769602},
		{"heavy", uniform(200, Segment{ResCPU, ms(10)}), Spec{CPUWorkers: 4, ArrivalRate: 2000, Seed: 2}, NoSpill,
			200, 210498776, 410089959, 411250104, 0.9988065739674818, 0, 500597426},
		{"one GPU query", uniform(1, Segment{ResGPU, ms(10)}), Spec{CPUWorkers: 4, ArrivalRate: 100, Seed: 3}, NoSpill,
			1, 10000000, 10000000, 10000000, 0, 0.3405989562072508, 29360043},
		{"cpu-only work", uniform(300, Segment{ResCPU, ms(8)}), Spec{CPUWorkers: 4, ArrivalRate: 450, Seed: 4}, NoSpill,
			300, 15331901, 40874132, 44601887, 0.9067822387631931, 0, 661680362},
		{"offloaded work", uniform(300, Segment{ResGPU, ms(2)}, Segment{ResCPU, ms(1)}), Spec{CPUWorkers: 4, ArrivalRate: 450, Seed: 4}, NoSpill,
			300, 11308428, 37336298, 40355315, 0.11421081600731652, 0.9136865280585321, 656680362},
		{"fcfs", []Plan{{Segments: []Segment{{ResCPU, ms(10)}}}, {Segments: []Segment{{ResCPU, ms(1)}}}}, Spec{CPUWorkers: 1, ArrivalRate: 1e6, Seed: 6}, NoSpill,
			2, 10499061, 10998123, 10998123, 0.9999177340409721, 0, 11000905},
		{"one GPU server", uniform(600, Segment{ResGPU, ms(2)}), Spec{CPUWorkers: 4, ArrivalRate: 650, Seed: 12}, NoSpill,
			600, 165366651, 315591640, 320538179, 0, 0.9974030235138943, 1203124486},
		{"static past saturation", dualWork(800), Spec{CPUWorkers: 4, ArrivalRate: 650, Seed: 11}, NoSpill,
			800, 219362545, 386684860, 389503228, 0.12488734560406163, 0.999098764832493, 1601443277},
		{"adaptive, light load", dualWork(100), Spec{CPUWorkers: 4, ArrivalRate: 50, Seed: 10}, 4,
			100, 3155548, 4771079, 5108356, 0.010402341134584879, 0.08321872907667903, 2403305148},
		{"adaptive past saturation", dualWork(800), Spec{CPUWorkers: 4, ArrivalRate: 650, Seed: 11}, 4,
			800, 10213026, 20484473, 25943628, 0.4447406631796261, 0.9845933727299294, 1224871133},
	} {
		r := Replay(tc.plans, tc.spec, tc.limit)
		if r.Latencies.Count() != tc.count || r.Latencies.Mean() != tc.mean ||
			r.Latencies.Percentile(99) != tc.p99 || r.Latencies.Max() != tc.max {
			t.Errorf("%s: count %d mean %d p99 %d max %d, want %d %d %d %d", tc.name,
				r.Latencies.Count(), r.Latencies.Mean(), r.Latencies.Percentile(99), r.Latencies.Max(),
				tc.count, tc.mean, tc.p99, tc.max)
		}
		if r.CPUBusy != tc.cpuBusy || r.GPUBusy != tc.gpuBusy || r.Makespan != tc.makespan {
			t.Errorf("%s: cpu %v gpu %v makespan %d, want %v %v %d", tc.name,
				r.CPUBusy, r.GPUBusy, r.Makespan, tc.cpuBusy, tc.gpuBusy, tc.makespan)
		}
	}
}
