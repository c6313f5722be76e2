package gpu

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"griffin/internal/hwmodel"
)

// TestLaunchDeterministicAcrossWorkerCounts verifies the core simulator
// property: the functional result, the hardware counters, and therefore
// the simulated time of a launch are identical whether blocks execute on
// 1 host worker or many. Without this, simulated latencies would depend
// on the machine running the simulation.
func TestLaunchDeterministicAcrossWorkerCounts(t *testing.T) {
	model := hwmodel.DefaultGPU()
	const grid, block = 200, 128
	n := grid * block

	run := func(workers int) (*hwmodel.LaunchStats, []int64, int64) {
		dev := New(model, workers)
		s := dev.NewStream()
		out := make([]int64, n)
		st := s.Launch(&Kernel{
			Name: "det", Grid: grid, Block: block,
			MakeShared: func(b int) any { return make([]int64, block) },
			Phases: []Phase{
				func(c *Ctx) {
					sh := c.Shared.([]int64)
					sh[c.Thread] = int64(c.GlobalID() * 3)
					c.Op(2)
					c.GlobalRead(4)
				},
				func(c *Ctx) {
					sh := c.Shared.([]int64)
					out[c.GlobalID()] = sh[c.Thread] + 1
					c.GlobalWrite(8)
					c.SharedAccess(8)
					if c.Thread%2 == 0 {
						c.DivergentOp(1)
					}
				},
			},
		})
		return st, out, int64(s.Elapsed())
	}

	st1, out1, t1 := run(1)
	st8, out8, t8 := run(8)
	if *st1 != *st8 {
		t.Fatalf("stats differ by worker count:\n1: %+v\n8: %+v", st1, st8)
	}
	if t1 != t8 {
		t.Fatalf("simulated time differs: %d vs %d", t1, t8)
	}
	for i := range out1 {
		if out1[i] != out8[i] {
			t.Fatalf("functional output differs at %d", i)
		}
	}
}

// TestBlocksRunConcurrently confirms blocks of one phase really execute in
// parallel on the host (the functional half is a true parallel executor,
// not a loop): with enough workers, at least two blocks must be in flight
// at once. Each block stays in flight, yielding, until it has seen a second
// one (or a shared deadline passes), so the overlap does not hinge on how
// the host schedules goroutines under load; a serial executor never gets
// a second block in flight and fails after the deadline.
func TestBlocksRunConcurrently(t *testing.T) {
	dev := New(hwmodel.DefaultGPU(), 8)
	s := dev.NewStream()
	var inFlight, peak atomic.Int32
	deadline := time.Now().Add(10 * time.Second)
	s.Launch(&Kernel{
		Name: "conc", Grid: 64, Block: 64,
		Phases: []Phase{func(c *Ctx) {
			if c.Thread != 0 {
				return
			}
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			for peak.Load() < 2 && time.Now().Before(deadline) {
				runtime.Gosched()
			}
			inFlight.Add(-1)
		}},
	})
	if p := peak.Load(); p < 2 {
		t.Fatalf("peak blocks in flight = %d, want ≥ 2", p)
	}
}
