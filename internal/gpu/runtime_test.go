package gpu

import (
	"sync"
	"testing"
	"time"

	"griffin/internal/hwmodel"
)

// testKernel is a small fixed-cost kernel for timeline tests.
func testKernel(name string) *Kernel {
	return &Kernel{Name: name, Grid: 4, Block: 64,
		Phases: []Phase{func(c *Ctx) { c.Op(16); c.GlobalRead(64) }}}
}

// runQueryOps submits a representative dependent op sequence (upload,
// kernel over the uploaded buffer, download of it), each stream waiting
// on its producer's event, and returns the query's final clock.
func runQueryOps(t *testing.T, h *QueryStream) time.Duration {
	t.Helper()
	set := h.Streams()
	var buf *Buffer
	err := h.Submit(CopyEngine, func(s *Stream) error {
		b, err := s.H2D(make([]uint32, 1024), 4096)
		buf = b
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	set.On(ComputeEngine).Wait(set.On(CopyEngine).Record())
	if err := h.Submit(ComputeEngine, func(s *Stream) error {
		s.Launch(testKernel("work"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	set.On(CopyOutEngine).Wait(set.On(ComputeEngine).Record())
	if err := h.Submit(CopyOutEngine, func(s *Stream) error {
		s.D2H(buf, 4096)
		buf.Free()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return h.Elapsed()
}

// A query running alone through the runtime must reproduce the private-
// stream clock exactly: no queueing delay, bit-identical elapsed time.
// The reference runs on its own device so both sides start with a cold
// memory pool; the runtime's later queries reuse the first one's block.
func TestRuntimeContentionFreeParity(t *testing.T) {
	dev := New(hwmodel.DefaultGPU(), 0)
	rt := NewRuntime(dev, 1)

	// Reference: the same ops on a raw private stream.
	ref := dev.Clone().NewStream()
	b, err := ref.H2D(make([]uint32, 1024), 4096)
	if err != nil {
		t.Fatal(err)
	}
	ref.Launch(testKernel("work"))
	ref.D2H(b, 4096)
	b.Free()

	// Sequential queries through the runtime: each sees an idle device.
	for i := 0; i < 3; i++ {
		h := rt.Admit()
		got, want := runQueryOps(t, h), ref.Elapsed()
		if i > 0 {
			want -= dev.Model().AllocTime(4096)
		}
		if got != want {
			t.Fatalf("query %d: runtime clock %v != private stream %v", i, got, want)
		}
		if h.Waited() != 0 {
			t.Fatalf("query %d: idle device charged %v queueing delay", i, h.Waited())
		}
		h.Release()
	}
	if rt.PendingTime() != 0 {
		t.Fatalf("idle runtime reports backlog %v", rt.PendingTime())
	}
	st := rt.Stats()
	if st.Admitted != 3 || st.Active != 0 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Utilization <= 0 || st.Utilization > 1 {
		t.Fatalf("utilization %v out of range", st.Utilization)
	}
}

// Two queries admitted into the same epoch contend: the later submission
// on a busy lane is charged queueing delay equal to the overlap.
func TestRuntimeChargesQueueingDelay(t *testing.T) {
	dev := New(hwmodel.DefaultGPU(), 0)
	rt := NewRuntime(dev, 1)

	h1 := rt.Admit()
	h2 := rt.Admit() // same epoch: both anchored at the idle clock
	defer h1.Release()
	defer h2.Release()

	if err := h1.Submit(ComputeEngine, func(s *Stream) error {
		s.Launch(testKernel("first"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	service1 := h1.Elapsed()

	// h2's kernel becomes ready at its anchor (same as h1's) but the
	// single compute lane is busy until service1.
	if err := h2.Submit(ComputeEngine, func(s *Stream) error {
		s.Launch(testKernel("second"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if h2.Waited() != service1 {
		t.Fatalf("h2 waited %v, want %v (h1's service time)", h2.Waited(), service1)
	}
	if h2.Elapsed() <= service1 {
		t.Fatalf("h2 clock %v does not include the wait", h2.Elapsed())
	}
	if rt.Stats().Waited != service1 {
		t.Fatalf("runtime waited %v, want %v", rt.Stats().Waited, service1)
	}
}

// Copy and compute engines queue independently: a transfer does not wait
// behind another query's kernel.
func TestRuntimeEnginesQueueIndependently(t *testing.T) {
	dev := New(hwmodel.DefaultGPU(), 0)
	rt := NewRuntime(dev, 1)

	h1 := rt.Admit()
	h2 := rt.Admit()
	defer h1.Release()
	defer h2.Release()

	if err := h1.Submit(ComputeEngine, func(s *Stream) error {
		s.Launch(testKernel("kernels"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := h2.Submit(CopyEngine, func(s *Stream) error {
		b, err := s.H2D(make([]uint32, 256), 1024)
		if err != nil {
			return err
		}
		b.Free()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if h2.Waited() != 0 {
		t.Fatalf("copy waited %v behind an unrelated kernel", h2.Waited())
	}
}

// Explicit arrival times: a query arriving after the previous one's work
// has drained sees no delay; one arriving mid-service queues for the
// remainder.
func TestRuntimeTimedAdmission(t *testing.T) {
	dev := New(hwmodel.DefaultGPU(), 0)
	rt := NewRuntime(dev, 1)

	h1 := admitAt(rt, 0)
	if err := h1.Submit(ComputeEngine, func(s *Stream) error {
		s.Launch(testKernel("a"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	end1 := h1.Elapsed()
	h1.Release()

	// Arrive halfway through h1's service: wait for the remainder.
	mid := end1 / 2
	h2 := admitAt(rt, mid)
	if err := h2.Submit(ComputeEngine, func(s *Stream) error {
		s.Launch(testKernel("b"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if want := end1 - mid; h2.Waited() != want {
		t.Fatalf("mid-service arrival waited %v, want %v", h2.Waited(), want)
	}
	end2 := mid + h2.Elapsed()
	h2.Release()

	// Arrive after everything drained: no delay.
	h3 := admitAt(rt, end2+time.Millisecond)
	if err := h3.Submit(ComputeEngine, func(s *Stream) error {
		s.Launch(testKernel("c"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if h3.Waited() != 0 {
		t.Fatalf("post-drain arrival waited %v", h3.Waited())
	}
	h3.Release()
}

// More compute lanes admit more concurrent kernels: total queueing delay
// is monotone non-increasing in the lane count for a fixed offered
// sequence of simultaneous queries.
func TestRuntimeMoreStreamsLessWaiting(t *testing.T) {
	run := func(streams int) time.Duration {
		dev := New(hwmodel.DefaultGPU(), 0)
		rt := NewRuntime(dev, streams)
		handles := make([]*QueryStream, 6)
		for i := range handles {
			handles[i] = rt.Admit()
		}
		for _, h := range handles {
			if err := h.Submit(ComputeEngine, func(s *Stream) error {
				s.Launch(testKernel("k"))
				return nil
			}); err != nil {
				panic(err)
			}
		}
		for _, h := range handles {
			h.Release()
		}
		return rt.Stats().Waited
	}
	w1, w2, w4 := run(1), run(2), run(4)
	if w1 < w2 || w2 < w4 {
		t.Fatalf("waiting not monotone in streams: 1->%v 2->%v 4->%v", w1, w2, w4)
	}
	if w1 == 0 {
		t.Fatal("single lane with 6 simultaneous kernels shows no waiting")
	}
}

// Satellite: under many concurrent queries sharing the runtime (run with
// -race in CI), every per-query stream timeline must stay well-formed —
// events in monotone non-overlapping order accounting for the whole
// clock — and the runtime's lane occupancy intervals must never overlap
// within a lane.
func TestRuntimeConcurrentTimelinesWellFormed(t *testing.T) {
	dev := New(hwmodel.DefaultGPU(), 2)
	rt := NewRuntime(dev, 2)
	rt.profiling = true // record lane occupancy

	const goroutines = 8
	const perG = 5
	events := make([][]ProfileEvent, goroutines*perG)
	clocks := make([]time.Duration, goroutines*perG)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for q := 0; q < perG; q++ {
				h := rt.Admit()
				h.Streams().EnableProfiling()
				runQueryOps(t, h)
				idx := g*perG + q
				events[idx] = h.Streams().On(ComputeEngine).Profile()
				clocks[idx] = h.Elapsed()
				h.Release()
			}
		}(g)
	}
	wg.Wait()

	for qi, evs := range events {
		if len(evs) == 0 {
			t.Fatalf("query %d recorded no events", qi)
		}
		var prevEnd time.Duration
		for i, e := range evs {
			if e.Start < prevEnd {
				t.Fatalf("query %d event %d (%s) starts at %v before predecessor end %v",
					qi, i, e.Kind, e.Start, prevEnd)
			}
			if e.Took < 0 {
				t.Fatalf("query %d event %d negative duration", qi, i)
			}
			prevEnd = e.Start + e.Took
		}
		if prevEnd != clocks[qi] {
			t.Fatalf("query %d timeline ends at %v but stream clock is %v", qi, prevEnd, clocks[qi])
		}
	}

	checkLane := func(name string, spans []LaneSpan) {
		var prevEnd time.Duration
		for i, sp := range spans {
			if sp.Start < prevEnd {
				t.Fatalf("%s span %d [%v,%v) overlaps predecessor ending %v",
					name, i, sp.Start, sp.End, prevEnd)
			}
			if sp.End < sp.Start {
				t.Fatalf("%s span %d inverted", name, i)
			}
			prevEnd = sp.End
		}
	}
	var kernelSpans int
	for _, ln := range rt.compute {
		kernelSpans += len(ln.spans)
		checkLane("compute lane", ln.spans)
	}
	for _, ln := range rt.copyEng {
		checkLane("copy engine", ln.spans)
	}
	if kernelSpans == 0 {
		t.Fatal("no compute spans recorded")
	}
	if rt.Stats().Utilization <= 0 {
		t.Fatal("zero utilization after concurrent load")
	}
}
