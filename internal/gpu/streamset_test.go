package gpu

import (
	"testing"

	"griffin/internal/hwmodel"
)

// Two uploads and two kernels, each kernel waiting on its upload's event:
// the second upload runs under the first kernel, the set's clock is the
// critical path, and Join brings every stream up to it.
func TestOverlapEventsOrderStreams(t *testing.T) {
	d := New(hwmodel.DefaultGPU(), 1)
	q := d.NewStreamSet()
	q.EnableProfiling()
	in, comp, out := q.On(CopyEngine), q.On(ComputeEngine), q.On(CopyOutEngine)

	bufA, err := in.H2D(nil, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	upA := in.Record()
	bufB, err := in.H2D(nil, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	upB := in.Record()

	comp.Wait(upA)
	if comp.Elapsed() != upA.at {
		t.Fatalf("compute clock %v after waiting on an event at %v", comp.Elapsed(), upA.at)
	}
	comp.Launch(testKernel("a"))
	kernelA := comp.Elapsed() - upA.at
	comp.Wait(upB) // already signalled if the kernel outlasted the upload
	startB := comp.Elapsed()
	if want := max(upA.at+kernelA, upB.at); startB != want {
		t.Fatalf("second kernel starts at %v, want %v", startB, want)
	}
	comp.Launch(testKernel("b"))
	done := comp.Record()

	// Waiting on a signalled event (the zero Event included) is free.
	comp.Wait(Event{})
	comp.Wait(upA)
	if comp.Elapsed() != done.at {
		t.Fatalf("waiting on signalled events moved the clock to %v", comp.Elapsed())
	}

	out.Wait(done)
	out.D2H(bufA, 4096)
	end := out.Elapsed()
	if q.Elapsed() != end || in.Elapsed() >= end {
		t.Fatalf("set clock %v, copy-out %v, copy-in %v", q.Elapsed(), end, in.Elapsed())
	}
	serial := in.Elapsed() + 2*kernelA + (end - done.at)
	if end >= serial {
		t.Fatalf("critical path %v is not shorter than the serial sum %v", end, serial)
	}
	if q.Join() != end || in.Elapsed() != end || comp.Elapsed() != end {
		t.Fatalf("after Join: copy-in %v, compute %v, want %v", in.Elapsed(), comp.Elapsed(), end)
	}
	bufA.Free()
	bufB.Free()

	// One log for the three lanes, each event naming its stream.
	lanes := map[string]bool{}
	var overlapped bool
	for _, e := range comp.Profile() {
		lanes[e.Stream] = true
		if e.Stream == "copy-in" && e.Kind == "h2d" && e.Start >= upA.at && e.Start < upA.at+kernelA {
			overlapped = true // the second upload began under kernel a
		}
	}
	for _, lane := range []string{"copy-in", "compute", "copy-out"} {
		if !lanes[lane] {
			t.Errorf("the shared log holds no %s event: %+v", lane, comp.Profile())
		}
	}
	if !overlapped {
		t.Errorf("no upload overlaps the first kernel: %+v", comp.Profile())
	}
}

// Through a runtime, an op becomes ready at the position of the stream it
// runs on: a copy-in issued after a long kernel does not wait for it.
func TestOverlapSubmitReadyIsPerStream(t *testing.T) {
	rt := NewRuntime(New(hwmodel.DefaultGPU(), 1), 1)
	h := rt.Admit()
	defer h.Release()
	if err := h.Submit(ComputeEngine, func(s *Stream) error {
		s.Launch(testKernel("long"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	kernel := h.Elapsed()
	var up Event
	if err := h.Submit(CopyEngine, func(s *Stream) error {
		b, err := s.H2D(nil, 4096)
		if err == nil {
			b.Free()
			up = s.Record()
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if want := rt.Device().Model().AllocTime(4096) + rt.Device().Model().TransferTime(4096); up.at != want {
		t.Fatalf("upload ended at %v, want %v: it must start at its own stream's clock, not behind the kernel (%v)", up.at, want, kernel)
	}
	if h.Waited() != 0 {
		t.Fatalf("lone query charged %v queueing delay", h.Waited())
	}
	if got, want := h.Elapsed(), max(kernel, up.at); got != want {
		t.Fatalf("query clock %v, want the later stream %v", got, want)
	}
}
