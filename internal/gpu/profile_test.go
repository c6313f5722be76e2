package gpu

import (
	"testing"

	"griffin/internal/hwmodel"
)

func TestProfilingRecordsTimeline(t *testing.T) {
	dev := New(hwmodel.DefaultGPU(), 0)
	s := dev.NewStream()
	s.EnableProfiling()

	buf, err := s.H2D(make([]uint32, 256), 1024)
	if err != nil {
		t.Fatal(err)
	}
	s.Launch(&Kernel{Name: "probe", Grid: 2, Block: 64,
		Phases: []Phase{func(c *Ctx) { c.Op(1) }}})
	s.D2H(buf, 1024)

	events := s.Profile()
	if len(events) != 4 { // alloc (inside H2D) + h2d + launch + d2h
		t.Fatalf("got %d events: %+v", len(events), events)
	}
	wantKinds := []string{"alloc", "h2d", "launch", "d2h"}
	var prevEnd int64
	for i, e := range events {
		if e.Kind != wantKinds[i] {
			t.Fatalf("event %d kind %q, want %q", i, e.Kind, wantKinds[i])
		}
		if int64(e.Start) < prevEnd {
			t.Fatalf("event %d overlaps predecessor", i)
		}
		if e.Took <= 0 {
			t.Fatalf("event %d has no duration", i)
		}
		prevEnd = int64(e.Start + e.Took)
	}
	if events[2].Name != "probe" {
		t.Fatalf("launch name %q", events[2].Name)
	}
	// The timeline must account for the whole stream clock.
	last := events[len(events)-1]
	if last.Start+last.Took != s.Elapsed() {
		t.Fatalf("timeline end %v != stream clock %v", last.Start+last.Took, s.Elapsed())
	}
}

func TestProfilingOffByDefault(t *testing.T) {
	dev := New(hwmodel.DefaultGPU(), 0)
	s := dev.NewStream()
	if _, err := s.H2D(nil, 64); err != nil {
		t.Fatal(err)
	}
	if got := s.Profile(); got != nil {
		t.Fatalf("events recorded without profiling: %v", got)
	}
}
