package gpu

import (
	"testing"
	"time"

	"griffin/internal/hwmodel"
)

// submitCompute pushes one fixed-cost kernel through the handle to build
// compute-lane backlog.
func submitCompute(t *testing.T, h *QueryStream) {
	t.Helper()
	if err := h.Submit(ComputeEngine, func(s *Stream) error {
		s.Launch(testKernel("budget-work"))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// admitAt admits an unbudgeted query at an explicit arrival.
func admitAt(rt *DeviceRuntime, arrival time.Duration) *QueryStream {
	h, _ := rt.AdmitWith(Admission{Arrival: arrival, Timed: true})
	return h
}

func TestAdmitWithoutBudgetIgnoresEstimate(t *testing.T) {
	rt := NewRuntime(New(hwmodel.DefaultGPU(), 0), 1)
	// Zero and negative budgets are both "no budget".
	for _, budget := range []time.Duration{0, -time.Second} {
		h, err := rt.AdmitWith(Admission{Budget: budget, Est: time.Hour})
		if err != nil || h == nil {
			t.Fatalf("budget %v: %v", budget, err)
		}
		h.Release()
	}
}

func TestTimedBudgetRejectionLeavesTimelineUntouched(t *testing.T) {
	rt := NewRuntime(New(hwmodel.DefaultGPU(), 0), 1)
	// Build real backlog on the single compute lane.
	for i := 0; i < 4; i++ {
		h := admitAt(rt, 0)
		submitCompute(t, h)
		h.Release()
	}
	backlog := rt.PendingAt(time.Microsecond)
	if backlog <= 0 {
		t.Fatal("no backlog built")
	}

	clockBefore := rt.Stats().Horizon
	admittedBefore := rt.Stats().Admitted

	// Budget smaller than backlog alone: rejected.
	h, err := rt.AdmitWith(Admission{Arrival: time.Microsecond, Timed: true, Budget: backlog / 2})
	if !IsBudget(err) || h != nil {
		t.Fatalf("want budget rejection, got %v", err)
	}
	// Budget covers backlog but not backlog+est: rejected.
	if _, err := rt.AdmitWith(Admission{Arrival: time.Microsecond, Timed: true, Budget: backlog + time.Nanosecond, Est: time.Millisecond}); !IsBudget(err) {
		t.Fatalf("want budget rejection with est, got %v", err)
	}
	// Rejections leave no trace: same admitted count, same horizon, and a
	// later arrival sees the same backlog.
	if got := rt.Stats().Admitted; got != admittedBefore {
		t.Errorf("rejection consumed an admission: %d != %d", got, admittedBefore)
	}
	if got := rt.Stats().Horizon; got != clockBefore {
		t.Errorf("rejection moved the horizon: %v != %v", got, clockBefore)
	}
	if got := rt.PendingAt(time.Microsecond); got != backlog {
		t.Errorf("rejection changed backlog: %v != %v", got, backlog)
	}

	// Ample budget: admitted.
	h, err = rt.AdmitWith(Admission{Arrival: time.Microsecond, Timed: true, Budget: backlog + 10*time.Millisecond, Est: time.Millisecond})
	if err != nil || h == nil {
		t.Fatalf("ample budget rejected: %v", err)
	}
	h.Release()
}

func TestUntimedBudgetIdleFastForwardClearsBacklog(t *testing.T) {
	rt := NewRuntime(New(hwmodel.DefaultGPU(), 0), 1)
	// Accumulate work, then drain: the untimed path fast-forwards past
	// the horizon, so an idle device never rejects.
	h := rt.Admit()
	submitCompute(t, h)
	h.Release()
	got, err := rt.AdmitWith(Admission{Budget: time.Nanosecond})
	if err != nil || got == nil {
		t.Fatalf("idle device rejected a tiny budget: %v", err)
	}
	got.Release()
}

func TestNodeBudgetAdmission(t *testing.T) {
	n := NewNode(New(hwmodel.DefaultGPU(), 0), 2, 1)
	// Load device 0 only.
	for i := 0; i < 4; i++ {
		h := admitAt(n.Runtime(0), 0)
		submitCompute(t, h)
		h.Release()
	}
	backlog := n.BacklogsAt(time.Microsecond)
	if backlog[0] <= 0 || backlog[1] != 0 {
		t.Fatalf("backlogs: %v", backlog)
	}
	timed := Admission{Arrival: time.Microsecond, Timed: true, Budget: backlog[0] / 2}
	if _, err := n.AdmitOnWith(0, timed); !IsBudget(err) {
		t.Fatalf("loaded device: want rejection, got %v", err)
	}
	h, err := n.AdmitOnWith(1, timed)
	if err != nil || h == nil {
		t.Fatalf("idle device rejected: %v", err)
	}
	h.Release()
	if h2, err := n.AdmitOnWith(1, Admission{Budget: time.Hour}); err != nil {
		t.Fatalf("untimed budgeted admission: %v", err)
	} else {
		h2.Release()
	}
}
