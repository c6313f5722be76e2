package experiments

import (
	"reflect"
	"testing"
)

// TestChaosSweepShape is the chaos study's assertion set: under the fixed
// test seed the hardened cluster must stay ≥99% available at the 5%
// fault rate while the brittle configuration collapses, self-healing
// counters must move once faults flow, and the fault-free row must be
// perfectly available with zero healing actions.
func TestChaosSweepShape(t *testing.T) {
	cfg := testConfig()
	cfg.Scale = 0.05
	res, table, err := RunChaosSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, table)
	if len(res.Points) != 4 {
		t.Fatalf("expected 4 sweep points, got %d", len(res.Points))
	}
	if res.Rate <= 0 {
		t.Fatalf("no calibrated rate: %v", res.Rate)
	}

	clean := res.Points[0]
	if clean.Rate != 0 || clean.Availability != 1 || clean.BrittleAvailability != 1 {
		t.Fatalf("fault-free row not fully available: %+v\n%s", clean, table.Render())
	}
	if clean.Retries != 0 || clean.Fallbacks != 0 || clean.Failed != 0 {
		t.Fatalf("fault-free row took healing actions: %+v\n%s", clean, table.Render())
	}

	for _, p := range res.Points[1:] {
		// The headline guarantee: self-healing holds availability at or
		// above 99% through the 5% fault rate (and we check 10% stays
		// high too — fallback and retry absorb almost everything).
		if p.Rate <= 0.05 && p.Availability < 0.99 {
			t.Fatalf("hardened availability %.4f < 0.99 at %.0f%% faults\n%s",
				p.Availability, p.Rate*100, table.Render())
		}
		if p.Availability < 0.95 {
			t.Fatalf("hardened availability %.4f < 0.95 at %.0f%% faults\n%s",
				p.Availability, p.Rate*100, table.Render())
		}
		// Self-healing must actually be doing the absorbing.
		if p.Fallbacks == 0 {
			t.Fatalf("no CPU fallbacks at %.0f%% faults\n%s", p.Rate*100, table.Render())
		}
		// The brittle twin over the identical fault stream must be
		// strictly worse — that spread is the robustness layer's value.
		if p.BrittleAvailability >= p.Availability {
			t.Fatalf("brittle availability %.4f not below hardened %.4f at %.0f%% faults\n%s",
				p.BrittleAvailability, p.Availability, p.Rate*100, table.Render())
		}
		if p.P99 < p.Mean {
			t.Fatalf("P99 %v below mean %v\n%s", p.P99, p.Mean, table.Render())
		}
	}
	hot := res.Points[len(res.Points)-1]
	if hot.BrittleAvailability > 0.90 {
		t.Fatalf("brittle cluster survived 10%% faults at %.4f availability — injection too weak\n%s",
			hot.BrittleAvailability, table.Render())
	}
}

// TestChaosSweepDeterministic pins the acceptance criterion: the same
// Config reproduces the identical availability and latency table.
func TestChaosSweepDeterministic(t *testing.T) {
	cfg := testConfig()
	cfg.Scale = 0.05
	r1, t1, err := RunChaosSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, t2, err := RunChaosSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("chaos sweep results differ across identical configs:\n%+v\n%+v", r1, r2)
	}
	if !reflect.DeepEqual(t1.Rows, t2.Rows) {
		t.Fatal("chaos sweep tables differ across identical configs")
	}
}
