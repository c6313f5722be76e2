package experiments

import (
	"reflect"
	"testing"
)

// TestOverloadSweepShape checks the headline robustness claims: the
// hardened arm holds interactive goodput at and past saturation while
// the baseline collapses, nothing is shed at light load, and the
// retry/hedge token grants never exceed the budget bound.
func TestOverloadSweepShape(t *testing.T) {
	cfg := testConfig()
	cfg.Scale = 0.05
	res, table, err := RunOverloadSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, table)
	if len(res.Points) != 6 || len(table.Rows) != 6 {
		t.Fatalf("expected 6 sweep points, got %d (%d rows)", len(res.Points), len(table.Rows))
	}
	if res.Deadline <= 0 || res.Saturation <= 0 {
		t.Fatalf("calibration failed: deadline %v saturation %v", res.Deadline, res.Saturation)
	}
	byMult := map[float64]OverloadPoint{}
	for _, p := range res.Points {
		byMult[p.Multiplier] = p
	}

	// Light load: nothing shed, nobody degraded, both arms near-perfect.
	light := byMult[0.2]
	if light.Sheds != 0 || light.BrownoutDegraded != 0 {
		t.Errorf("0.2x sheds=%d degraded=%d, want 0/0\n%s", light.Sheds, light.BrownoutDegraded, table.Render())
	}
	if light.Goodput < 0.99 || light.BaselineGoodput < 0.99 {
		t.Errorf("0.2x goodput hardened=%.3f baseline=%.3f, want >= 0.99\n%s",
			light.Goodput, light.BaselineGoodput, table.Render())
	}

	// Past saturation: hardened holds interactive goodput, baseline
	// collapses under its unbounded backlog.
	for _, mult := range []float64{2, 3} {
		p := byMult[mult]
		if p.Goodput < 0.9 {
			t.Errorf("%.0fx hardened interactive goodput %.3f, want >= 0.9\n%s", mult, p.Goodput, table.Render())
		}
		if p.BaselineGoodput >= 0.5 {
			t.Errorf("%.0fx baseline goodput %.3f did not collapse (want < 0.5)\n%s", mult, p.BaselineGoodput, table.Render())
		}
		if p.BaselineGoodput >= p.Goodput {
			t.Errorf("%.0fx baseline %.3f >= hardened %.3f\n%s", mult, p.BaselineGoodput, p.Goodput, table.Render())
		}
	}

	// The overload machinery must actually engage somewhere past 1x.
	var engaged bool
	for _, mult := range []float64{1.5, 2, 3} {
		p := byMult[mult]
		if p.Sheds > 0 || p.BrownoutDegraded > 0 {
			engaged = true
		}
	}
	if !engaged {
		t.Errorf("no sheds or brownout degradation at any overloaded point\n%s", table.Render())
	}

	// Metastability bound: token grants never exceed burst + ratio x
	// admissions, at every load level.
	for _, p := range res.Points {
		if float64(p.TokensGranted) > p.TokenBound+1e-6 {
			t.Errorf("%.1fx granted %d retry/hedge tokens, bound %.1f\n%s",
				p.Multiplier, p.TokensGranted, p.TokenBound, table.Render())
		}
	}
}

// TestOverloadSweepDeterministic pins seeded reproducibility: the same
// Config yields the identical result and table bit for bit.
func TestOverloadSweepDeterministic(t *testing.T) {
	cfg := testConfig()
	cfg.Scale = 0.05
	r1, t1, err := RunOverloadSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r2, t2, err := RunOverloadSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatal("overload sweep results differ across identical runs")
	}
	if !reflect.DeepEqual(t1.Rows, t2.Rows) {
		t.Fatal("overload sweep tables differ across identical runs")
	}
}
