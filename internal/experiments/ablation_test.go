package experiments

import (
	"testing"
)

func TestPolicyAblationShape(t *testing.T) {
	cfg, c, queries := extensionFixtures(t)
	res, table, err := RunPolicyAblation(cfg, c, queries)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, table)
	if res.RatioMean <= 0 || res.CostMean <= 0 {
		t.Fatalf("zero latencies: %+v", res)
	}
	// The two policies proxy the same trade-off: neither should be more
	// than 50% worse than the other on a realistic query mix.
	hi, lo := res.RatioMean, res.CostMean
	if hi < lo {
		hi, lo = lo, hi
	}
	if float64(hi) > float64(lo)*1.5 {
		t.Fatalf("policies diverge too much: ratio %v vs cost %v\n%s",
			res.RatioMean, res.CostMean, table.Render())
	}
}

func TestTableCSVAndSlug(t *testing.T) {
	table := &Table{
		Title:  "Figure 99: Something, with commas",
		Header: []string{"a", "b,c"},
		Rows:   [][]string{{"1", "x\"y"}},
		Notes:  []string{"note"},
	}
	csv := table.CSV()
	want := "a,\"b,c\"\n1,\"x\"\"y\"\n# note\n"
	if csv != want {
		t.Fatalf("CSV = %q, want %q", csv, want)
	}
	if got := table.Slug(); got != "figure_99" {
		t.Fatalf("Slug = %q", got)
	}
}
