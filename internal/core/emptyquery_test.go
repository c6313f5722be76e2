package core

import (
	"testing"

	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
)

// Unknown terms make a conjunctive query empty; the engine must still
// return a well-formed result — non-nil Docs, fetch ops in the plan
// trace, and a latency covering the dictionary probes — in every mode,
// rather than a zero Result.
func TestSearchEmptyAndUnknownTerms(t *testing.T) {
	c := testCorpus(t)
	known := c.Index.Terms()[0]
	known2 := c.Index.Terms()[1]

	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	engines := map[string]*Engine{}
	for _, m := range []Mode{CPUOnly, GPUOnly, Hybrid, PerQueryHybrid} {
		cfg := Config{Mode: m}
		if m != CPUOnly {
			cfg.Device = dev
		}
		e, err := New(c.Index, cfg)
		if err != nil {
			t.Fatal(err)
		}
		engines[m.String()] = e
	}

	cases := []struct {
		name      string
		terms     []string
		wantDocs  bool // expect a non-empty top-k
		wantFetch int  // fetch ops expected in the plan trace
	}{
		{name: "empty query", terms: nil, wantFetch: 0},
		{name: "one unknown term", terms: []string{known, "no-such-term"}, wantFetch: 2},
		{name: "unknown first", terms: []string{"no-such-term", known, known2}, wantFetch: 3},
		{name: "all unknown", terms: []string{"missing-a", "missing-b"}, wantFetch: 2},
		{name: "known terms", terms: []string{known, known2}, wantDocs: true, wantFetch: 2},
	}

	for name, e := range engines {
		for _, tc := range cases {
			res, err := e.Search(tc.terms)
			if err != nil {
				t.Fatalf("%s/%s: %v", name, tc.name, err)
			}
			if res.Docs == nil {
				t.Errorf("%s/%s: Docs is nil, want non-nil slice", name, tc.name)
			}
			if tc.wantDocs && len(res.Docs) == 0 {
				t.Errorf("%s/%s: expected results, got none", name, tc.name)
			}
			if !tc.wantDocs && len(res.Docs) != 0 {
				t.Errorf("%s/%s: expected empty result, got %d docs", name, tc.name, len(res.Docs))
			}
			fetches := 0
			for _, op := range res.Stats.Plan {
				if op.Kind.String() == "fetch" {
					fetches++
				}
			}
			if fetches != tc.wantFetch {
				t.Errorf("%s/%s: %d fetch ops, want %d", name, tc.name, fetches, tc.wantFetch)
			}
			if tc.wantFetch > 0 && res.Stats.Latency <= 0 {
				t.Errorf("%s/%s: latency %v, want > 0 (fetch probes are priced)", name, tc.name, res.Stats.Latency)
			}
			if res.Stats.Latency != res.Stats.CPUTime+res.Stats.GPUTime {
				t.Errorf("%s/%s: latency %v != cpu %v + gpu %v", name, tc.name,
					res.Stats.Latency, res.Stats.CPUTime, res.Stats.GPUTime)
			}
			// An empty conjunction must not reach the intersection stage.
			if n := len(intersects(res.Stats.Plan)); !tc.wantDocs && n != 0 {
				t.Errorf("%s/%s: %d intersections on an empty conjunction", name, tc.name, n)
			}
		}
	}
}
