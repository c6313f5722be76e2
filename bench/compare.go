package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
)

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// readSide loads one side of a comparison: one report file, or several
// separated by commas, whose per-metric medians are then compared. On a
// machine where two single runs of one commit differ by more than a bound,
// sets of runs are the only comparison that holds.
func readSide(arg string) ([]*report, error) {
	var out []*report
	for _, path := range strings.Split(arg, ",") {
		r, err := readReport(path)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// (median) values, the relative difference and the bound, and returns the
// exit code: 1 when any difference exceeds its bound or any exact metric
// differs. Where a side is a set of four or more runs whose own spread
// exceeds the bound, the metric is reported as unresolved and not judged.
func compareFiles(w io.Writer, argA, argB string) int {
	a, err := readSide(argA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -compare:", err)
		return 2
	}
	b, err := readSide(argB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench -compare:", err)
		return 2
	}
	if !compareReports(w, a, b) {
		return 1
	}
	return 0
}

// sideValues collects one metric of one workload over a side's reports.
// ok is false when a report lacks the workload or the metric.
func sideValues(side []*report, workload, name string, perLayer bool) (vals []float64, ok bool) {
	for _, r := range side {
		found := false
		for _, wr := range r.Workloads {
			if wr.Name != workload {
				continue
			}
			src := wr.EndToEnd
			if perLayer {
				src = wr.PerLayer
			}
			if m, has := src[name]; has {
				vals, found = append(vals, m.Value), true
			}
		}
		if !found {
			return nil, false
		}
	}
	return vals, true
}

// allEqual reports whether every value on both sides is the same number.
func allEqual(a, b []float64) bool {
	for _, v := range append(append([]float64(nil), a...), b...) {
		if v != a[0] {
			return false
		}
	}
	return true
}

func compareReports(w io.Writer, a, b []*report) bool {
	ok, unresolved := true, 0
	pa, pb := a[0].Provenance, b[0].Provenance
	if pa.Seed != pb.Seed || pa.Phases != pb.Phases || a[0].Fixture != b[0].Fixture {
		fmt.Fprintf(w, "NOTE: seeds, phase lengths or fixtures differ (a: seed %d %+v, b: seed %d %+v); exact metrics are expected to differ\n",
			pa.Seed, pa.Phases, pb.Seed, pb.Phases)
	}
	fmt.Fprintf(w, "medians of %d report(s) against %d\n", len(a), len(b))
	fmt.Fprintf(w, "%-15s %-18s %14s %14s %9s %8s  %s\n", "workload", "metric", "a", "b", "diff", "bound", "verdict")
	for _, wa := range a[0].Workloads {
		for _, side := range [][]*report{a, b} {
			for _, r := range side {
				for _, wr := range r.Workloads {
					if wr.Name == wa.Name && !wr.Correct {
						fmt.Fprintf(w, "%-15s output check failed in a report (%d of %d operations)\n", wa.Name, wr.Failed, wr.Attempted)
						ok = false
					}
				}
			}
		}
		for _, def := range endToEndMetrics {
			if def.Workload != "" && def.Workload != wa.Name {
				continue
			}
			va, okA := sideValues(a, wa.Name, def.Name, false)
			vb, okB := sideValues(b, wa.Name, def.Name, false)
			if !okA || !okB {
				fmt.Fprintf(w, "%-15s %-18s missing from a report\n", wa.Name, def.Name)
				ok = false
				continue
			}
			ma, mb := median(va), median(vb)
			diff := relDiff(ma, mb)
			verdict, bound := "ok", fmt.Sprintf("%.0f%%", def.Bound*100)
			sa, sb := quartileSpread(va), quartileSpread(vb)
			switch {
			case def.Exact:
				bound = "exact"
				if !allEqual(va, vb) {
					verdict, ok = "DIFFERS", false
				}
			case sa > def.Bound || sb > def.Bound:
				// A side's own runs disagree by more than the bound, so
				// the difference of the medians says nothing either way.
				unresolved++
				verdict = fmt.Sprintf("unresolved (runs of one side spread %.0f%% / %.0f%%)", sa*100, sb*100)
			case math.Abs(diff) > def.Bound:
				ok = false
				if (diff > 0) == (def.Better == "higher") {
					verdict = "BEYOND BOUND (better)"
				} else {
					verdict = "BEYOND BOUND (worse)"
				}
			}
			fmt.Fprintf(w, "%-15s %-18s %14.6g %14.6g %+8.2f%% %8s  %s\n", wa.Name, def.Name, ma, mb, diff*100, bound, verdict)
		}
		// Exact per-layer counts, when every report carries them (-trace 1).
		for _, def := range perLayerMetrics {
			if !def.Exact {
				continue
			}
			va, okA := sideValues(a, wa.Name, def.Name, true)
			vb, okB := sideValues(b, wa.Name, def.Name, true)
			if okA && okB && !allEqual(va, vb) {
				fmt.Fprintf(w, "%-15s %-18s %14.6g %14.6g %+8.2f%% %8s  DIFFERS\n", wa.Name, def.Name, median(va), median(vb), relDiff(median(va), median(vb))*100, "exact")
				ok = false
			}
		}
	}
	if unresolved > 0 {
		fmt.Fprintf(w, "compare: %d metric(s) unresolved: not judged, neither as changed nor as unchanged\n", unresolved)
	}
	if ok {
		fmt.Fprintln(w, "compare: all judged differences within bounds, exact metrics identical")
	} else {
		fmt.Fprintln(w, "compare: FAILED")
	}
	return ok
}

// quartileSpread is the distance between the first and the third quartile
// of v as a share of its median, the quartiles being those of Python's
// statistics.quantiles(v, n=4), which the driver uses. Fewer than four
// values have no spread to speak of: it returns 0.
func quartileSpread(v []float64) float64 {
	n := len(v)
	if n < 4 {
		return 0
	}
	s := sortedCopy(v)
	q := func(i int) float64 {
		j, d := i*(n+1)/4, float64(i*(n+1)%4) // 1 <= j <= n-1 once n >= 4
		return (s[j-1]*(4-d) + s[j]*d) / 4
	}
	if q(2) == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(q(2))
}

// relDiff is (b-a)/a, or 0 when both are 0.
func relDiff(a, b float64) float64 {
	if a == b {
		return 0
	}
	if a == 0 {
		return math.Inf(1)
	}
	return (b - a) / math.Abs(a)
}

// sweepPoint is one rate of the off-contract -rates study.
type sweepPoint struct {
	Workload string  `json:"workload"`
	RateOps  float64 `json:"rate_ops"`
	Achieved float64 `json:"achieved_rate"`
	P50MS    float64 `json:"open_p50_ms"`
	P99MS    float64 `json:"open_p99_ms"`
	LagP99MS float64 `json:"lag_p99_ms"`
	Failed   int     `json:"failed"`
}

// runSweep repeats the workload at each rate (a fresh server each time)
// and keeps the open-loop numbers: a study tool, not part of the contract.
func runSweep(e *runEnv, w *workloadDef, rates []float64) ([]sweepPoint, error) {
	var out []sweepPoint
	for _, rate := range rates {
		wr, err := runWorkload(e, w, rate)
		if err != nil {
			return nil, err
		}
		out = append(out, sweepPoint{
			Workload: w.Name, RateOps: rate,
			Achieved: wr.PerLayer["loadgen.achieved_rate"].Value,
			P50MS:    wr.EndToEnd["open_p50_ms"].Value,
			P99MS:    wr.EndToEnd["open_p99_ms"].Value,
			LagP99MS: wr.PerLayer["loadgen.lag_p99_ms"].Value,
			Failed:   wr.Failed,
		})
	}
	return out, nil
}

func printSweep(w io.Writer, pts []sweepPoint) {
	if len(pts) == 0 {
		return
	}
	fmt.Fprintf(w, "\n%-15s %9s %9s %10s %10s %10s %7s\n", "workload", "rate", "achieved", "p50 ms", "p99 ms", "lag p99", "failed")
	for _, p := range pts {
		fmt.Fprintf(w, "%-15s %9.0f %9.1f %10.3f %10.3f %10.3f %7d\n", p.Workload, p.RateOps, p.Achieved, p.P50MS, p.P99MS, p.LagP99MS, p.Failed)
	}
}
