package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"griffin/internal/core"
	"griffin/internal/index"
)

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("percentile(empty) = %v, want 0", got)
	}
	if got := midmean([]float64{100, 1, 2, 3, 4, 5, 6, -50}); got != 3.5 {
		t.Errorf("midmean drops a quarter from each end: got %v, want 3.5", got)
	}
	if got := midmean([]float64{4, 2}); got != 3 {
		t.Errorf("midmean of two values = %v, want their mean", got)
	}
	if got := percentile([]float64{7}, 50); got != 7 {
		t.Errorf("percentile(single) = %v, want 7", got)
	}
	in := []float64{3, 1, 2}
	if s := sortedCopy(in); s[0] != 1 || in[0] != 3 {
		t.Errorf("sortedCopy must sort a copy: got %v, input now %v", s, in)
	}
}

func TestPassScheduleIsSeededAndRepeats(t *testing.T) {
	a, lenA := passSchedule(200, 100, 0.2, 42)
	b, lenB := passSchedule(200, 100, 0.2, 42)
	if len(a) != len(b) || lenA != lenB {
		t.Fatalf("one seed gave passes of %d and %d arrivals, %v and %v long", len(a), len(b), lenA, lenB)
	}
	reads, writes := 0, 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs between two draws of one seed: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i].due < a[i-1].due {
			t.Fatalf("arrival %d due before its predecessor", i)
		}
		if a[i].query < 0 {
			writes++
		} else if a[i].query != reads {
			t.Fatalf("read %d asks log position %d", reads, a[i].query)
		} else {
			reads++
		}
	}
	if reads != 100 || writes == 0 || writes > 60 {
		t.Errorf("%d reads and %d writes, want 100 reads and about 25 writes", reads, writes)
	}
	if lenA <= a[len(a)-1].due || lenA < 400*time.Millisecond || lenA > 900*time.Millisecond {
		t.Errorf("pass of 125 arrivals at 200/s is %v long, last due %v", lenA, a[len(a)-1].due)
	}
	if c, _ := passSchedule(200, 100, 0.2, 43); c[0] == a[0] {
		t.Errorf("a different seed gave the same first arrival")
	}

	rep := repeatSchedule(a, lenA, 3*lenA+lenA/2)
	if len(rep) != 3*len(a) {
		t.Fatalf("%d arrivals in 3.5 pass lengths, want 3 whole passes = %d", len(rep), 3*len(a))
	}
	for i, r := range rep {
		k, j := i/len(a), i%len(a)
		if r.pass != k || r.query != a[j].query || r.due != a[j].due+time.Duration(k)*lenA {
			t.Fatalf("arrival %d = %+v, want pass %d of %+v", i, r, k, a[j])
		}
	}
	if one := repeatSchedule(a, lenA, lenA/2); len(one) != len(a) {
		t.Errorf("a phase shorter than a pass must still run one pass, got %d arrivals", len(one))
	}
}

// A slow first request must be charged to the arrivals queued behind it:
// latency counts from the due time, and the generator's own lateness is
// reported as lag.
func TestRunOpenTimesFromDueAndReportsLag(t *testing.T) {
	sched := []arrival{{due: 0}, {due: 10 * time.Millisecond}, {due: 20 * time.Millisecond}}
	service := []time.Duration{60 * time.Millisecond, time.Millisecond, time.Millisecond}
	timings, elapsed := runOpen(sched, 1, func(_, i int, _ arrival) { time.Sleep(service[i]) })

	if timings[0].lag > 20*time.Millisecond {
		t.Errorf("first arrival lag %v, want about 0", timings[0].lag)
	}
	if timings[0].lat < 60*time.Millisecond {
		t.Errorf("first arrival latency %v, want at least its 60ms service", timings[0].lat)
	}
	// Arrival 1 was due at 10ms but the only sender was busy until 60ms.
	if timings[1].lag < 45*time.Millisecond {
		t.Errorf("second arrival lag %v, want about 50ms", timings[1].lag)
	}
	if timings[1].lat < timings[1].lag+time.Millisecond {
		t.Errorf("second arrival latency %v must include its lag %v plus service", timings[1].lat, timings[1].lag)
	}
	if timings[2].lag < 35*time.Millisecond {
		t.Errorf("third arrival lag %v, want about 41ms", timings[2].lag)
	}
	if elapsed < 62*time.Millisecond {
		t.Errorf("elapsed %v, want at least the serialized service time", elapsed)
	}

	// With a second sender the stall no longer delays the others.
	timings, _ = runOpen(sched, 2, func(_, i int, _ arrival) { time.Sleep(service[i]) })
	if timings[1].lag > 30*time.Millisecond {
		t.Errorf("two senders: second arrival lag %v, want near 0", timings[1].lag)
	}
}

func threeDocIndex(t *testing.T) *index.Index {
	t.Helper()
	b := index.NewBuilder(index.CodecEF)
	for id, toks := range [][]string{
		{"aa", "bb", "aa"},
		{"aa", "cc"},
		{"aa", "bb", "cc", "bb", "bb"},
	} {
		if err := b.AddDocument(uint32(id), toks); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestReferenceOnThreeDocuments(t *testing.T) {
	ix := threeDocIndex(t)
	ref := newReference(ix)
	eng, err := core.New(ix, core.Config{Mode: core.CPUOnly})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		terms []string
		docs  []uint32 // expected members, any order
	}{
		{[]string{"aa", "bb"}, []uint32{0, 2}},
		{[]string{"bb", "cc"}, []uint32{2}},
		{[]string{"aa"}, []uint32{0, 1, 2}},
		{[]string{"aa", "zz"}, nil},
	} {
		got := ref.topK(c.terms)
		if len(got) != len(c.docs) {
			t.Fatalf("%v: reference returned %v, want docs %v", c.terms, got, c.docs)
		}
		members := map[uint32]bool{}
		for _, d := range got {
			members[d.DocID] = true
		}
		for _, d := range c.docs {
			if !members[d] {
				t.Errorf("%v: reference %v lacks doc %d", c.terms, got, d)
			}
		}
		if !wellFormed(got) {
			t.Errorf("%v: reference %v is not in rank order", c.terms, got)
		}
		res, err := eng.SearchContext(context.Background(), c.terms)
		if err != nil {
			t.Fatal(err)
		}
		if !sameDocs(res.Docs, got) {
			t.Errorf("%v: engine %v, reference %v", c.terms, res.Docs, got)
		}
	}
	if got := intersectSorted([]uint32{1, 3, 5, 7}, []uint32{2, 3, 4, 7, 9}); len(got) != 2 || got[0] != 3 || got[1] != 7 {
		t.Errorf("intersectSorted = %v, want [3 7]", got)
	}
}

// BENCHMARK.json and the metric catalog in metrics.go state the same
// contract; neither may drift from the other.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(doc.Workloads), len(workloads))
	}
	for i, w := range doc.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, benchmark has %q / %q", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	if len(endToEndMetrics) != 13 {
		t.Errorf("%d end-to-end metrics in the catalog, the issue names 13", len(endToEndMetrics))
	}
	e2e := driverEndToEnd()
	if len(doc.EndToEnd) != len(e2e) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the catalog", len(doc.EndToEnd), len(e2e))
	}
	for i, m := range doc.EndToEnd {
		d := e2e[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, catalog %+v", i, m, d)
		}
	}
	layer := driverPerLayer()
	if len(doc.PerLayer) != len(layer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the catalog", len(doc.PerLayer), len(layer))
	}
	for i, m := range doc.PerLayer {
		d := layer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, catalog %+v", i, m, d)
		}
	}
}

func TestCompareReports(t *testing.T) {
	mk := func(scale float64, modeled float64) []*report {
		wr := &workloadReport{Name: "search_cpu", Correct: true, EndToEnd: map[string]metric{}, PerLayer: map[string]metric{}}
		for _, d := range endToEndMetrics {
			switch {
			case d.Workload != "" && d.Workload != wr.Name:
			case d.Exact:
				wr.EndToEnd[d.Name] = metric{Value: modeled, Unit: d.Unit}
			default:
				wr.EndToEnd[d.Name] = metric{Value: 10 * scale, Unit: d.Unit}
			}
		}
		return []*report{{Workloads: []*workloadReport{wr}}}
	}
	var out bytes.Buffer
	if !compareReports(&out, mk(1, 0.5), mk(1.03, 0.5)) {
		t.Errorf("3%% apart with equal modeled metrics must pass:\n%s", out.String())
	}
	out.Reset()
	if compareReports(&out, mk(1, 0.5), mk(1.27, 0.5)) {
		t.Errorf("27%% apart exceeds the 25%% bounds and must fail:\n%s", out.String())
	}
	out.Reset()
	if compareReports(&out, mk(1, 0.5), mk(1, 0.5000001)) {
		t.Errorf("an exact metric that differs must fail:\n%s", out.String())
	}
	bad := mk(1, 0.5)
	bad[0].Workloads[0].Correct = false
	if compareReports(&out, mk(1, 0.5), bad) {
		t.Errorf("a report whose output check failed must fail the comparison")
	}
	// Sets of runs are compared by their medians: one outlier per side
	// does not fail the comparison, a shifted median does.
	set := func(scales ...float64) []*report {
		var out []*report
		for _, s := range scales {
			out = append(out, mk(s, 0.5)...)
		}
		return out
	}
	out.Reset()
	if !compareReports(&out, set(1, 1.02, 1.4), set(0.7, 1.01, 1.03)) {
		t.Errorf("medians 1.02 and 1.01 must pass despite the outliers:\n%s", out.String())
	}
	if compareReports(&out, set(1, 1.02, 1.04), set(1.3, 1.31, 0.9)) {
		t.Errorf("medians 1.02 and 1.30 must fail")
	}
	// A side whose own runs spread beyond the bound cannot be judged: the
	// metric is reported as unresolved and does not fail the comparison.
	out.Reset()
	if !compareReports(&out, set(1, 1.01, 1.02, 1.03, 1.04), set(0.5, 0.9, 1.5, 2, 2.5)) || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a side spreading 70%% must be reported as unresolved, not judged:\n%s", out.String())
	}
	// mixed_ingest alone carries the write acknowledgement metrics.
	mixed := func(ack float64) []*report {
		r := mk(1, 0.5)
		r[0].Workloads[0].Name = "mixed_ingest"
		r[0].Workloads[0].EndToEnd["write_ack_p50_ms"] = metric{Value: ack, Unit: "ms"}
		r[0].Workloads[0].EndToEnd["write_ack_p99_ms"] = metric{Value: 10, Unit: "ms"}
		return r
	}
	out.Reset()
	if compareReports(&out, mixed(1), mixed(1.5)) || !strings.Contains(out.String(), "write_ack_p50_ms") {
		t.Errorf("a write acknowledgement 50%% slower must fail on mixed_ingest:\n%s", out.String())
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := quartileSpread(v), (8.25-2.75)/5.5; got != want {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, want)
	}
	// statistics.quantiles([1, 2, 4, 8], n=4) = [1.25, 3.0, 7.0]
	if got, want := quartileSpread([]float64{1, 2, 4, 8}), (7.0-1.25)/3.0; got != want {
		t.Errorf("quartileSpread(1,2,4,8) = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{1, 2, 3}); got != 0 {
		t.Errorf("three values have no quartile spread here, got %v", got)
	}
}

// TestSmoke runs the whole benchmark — build the server, spawn it per
// workload, closed and open loop, output check, kill -9 recovery, traced
// pass — on a tiny fixture with 1 s phases, so the benchmark cannot rot
// unnoticed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns real server processes")
	}
	dir := t.TempDir()
	o := &options{
		smoke: true, seed: 7, seconds: 2, trace: 1,
		outDir: filepath.Join(dir, "out"),
	}
	t.Cleanup(janitor.run)
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	rep, err := readReport(filepath.Join(o.outDir, "report.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the report, want %d", len(rep.Workloads), len(workloads))
	}
	for _, wr := range rep.Workloads {
		if !wr.Correct || wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d: %v", wr.Name, wr.Correct, wr.Failed, wr.Attempted, wr.FailReasons)
		}
		for _, d := range endToEndMetrics {
			if d.Workload != "" && d.Workload != wr.Name {
				continue
			}
			m, ok := wr.EndToEnd[d.Name]
			if !ok || (m.Value <= 0) != (d.Name == "failed_share") {
				t.Errorf("%s: end-to-end metric %s = %+v, want a positive value (0 for failed_share)", wr.Name, d.Name, m)
			}
		}
		for _, d := range perLayerMetrics {
			if _, ok := wr.PerLayer[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", wr.Name, d.Name)
			}
		}
		for _, traced := range []bool{false, true} {
			if _, err := contractLine(wr, traced); err != nil {
				t.Errorf("%s: contract line (traced %v): %v", wr.Name, traced, err)
			}
		}
	}
	if fi, err := os.Stat(filepath.Join(o.outDir, "spans.json")); err != nil || fi.Size() == 0 {
		t.Errorf("span file missing or empty: %v", err)
	}
	var out bytes.Buffer
	if !compareReports(&out, []*report{rep}, []*report{rep}) {
		t.Errorf("a report must agree with itself:\n%s", out.String())
	}
}

// A server that exits before it is healthy must fail the run at once, with
// its log tail, instead of hanging until the health timeout.
func TestStartServerReportsEarlyExit(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "fake-server")
	script := "#!/bin/sh\necho 'fake server: refusing to start' >&2\nexit 3\n"
	if err := os.WriteFile(bin, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	_, err := startServer(bin, nil, filepath.Join(dir, "server.log"), newHTTPClient(1))
	if err == nil {
		t.Fatal("startServer succeeded on a binary that exits at once")
	}
	if !strings.Contains(err.Error(), "refusing to start") || !strings.Contains(err.Error(), "exited before becoming healthy") {
		t.Errorf("error lacks the cause or the log tail: %v", err)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Errorf("took %v to notice the exit", d)
	}
	janitor.mu.Lock()
	left := len(janitor.children)
	janitor.mu.Unlock()
	if left != 0 {
		t.Errorf("%d children still registered after the failure", left)
	}
}
