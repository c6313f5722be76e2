package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"griffin/internal/exec"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/sched"
	"griffin/internal/workload"
)

// testCorpus builds a small synthetic corpus with enough spread that
// queries exercise both low- and high-ratio intersections.
func testCorpus(t testing.TB) *workload.Corpus {
	t.Helper()
	c, err := workload.GenerateCorpus(workload.CorpusSpec{
		NumDocs:    300_000,
		NumTerms:   60,
		MaxListLen: 80_000,
		MinListLen: 200,
		Alpha:      1.0,
		Seed:       42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newEngines(t testing.TB, c *workload.Corpus) (cpu, gpuE, hyb *Engine) {
	t.Helper()
	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	var err error
	cpu, err = New(c.Index, Config{Mode: CPUOnly})
	if err != nil {
		t.Fatal(err)
	}
	gpuE, err = New(c.Index, Config{Mode: GPUOnly, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	hyb, err = New(c.Index, Config{Mode: Hybrid, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	return cpu, gpuE, hyb
}

func docIDsOf(r *Result) []uint32 {
	out := make([]uint32, len(r.Docs))
	for i, d := range r.Docs {
		out[i] = d.DocID
	}
	return out
}

// intersects returns the plan's intersection records in execution order.
func intersects(plan []PlanRecord) []PlanRecord {
	var out []PlanRecord
	for _, rec := range plan {
		if rec.Kind == exec.OpIntersect {
			out = append(out, rec)
		}
	}
	return out
}

func TestModesAgreeOnResults(t *testing.T) {
	c := testCorpus(t)
	cpuE, gpuE, hybE := newEngines(t, c)
	queries := workload.GenerateQueryLog(c, workload.QuerySpec{
		NumQueries: 40, PopularityAlpha: 0.6, Seed: 5,
	})
	for qi, q := range queries {
		rc, err := cpuE.Search(q.Terms)
		if err != nil {
			t.Fatal(err)
		}
		rg, err := gpuE.Search(q.Terms)
		if err != nil {
			t.Fatal(err)
		}
		rh, err := hybE.Search(q.Terms)
		if err != nil {
			t.Fatal(err)
		}
		if rc.Stats.Candidates != rg.Stats.Candidates || rc.Stats.Candidates != rh.Stats.Candidates {
			t.Fatalf("query %d %v: candidates cpu=%d gpu=%d hybrid=%d",
				qi, q.Terms, rc.Stats.Candidates, rg.Stats.Candidates, rh.Stats.Candidates)
		}
		if !reflect.DeepEqual(docIDsOf(rc), docIDsOf(rg)) {
			t.Fatalf("query %d: cpu and gpu top-k differ: %v vs %v", qi, docIDsOf(rc), docIDsOf(rg))
		}
		if !reflect.DeepEqual(docIDsOf(rc), docIDsOf(rh)) {
			t.Fatalf("query %d: cpu and hybrid top-k differ: %v vs %v", qi, docIDsOf(rc), docIDsOf(rh))
		}
	}
}

func TestSearchResultsAreCorrect(t *testing.T) {
	// Hand-built index with a known conjunction.
	b := index.NewBuilder(index.CodecEF)
	_ = b.AddPostings("x", []uint32{1, 5, 9, 12, 30}, nil)
	_ = b.AddPostings("y", []uint32{5, 9, 11, 30, 31}, nil)
	_ = b.AddPostings("z", []uint32{2, 5, 30}, nil)
	for _, d := range []uint32{1, 2, 5, 9, 11, 12, 30, 31} {
		b.SetDocLen(d, 10)
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(ix, Config{Mode: CPUOnly, TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Search([]string{"x", "y", "z"})
	if err != nil {
		t.Fatal(err)
	}
	got := docIDsOf(res)
	want := map[uint32]bool{5: true, 30: true}
	if len(got) != 2 || !want[got[0]] || !want[got[1]] {
		t.Fatalf("conjunction = %v, want {5,30}", got)
	}
	if res.Stats.Candidates != 2 {
		t.Fatalf("candidates = %d", res.Stats.Candidates)
	}
}

func TestMissingTermEmptyResult(t *testing.T) {
	c := testCorpus(t)
	cpuE, _, hybE := newEngines(t, c)
	for _, e := range []*Engine{cpuE, hybE} {
		res, err := e.Search([]string{c.Terms[0], "no-such-term"})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Docs) != 0 || res.Stats.Candidates != 0 {
			t.Fatal("missing term must empty the conjunction")
		}
	}
}

func TestEmptyQuery(t *testing.T) {
	c := testCorpus(t)
	cpuE, _, _ := newEngines(t, c)
	res, err := cpuE.Search(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Docs) != 0 {
		t.Fatal("empty query must return nothing")
	}
}

func TestSingleTermQuery(t *testing.T) {
	c := testCorpus(t)
	cpuE, gpuE, hybE := newEngines(t, c)
	term := c.Terms[len(c.Terms)-1] // rarest
	for _, e := range []*Engine{cpuE, gpuE, hybE} {
		res, err := e.Search([]string{term})
		if err != nil {
			t.Fatal(err)
		}
		pl, _ := c.Index.Lookup(term)
		if res.Stats.Candidates != pl.N {
			t.Fatalf("%v: candidates = %d, want %d", e.Mode(), res.Stats.Candidates, pl.N)
		}
		if len(res.Docs) == 0 || len(res.Docs) > 10 {
			t.Fatalf("%v: got %d docs", e.Mode(), len(res.Docs))
		}
	}
}

func TestTopKOrdering(t *testing.T) {
	c := testCorpus(t)
	cpuE, _, _ := newEngines(t, c)
	res, err := cpuE.Search([]string{c.Terms[0], c.Terms[1]})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Docs); i++ {
		if res.Docs[i].Score > res.Docs[i-1].Score {
			t.Fatal("top-k not in descending score order")
		}
	}
}

func TestGPUModeRequiresDevice(t *testing.T) {
	c := testCorpus(t)
	if _, err := New(c.Index, Config{Mode: GPUOnly}); err == nil {
		t.Fatal("GPUOnly without device must fail")
	}
	if _, err := New(c.Index, Config{Mode: Hybrid}); err == nil {
		t.Fatal("Hybrid without device must fail")
	}
}

func TestHybridMigration(t *testing.T) {
	// Craft a query whose first intersection is comparable (GPU) and whose
	// follow-up list is enormously longer (CPU): the query must migrate.
	b := index.NewBuilder(index.CodecEF)
	rng := rand.New(rand.NewSource(9))
	shortA := workload.GenList(rng, 5_000, 3_000_000)
	shortB := workload.GenList(rng, 6_000, 3_000_000)
	huge := workload.GenList(rng, 2_000_000, 3_000_000)
	_ = b.AddPostings("a", shortA, nil)
	_ = b.AddPostings("b", shortB, nil)
	_ = b.AddPostings("huge", huge, nil)
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	e, err := New(ix, Config{Mode: Hybrid, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Search([]string{"a", "b", "huge"})
	if err != nil {
		t.Fatal(err)
	}
	ops := intersects(res.Stats.Plan)
	if len(ops) != 2 {
		t.Fatalf("expected 2 intersections, got %d", len(ops))
	}
	if ops[0].Where != sched.GPU {
		t.Fatalf("first intersection on %v, want GPU (short side %d)", ops[0].Where, ops[0].NIn)
	}
	if ops[1].Where != sched.CPU {
		t.Fatalf("second intersection on %v, want CPU (short side %d)", ops[1].Where, ops[1].NIn)
	}
	if !res.Stats.Migrated {
		t.Fatal("Migrated flag not set")
	}
	if res.Stats.GPUTime == 0 || res.Stats.CPUTime == 0 {
		t.Fatalf("expected time on both processors: %+v", res.Stats)
	}
}

func TestHybridAllCPUWhenFirstRatioHigh(t *testing.T) {
	// First pair already above the crossover: the whole query runs on the
	// CPU (the paper's "scheduler first decides" rule).
	b := index.NewBuilder(index.CodecEF)
	rng := rand.New(rand.NewSource(10))
	tiny := workload.GenList(rng, 100, 3_000_000)
	huge := workload.GenList(rng, 100*200, 3_000_000)
	_ = b.AddPostings("tiny", tiny, nil)
	_ = b.AddPostings("huge", huge, nil)
	ix, _ := b.Build()
	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	e, _ := New(ix, Config{Mode: Hybrid, Device: dev})
	res, err := e.Search([]string{"tiny", "huge"})
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range intersects(res.Stats.Plan) {
		if op.Where != sched.CPU {
			t.Fatalf("intersection %d on %v, want CPU", i, op.Where)
		}
	}
	if res.Stats.GPUTime != 0 {
		t.Fatalf("GPU time %v on an all-CPU query", res.Stats.GPUTime)
	}
}

func TestStatsLatencyIsSumOfParts(t *testing.T) {
	c := testCorpus(t)
	_, _, hybE := newEngines(t, c)
	res, err := hybE.Search([]string{c.Terms[0], c.Terms[3], c.Terms[10]})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Latency != res.Stats.CPUTime+res.Stats.GPUTime {
		t.Fatalf("latency %v != cpu %v + gpu %v", res.Stats.Latency, res.Stats.CPUTime, res.Stats.GPUTime)
	}
	if res.Stats.Latency == 0 {
		t.Fatal("zero simulated latency")
	}
}

func TestDeviceMemoryReleasedAfterQueries(t *testing.T) {
	c := testCorpus(t)
	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	e, err := New(c.Index, Config{Mode: GPUOnly, Device: dev})
	if err != nil {
		t.Fatal(err)
	}
	queries := workload.GenerateQueryLog(c, workload.QuerySpec{NumQueries: 10, PopularityAlpha: 0.5, Seed: 11})
	for _, q := range queries {
		if _, err := e.Search(q.Terms); err != nil {
			t.Fatal(err)
		}
	}
	if got := dev.Allocated(); got != 0 {
		t.Fatalf("device leaked %d bytes after queries", got)
	}
}

func TestGriffinNotSlowerThanBothBaselines(t *testing.T) {
	// The Figure 14 shape on aggregate: Griffin's mean simulated latency
	// over a query log must not exceed either baseline's (it picks the
	// better processor per op, paying only small transfer costs).
	//
	// This effect needs paper-scale lists: with tiny lists the GPU's fixed
	// overheads dominate everywhere and the CPU wins every op (the <2x
	// region of Figure 12), so the corpus here uses 20K-1M element lists
	// like the paper's (Figure 10: most lists between 1K and 1M).
	c, err := workload.GenerateCorpus(workload.CorpusSpec{
		NumDocs:    4_000_000,
		NumTerms:   40,
		MaxListLen: 1_000_000,
		MinListLen: 20_000,
		Alpha:      0.8,
		Seed:       13,
	})
	if err != nil {
		t.Fatal(err)
	}
	cpuE, gpuE, hybE := newEngines(t, c)
	queries := workload.GenerateQueryLog(c, workload.QuerySpec{NumQueries: 25, PopularityAlpha: 0.6, Seed: 12})

	var cpuTot, gpuTot, hybTot float64
	for _, q := range queries {
		rc, err := cpuE.Search(q.Terms)
		if err != nil {
			t.Fatal(err)
		}
		rg, err := gpuE.Search(q.Terms)
		if err != nil {
			t.Fatal(err)
		}
		rh, err := hybE.Search(q.Terms)
		if err != nil {
			t.Fatal(err)
		}
		cpuTot += rc.Stats.Latency.Seconds()
		gpuTot += rg.Stats.Latency.Seconds()
		hybTot += rh.Stats.Latency.Seconds()
	}
	if hybTot > cpuTot*1.05 {
		t.Fatalf("griffin (%.4fs) slower than cpu-only (%.4fs)", hybTot, cpuTot)
	}
	if hybTot > gpuTot*1.05 {
		t.Fatalf("griffin (%.4fs) slower than gpu-only (%.4fs)", hybTot, gpuTot)
	}
}

func TestSearchDeterministic(t *testing.T) {
	// The whole pipeline is deterministic: the same sequence of queries on
	// a fresh engine yields identical results AND identical simulated
	// latencies, at any host parallelism — the property that makes
	// recorded experiment numbers reproducible. Within one engine a repeat
	// takes exactly as long as the first run: no state of the device
	// outlives a query.
	c := testCorpus(t)
	q := []string{c.Terms[1], c.Terms[4], c.Terms[9]}
	run := func(e *Engine) [3]*Result {
		var rs [3]*Result
		for i := range rs {
			r, err := e.Search(q)
			if err != nil {
				t.Fatal(err)
			}
			rs[i] = r
		}
		return rs
	}
	_, gpuA, hybA := newEngines(t, c)
	_, gpuB, hybB := newEngines(t, c)
	for _, pair := range [][2]*Engine{{gpuA, gpuB}, {hybA, hybB}} {
		a, b := run(pair[0]), run(pair[1])
		mode := pair[0].Mode()
		for i := range a {
			if !reflect.DeepEqual(docIDsOf(a[i]), docIDsOf(a[0])) {
				t.Fatalf("%v: results differ across runs", mode)
			}
			if !reflect.DeepEqual(docIDsOf(a[i]), docIDsOf(b[i])) || a[i].Stats.Latency != b[i].Stats.Latency {
				t.Fatalf("%v: run %d differs between two fresh engines: %v vs %v",
					mode, i, a[i].Stats.Latency, b[i].Stats.Latency)
			}
		}
		if a[1].Stats.Latency != a[0].Stats.Latency || a[2].Stats.Latency != a[1].Stats.Latency {
			t.Fatalf("%v: simulated latency of repeats: %v, %v, %v",
				mode, a[0].Stats.Latency, a[1].Stats.Latency, a[2].Stats.Latency)
		}
	}
}

// A Hybrid query over two comparable lists allocates on the host about
// what its answer takes, not what its operands decode to: a decoded list is
// a view of the compressed one, MergePath decodes a tile of it at a time,
// and the intersection's output is made at its match count. Two 200 k-
// posting lists sharing ~10 % of their docIDs cost at most 1.5 B per
// operand posting a query; a decoded copy of both alone is 4 B.
func TestHybridQueryAllocatesUnderItsOperands(t *testing.T) {
	const n, universe, reps = 200_000, 2_000_000, 4
	rng := rand.New(rand.NewSource(15))
	b := index.NewBuilder(index.CodecEF)
	for _, term := range []string{"a", "b"} {
		if err := b.AddPostings(term, workload.GenList(rng, n, universe), nil); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(ix, Config{Mode: Hybrid, Device: gpu.New(hwmodel.DefaultGPU(), 0)})
	if err != nil {
		t.Fatal(err)
	}
	q := []string{"a", "b"}
	// The first run stocks the device's pool; the repeats are what a
	// serving engine pays.
	res, err := e.Search(q)
	if err != nil {
		t.Fatal(err)
	}
	merged := false
	for _, op := range res.Stats.Plan {
		merged = merged || op.Kind == exec.OpIntersect && op.Algo == exec.AlgoMergePath
	}
	if !merged || res.Stats.Candidates < n/20 || res.Stats.Candidates > n/5 {
		t.Fatalf("want a device MergePath over ~10 %% overlap: merged %v, %d candidates", merged, res.Stats.Candidates)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range reps {
		if _, err := e.Search(q); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perPosting := float64(after.TotalAlloc-before.TotalAlloc) / reps / (2 * n)
	if perPosting > 1.5 {
		t.Errorf("a query allocates %.2f B per operand posting, want <= 1.5", perPosting)
	}
	t.Logf("%.2f B per operand posting, %d candidates", perPosting, res.Stats.Candidates)
}

func BenchmarkSearchCPUOnly(b *testing.B) {
	c := testCorpus(b)
	e, _ := New(c.Index, Config{Mode: CPUOnly})
	q := []string{c.Terms[2], c.Terms[5], c.Terms[20]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Search(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchHybrid(b *testing.B) {
	c := testCorpus(b)
	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	e, _ := New(c.Index, Config{Mode: Hybrid, Device: dev})
	q := []string{c.Terms[2], c.Terms[5], c.Terms[20]}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Search(q); err != nil {
			b.Fatal(err)
		}
	}
}
