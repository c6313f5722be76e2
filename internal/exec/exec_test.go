package exec

import (
	"testing"
	"time"

	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/rank"
	"griffin/internal/sched"
)

// buildIndex makes a tiny index with lists of the given lengths; list i
// holds multiples of (i+1) so intersections are non-trivial.
func buildIndex(t testing.TB, terms []string, lens []int) *index.Index {
	t.Helper()
	b := index.NewBuilder(index.CodecEF)
	for i, term := range terms {
		ids := make([]uint32, lens[i])
		for j := range ids {
			ids[j] = uint32((j + 1) * (i + 1))
		}
		if err := b.AddPostings(term, ids, nil); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func fetchAll(t testing.TB, ix *index.Index, terms []string) []Fetch {
	t.Helper()
	out := make([]Fetch, len(terms))
	for i, term := range terms {
		pl, ok := ix.Lookup(term)
		if !ok {
			t.Fatalf("term %q missing", term)
		}
		out[i] = Fetch{Term: term, List: pl}
	}
	return out
}

func testContext(ix *index.Index, dev *gpu.Device) *Context {
	return &Context{
		CPU:           hwmodel.DefaultCPU(),
		Device:        dev,
		Scorer:        rank.NewScorer(ix, rank.DefaultBM25()),
		SkipThreshold: 32,
		TopK:          10,
	}
}

// drainPlan collects the full op sequence a builder produces for a fixed
// intermediate-length schedule (lens[i] is the state before step i+1).
func drainPlan(b Builder, lens []int, onDevice bool) []Op {
	var all []Op
	i := 0
	for {
		st := State{OnDevice: onDevice}
		if i < len(lens) {
			st.Len = lens[i]
		}
		ops := b.Next(st)
		if ops == nil {
			return all
		}
		for _, op := range ops {
			if op.Kind == OpIntersect || op.Kind == OpMigrate {
				onDevice = op.Where == sched.GPU && !(op.Kind == OpMigrate)
			}
		}
		all = append(all, ops...)
		i++
	}
}

func kinds(ops []Op) []OpKind {
	out := make([]OpKind, len(ops))
	for i, op := range ops {
		out[i] = op.Kind
	}
	return out
}

func TestCPUBuilderPlanShape(t *testing.T) {
	ix := buildIndex(t, []string{"a", "b", "c"}, []int{100, 200, 400})
	lists := make([]*index.PostingList, 3)
	for i, term := range []string{"a", "b", "c"} {
		lists[i], _ = ix.Lookup(term)
	}
	ops := drainPlan(NewCPUBuilder(lists), []int{100, 50}, false)
	if len(ops) != 2 {
		t.Fatalf("expected 2 intersections, got %d: %v", len(ops), kinds(ops))
	}
	for i, op := range ops {
		if op.Kind != OpIntersect || op.Where != sched.CPU || op.Algo != AlgoCPUAdaptive {
			t.Errorf("op %d: %v/%v/%v, want CPU adaptive intersect", i, op.Kind, op.Where, op.Algo)
		}
	}
	// An emptied intermediate stops the pipeline early.
	ops = drainPlan(NewCPUBuilder(lists), []int{100, 0}, false)
	if len(ops) != 1 {
		t.Fatalf("empty intermediate: expected 1 intersection, got %d", len(ops))
	}
}

func TestGPUBuilderPlanShape(t *testing.T) {
	// Comparable lengths: merge-path with decompressed operands, every
	// upload cacheable.
	ix := buildIndex(t, []string{"a", "b"}, []int{1000, 2000})
	la, _ := ix.Lookup("a")
	lb, _ := ix.Lookup("b")
	ops := drainPlan(NewGPUBuilder([]*index.PostingList{la, lb}, sched.DefaultCrossover), []int{1000, 500}, false)
	want := []OpKind{OpUpload, OpDecompress, OpUpload, OpDecompress, OpIntersect, OpMigrate}
	got := kinds(ops)
	if len(got) != len(want) {
		t.Fatalf("plan %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("plan %v, want %v", got, want)
		}
	}
	if ops[4].Algo != AlgoMergePath {
		t.Errorf("comparable lists: algo %v, want merge-path", ops[4].Algo)
	}
	if !ops[5].Final {
		t.Errorf("drain migrate must be Final")
	}

	// Skewed lengths: binary-skips over the compressed long list, and the
	// long upload must bypass the cache (legacy engine behaviour).
	ix2 := buildIndex(t, []string{"s", "l"}, []int{100, 100_000})
	ls, _ := ix2.Lookup("s")
	ll, _ := ix2.Lookup("l")
	ops = drainPlan(NewGPUBuilder([]*index.PostingList{ls, ll}, sched.DefaultCrossover), []int{100, 50}, false)
	var skips *Op
	for i := range ops {
		if ops[i].Algo == AlgoBinarySkips {
			skips = &ops[i]
		}
	}
	if skips == nil {
		t.Fatalf("skewed lists: no binary-skips intersect in %v", kinds(ops))
	}
	for i := range ops {
		if ops[i].Kind == OpUpload && ops[i].Arg.List == ll && ops[i].Cacheable {
			t.Errorf("binary-skips long upload must not be cacheable")
		}
	}
}

func TestHybridBuilderMigratesOnce(t *testing.T) {
	// Lengths chosen so the ratio policy places step 1 on the GPU
	// (ratio < 128) and step 2 on the CPU (ratio >= 128 after shrink).
	ix := buildIndex(t, []string{"a", "b", "c"}, []int{10_000, 20_000, 60_000})
	lists := make([]*index.PostingList, 3)
	for i, term := range []string{"a", "b", "c"} {
		lists[i], _ = ix.Lookup(term)
	}
	b := NewHybridBuilder(lists, sched.NewRatioPolicy(), sched.DefaultCrossover)
	ops := drainPlan(b, []int{10_000, 50}, false)
	var migrates, gpuIx, cpuIx int
	for _, op := range ops {
		switch {
		case op.Kind == OpMigrate:
			migrates++
			if op.Final {
				t.Errorf("mid-query migrate must not be Final")
			}
		case op.Kind == OpIntersect && op.Where == sched.GPU:
			gpuIx++
		case op.Kind == OpIntersect && op.Where == sched.CPU:
			cpuIx++
		}
	}
	if gpuIx != 1 || cpuIx != 1 || migrates != 1 {
		t.Fatalf("gpu=%d cpu=%d migrates=%d, want 1/1/1 (plan %v)", gpuIx, cpuIx, migrates, kinds(ops))
	}
}

func TestEstimatePositive(t *testing.T) {
	cpu := hwmodel.DefaultCPU()
	gpuM := hwmodel.DefaultGPU()
	ops := []Op{
		{Kind: OpFetch},
		{Kind: OpUpload, Arg: Intermediate(false), ShortLen: 1000},
		{Kind: OpDecompress, LongLen: 1000},
		{Kind: OpIntersect, Algo: AlgoCPUAdaptive, ShortLen: 100, LongLen: 10_000},
		{Kind: OpIntersect, Algo: AlgoMergePath, ShortLen: 1000, LongLen: 2000},
		{Kind: OpIntersect, Algo: AlgoBinarySkips, ShortLen: 100, LongLen: 100_000},
		{Kind: OpMigrate, ShortLen: 500},
		{Kind: OpScore, ShortLen: 100, LongLen: 3},
		{Kind: OpTopK, ShortLen: 100},
	}
	for _, op := range ops {
		if est := op.Estimate(&cpu, &gpuM); est <= 0 {
			t.Errorf("%v/%v: estimate %v, want > 0", op.Kind, op.Algo, est)
		}
	}
}

// TestRunPlanTimeConservation pins the plan-trace invariant the load
// simulator replays: per-operator Took values account for the query's CPU
// and GPU time exactly, with no unattributed residue — the host records
// partition CPUTime, and the device records sum to GPUTime plus the time
// they ran side by side (Overlapped).
func TestRunPlanTimeConservation(t *testing.T) {
	ix := buildIndex(t, []string{"a", "b", "c"}, []int{4000, 9000, 50_000})
	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	ctx := testContext(ix, dev)
	fetches := fetchAll(t, ix, []string{"a", "b", "c"})

	builders := map[string]func([]*index.PostingList) Builder{
		"cpu": func(l []*index.PostingList) Builder { return NewCPUBuilder(l) },
		"gpu": func(l []*index.PostingList) Builder { return NewGPUBuilder(l, sched.DefaultCrossover) },
		"hybrid": func(l []*index.PostingList) Builder {
			return NewHybridBuilder(l, sched.NewRatioPolicy(), sched.DefaultCrossover)
		},
	}
	for name, mk := range builders {
		out, err := Run(ctx, fetches, mk)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var cpuSum, gpuSum time.Duration
		for _, op := range out.Stats.Plan {
			if op.Where == sched.GPU {
				gpuSum += op.Took
			} else {
				cpuSum += op.Took
			}
		}
		if cpuSum != out.Stats.CPUTime {
			t.Errorf("%s: plan CPU %v != stats %v", name, cpuSum, out.Stats.CPUTime)
		}
		if gpuSum-out.Stats.Overlapped != out.Stats.GPUTime {
			t.Errorf("%s: plan GPU %v - overlapped %v != stats %v", name, gpuSum, out.Stats.Overlapped, out.Stats.GPUTime)
		}
		if out.Stats.Latency != out.Stats.CPUTime+out.Stats.GPUTime {
			t.Errorf("%s: latency %v != cpu+gpu", name, out.Stats.Latency)
		}
		if out.Docs == nil {
			t.Errorf("%s: nil Docs", name)
		}
		if len(out.Candidates) != out.Stats.Candidates {
			t.Errorf("%s: candidates %d != stats %d", name, len(out.Candidates), out.Stats.Candidates)
		}
	}
}

// TestRunModesAgree checks all builders produce identical candidates.
func TestRunModesAgree(t *testing.T) {
	ix := buildIndex(t, []string{"a", "b", "c"}, []int{3000, 8000, 40_000})
	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	ctx := testContext(ix, dev)
	fetches := fetchAll(t, ix, []string{"a", "b", "c"})

	ref, err := Run(ctx, fetches, func(l []*index.PostingList) Builder { return NewCPUBuilder(l) })
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Candidates) == 0 {
		t.Fatal("reference intersection is empty; pick better test lists")
	}
	others := map[string]func([]*index.PostingList) Builder{
		"gpu": func(l []*index.PostingList) Builder { return NewGPUBuilder(l, sched.DefaultCrossover) },
		"hybrid": func(l []*index.PostingList) Builder {
			return NewHybridBuilder(l, sched.NewRatioPolicy(), sched.DefaultCrossover)
		},
		"per-query": func(l []*index.PostingList) Builder {
			return NewPerQueryBuilder(l, sched.NewRatioPolicy(), sched.DefaultCrossover)
		},
	}
	for name, mk := range others {
		out, err := Run(ctx, fetches, mk)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(out.Candidates) != len(ref.Candidates) {
			t.Fatalf("%s: %d candidates, cpu got %d", name, len(out.Candidates), len(ref.Candidates))
		}
		for i := range ref.Candidates {
			if out.Candidates[i] != ref.Candidates[i] {
				t.Fatalf("%s: candidate[%d] = %d, cpu got %d", name, i, out.Candidates[i], ref.Candidates[i])
			}
		}
	}
}
