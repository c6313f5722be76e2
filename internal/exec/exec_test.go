package exec

import (
	"fmt"
	"reflect"
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
func drainPlan(b Builder, lens []int) []Op {
	var all []Op
	onDevice := false
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

// modes are the four execution modes of Figure 1 (a)–(d) as the
// placement policies core hands the one builder.
var modes = []struct {
	name   string
	policy sched.Policy
}{
	{"cpu-only", sched.AlwaysPolicy{Target: sched.CPU}},
	{"gpu-only", sched.AlwaysPolicy{Target: sched.GPU}},
	{"per-query-hybrid", &sched.PerQueryPolicy{Inner: sched.NewRatioPolicy()}},
	{"griffin", sched.NewRatioPolicy()},
}

// planFor is Run's builder argument under policy p.
func planFor(p sched.Policy) func([]*index.PostingList) Builder {
	return func(l []*index.PostingList) Builder { return NewHybridBuilder(l, p, sched.DefaultCrossover) }
}

// script places the i-th intersection on script[i]: a non-sticky policy
// (as LoadAwarePolicy's per-operation spill is) reduced to its answers.
type script []sched.Processor

func (s *script) Decide(short, long int) sched.Decision {
	d := sched.Decision{Where: (*s)[0], Ratio: sched.Ratio(short, long)}
	*s = (*s)[1:]
	return d
}

func (s *script) Fresh() sched.Policy {
	c := *s
	return &c
}

// opSig is what the plan table pins of each operator.
type opSig struct {
	Kind             OpKind
	Where            sched.Processor
	Algo             Algo
	Final, Cacheable bool
}

var (
	cpuIx   = opSig{Kind: OpIntersect, Where: sched.CPU, Algo: AlgoCPUAdaptive}
	decode  = opSig{Kind: OpIntersect, Where: sched.CPU, Algo: AlgoCPUDecode}
	upload  = opSig{Kind: OpUpload, Where: sched.GPU}
	upCache = opSig{Kind: OpUpload, Where: sched.GPU, Cacheable: true}
	decomp  = opSig{Kind: OpDecompress, Where: sched.GPU}
	merge   = opSig{Kind: OpIntersect, Where: sched.GPU, Algo: AlgoMergePath}
	skips   = opSig{Kind: OpIntersect, Where: sched.GPU, Algo: AlgoBinarySkips}
	migrate = opSig{Kind: OpMigrate, Where: sched.GPU}
	drain   = opSig{Kind: OpMigrate, Where: sched.GPU, Final: true}
)

// TestBuilderPlans pins the one builder's plan, operator by operator,
// under each mode's policy. The expected plans are what the parent's four
// builder types emitted, except "empty first list": an empty intermediate
// now ends every mode's plan before any intersection, where CPU-only,
// GPU-only and per-query ran one intersection on the empty list.
func TestBuilderPlans(t *testing.T) {
	// concat joins plan fragments into one expected plan.
	concat := func(parts ...[]opSig) []opSig {
		var out []opSig
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	gpuFirst := []opSig{upCache, decomp, upCache, decomp, merge} // first step, comparable lists
	cases := []struct {
		name  string
		lens  []int // posting-list lengths, SvS order
		steps []int // the intermediate's length before each step
		want  map[string][]opSig
	}{
		{"single term", []int{1000}, []int{1000}, map[string][]opSig{
			"cpu-only":         {decode},
			"gpu-only":         {upCache, decomp, drain},
			"per-query-hybrid": {decode},
			"griffin":          {decode},
		}},
		{"empty first list", []int{0, 1000}, []int{0}, map[string][]opSig{
			"cpu-only": nil, "gpu-only": nil, "per-query-hybrid": nil, "griffin": nil,
		}},
		{"comparable lists", []int{1000, 2000}, []int{1000, 500}, map[string][]opSig{
			"cpu-only":         {cpuIx},
			"gpu-only":         concat(gpuFirst, []opSig{drain}),
			"per-query-hybrid": concat(gpuFirst, []opSig{drain}),
			"griffin":          concat(gpuFirst, []opSig{drain}),
		}},
		// Binary-skips probes the compressed long list, whose upload
		// bypasses the cache.
		{"skewed lists", []int{100, 100_000}, []int{100, 50}, map[string][]opSig{
			"cpu-only":         {cpuIx},
			"gpu-only":         {upCache, decomp, upload, skips, drain},
			"per-query-hybrid": {cpuIx},
			"griffin":          {cpuIx},
		}},
		{"intermediate empties mid-plan", []int{1000, 2000, 4000}, []int{1000, 0}, map[string][]opSig{
			"cpu-only":         {cpuIx},
			"gpu-only":         concat(gpuFirst, []opSig{drain}),
			"per-query-hybrid": concat(gpuFirst, []opSig{drain}),
			"griffin":          concat(gpuFirst, []opSig{drain}),
		}},
		// Step 1 sits below the crossover, step 2 far above it once the
		// intermediate has shrunk: only Griffin changes processor.
		{"hybrid migrates once", []int{10_000, 20_000, 60_000}, []int{10_000, 50}, map[string][]opSig{
			"cpu-only":         {cpuIx, cpuIx},
			"gpu-only":         concat(gpuFirst, []opSig{upload, skips, drain}),
			"per-query-hybrid": concat(gpuFirst, []opSig{upload, skips, drain}),
			"griffin":          concat(gpuFirst, []opSig{migrate, cpuIx}),
		}},
		{"non-sticky re-upload", []int{1000, 2000, 4000}, []int{1000, 500}, map[string][]opSig{
			"cpu-only":         {cpuIx, cpuIx},
			"gpu-only":         concat(gpuFirst, []opSig{upCache, decomp, merge, drain}),
			"per-query-hybrid": concat(gpuFirst, []opSig{upCache, decomp, merge, drain}),
			"griffin":          concat(gpuFirst, []opSig{upCache, decomp, merge, drain}),
			// Spilled to the host, then back: the host intermediate is
			// uploaded raw (never cached) before the device step.
			"cpu then gpu": {cpuIx, upload, upCache, decomp, merge, drain},
		}},
	}
	policies := map[string]sched.Policy{"cpu then gpu": &script{sched.CPU, sched.GPU}}
	for _, m := range modes {
		policies[m.name] = m.policy
	}
	for _, c := range cases {
		terms := make([]string, len(c.lens))
		for i := range terms {
			terms[i] = fmt.Sprintf("t%d", i)
		}
		ix := buildIndex(t, terms, c.lens)
		lists := make([]*index.PostingList, len(terms))
		for i, term := range terms {
			lists[i], _ = ix.Lookup(term)
		}
		for name, want := range c.want {
			t.Run(c.name+"/"+name, func(t *testing.T) {
				var got []opSig
				for _, op := range drainPlan(NewHybridBuilder(lists, policies[name], sched.DefaultCrossover), c.steps) {
					got = append(got, opSig{op.Kind, op.Where, op.Algo, op.Final, op.Cacheable})
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("plan\n got  %+v\n want %+v", got, want)
				}
			})
		}
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

	for _, m := range modes {
		name := m.name
		out, err := Run(ctx, fetches, planFor(m.policy))
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

// TestRunModesAgree checks all modes produce identical candidates.
func TestRunModesAgree(t *testing.T) {
	ix := buildIndex(t, []string{"a", "b", "c"}, []int{3000, 8000, 40_000})
	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	ctx := testContext(ix, dev)
	fetches := fetchAll(t, ix, []string{"a", "b", "c"})

	ref, err := Run(ctx, fetches, planFor(modes[0].policy))
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Candidates) == 0 {
		t.Fatal("reference intersection is empty; pick better test lists")
	}
	for _, m := range modes[1:] {
		name := m.name
		out, err := Run(ctx, fetches, planFor(m.policy))
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
