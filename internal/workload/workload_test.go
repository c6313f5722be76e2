package workload

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"griffin/internal/index"
	"griffin/internal/stats"
)

func smallSpec() CorpusSpec {
	return CorpusSpec{
		NumDocs:    200_000,
		NumTerms:   100,
		MaxListLen: 50_000,
		MinListLen: 100,
		Alpha:      0.9,
		Codec:      index.CodecEF,
		Seed:       7,
	}
}

func TestGenListProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 10, 1000, 100000} {
		ids := GenList(rng, n, 1_000_000)
		if len(ids) == 0 {
			t.Fatalf("n=%d: empty list", n)
		}
		if len(ids) < n*9/10 {
			t.Fatalf("n=%d: generated only %d elements", n, len(ids))
		}
		for i := 1; i < len(ids); i++ {
			if ids[i] <= ids[i-1] {
				t.Fatalf("n=%d: not strictly ascending at %d", n, i)
			}
		}
		if ids[len(ids)-1] >= 1_000_000 {
			t.Fatalf("n=%d: exceeded universe", n)
		}
	}
}

func TestGenListTightUniverse(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	ids := GenList(rng, 100, 50)
	if len(ids) > 50 {
		t.Fatalf("generated %d ids in universe of 50", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("not ascending")
		}
	}
}

func TestGenListZeroN(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if got := GenList(rng, 0, 100); got != nil {
		t.Fatalf("GenList(0) = %v", got)
	}
}

func TestGenPairRatioAndOverlap(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	short, long := GenPair(rng, 1000, 100_000, 10_000_000, 0.5)
	if len(short) == 0 || len(long) == 0 {
		t.Fatal("empty pair")
	}
	ratio := float64(len(long)) / float64(len(short))
	if ratio < 50 || ratio > 200 {
		t.Fatalf("ratio = %v, want ~100", ratio)
	}
	// Overlap should be near 50% of the short list.
	inLong := make(map[uint32]bool, len(long))
	for _, v := range long {
		inLong[v] = true
	}
	matches := 0
	for _, v := range short {
		if inLong[v] {
			matches++
		}
	}
	frac := float64(matches) / float64(len(short))
	if frac < 0.35 || frac > 0.7 {
		t.Fatalf("overlap fraction = %v, want ~0.5", frac)
	}
	if !sort.SliceIsSorted(short, func(i, j int) bool { return short[i] < short[j] }) {
		t.Fatal("short list not sorted")
	}
}

func TestGenerateCorpus(t *testing.T) {
	c, err := GenerateCorpus(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if c.Index.NumTerms() != 100 {
		t.Fatalf("terms = %d", c.Index.NumTerms())
	}
	// Sizes follow the Zipf targets by rank; realized counts jitter a
	// little (random-gap sampling), so allow 5% local non-monotonicity.
	for i := 1; i < len(c.Sizes); i++ {
		if float64(c.Sizes[i]) > float64(c.Sizes[i-1])*1.05 {
			t.Fatalf("sizes not ~monotone at rank %d: %d > %d", i, c.Sizes[i], c.Sizes[i-1])
		}
	}
	if c.Sizes[0] < c.Sizes[len(c.Sizes)-1]*5 {
		t.Fatalf("head/tail size spread too small: %d vs %d", c.Sizes[0], c.Sizes[len(c.Sizes)-1])
	}
	// Every term resolvable, size bookkeeping accurate.
	for r, term := range c.Terms {
		p, ok := c.Index.Lookup(term)
		if !ok {
			t.Fatalf("term %q missing", term)
		}
		if p.N != c.Sizes[r] {
			t.Fatalf("term %q size %d != recorded %d", term, p.N, c.Sizes[r])
		}
	}
	if c.Index.AvgDocLen <= 0 {
		t.Fatal("AvgDocLen not set")
	}
}

func TestGenerateCorpusDeterministic(t *testing.T) {
	c1, err := GenerateCorpus(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	c2, err := GenerateCorpus(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c1.Sizes, c2.Sizes) {
		t.Fatal("same seed produced different corpora")
	}
	p1, _ := c1.Index.Lookup(c1.Terms[0])
	p2, _ := c2.Index.Lookup(c2.Terms[0])
	if !reflect.DeepEqual(p1.EF.Decompress(), p2.EF.Decompress()) {
		t.Fatal("same seed produced different posting lists")
	}
}

func TestGenerateCorpusInvalidSpec(t *testing.T) {
	if _, err := GenerateCorpus(CorpusSpec{}); err == nil {
		t.Fatal("expected error for zero spec")
	}
}

func TestListSizeCDFShape(t *testing.T) {
	// Figure 10's qualitative shape: wide spread of sizes with most mass
	// between MinListLen and MaxListLen.
	c, err := GenerateCorpus(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	sizes := c.Index.ListSizes()
	cdf := stats.CDF(sizes, []int{100, 1000, 10000, 50000})
	if cdf[len(cdf)-1] != 1 {
		t.Fatal("CDF must reach 1 at max size")
	}
	for i := 1; i < len(cdf); i++ {
		if cdf[i] < cdf[i-1] {
			t.Fatal("CDF not monotone")
		}
	}
	if cdf[0] > 0.9 {
		t.Fatal("almost all lists at minimum size: Zipf spread failed")
	}
}

func TestSampleTermCountDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	h := stats.NewHistogram()
	for i := 0; i < 100_000; i++ {
		h.Add(SampleTermCount(rng))
	}
	// Figure 11's anchors within sampling tolerance.
	checks := []struct {
		terms int
		want  float64
	}{{2, 0.27}, {3, 0.33}, {4, 0.24}}
	for _, c := range checks {
		got := h.Fraction(c.terms)
		if got < c.want-0.02 || got > c.want+0.02 {
			t.Fatalf("P(#terms=%d) = %v, want ~%v", c.terms, got, c.want)
		}
	}
	if h.FractionAtLeast(7) > 0.06 {
		t.Fatalf("tail too heavy: %v", h.FractionAtLeast(7))
	}
}

func TestGenerateQueryLog(t *testing.T) {
	c, err := GenerateCorpus(smallSpec())
	if err != nil {
		t.Fatal(err)
	}
	qs := GenerateQueryLog(c, QuerySpec{NumQueries: 500, PopularityAlpha: 0.5, Seed: 6})
	if len(qs) != 500 {
		t.Fatalf("got %d queries", len(qs))
	}
	for qi, q := range qs {
		if len(q.Terms) < 2 {
			t.Fatalf("query %d has %d terms", qi, len(q.Terms))
		}
		seen := map[string]bool{}
		for _, term := range q.Terms {
			if seen[term] {
				t.Fatalf("query %d repeats term %q", qi, term)
			}
			seen[term] = true
			if _, ok := c.Index.Lookup(term); !ok {
				t.Fatalf("query %d references unknown term %q", qi, term)
			}
		}
	}
}

func TestQueryLogDeterministic(t *testing.T) {
	c, _ := GenerateCorpus(smallSpec())
	spec := QuerySpec{NumQueries: 100, PopularityAlpha: 0.5, Seed: 9}
	q1 := GenerateQueryLog(c, spec)
	q2 := GenerateQueryLog(c, spec)
	if !reflect.DeepEqual(q1, q2) {
		t.Fatal("same seed produced different query logs")
	}
}

func TestZipfRankBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, alpha := range []float64{0, 0.5, 1.0, 1.5} {
		for i := 0; i < 10000; i++ {
			r := sampleZipfRank(rng, 50, alpha)
			if r < 0 || r >= 50 {
				t.Fatalf("alpha=%v: rank %d out of bounds", alpha, r)
			}
		}
	}
}

func TestZipfRankSkew(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	low, high := 0, 0
	for i := 0; i < 10000; i++ {
		r := sampleZipfRank(rng, 1000, 1.0)
		if r < 100 {
			low++
		} else if r >= 900 {
			high++
		}
	}
	if low <= high*3 {
		t.Fatalf("Zipf skew too weak: low=%d high=%d", low, high)
	}
}

func BenchmarkGenerateCorpus(b *testing.B) {
	spec := smallSpec()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateCorpus(spec); err != nil {
			b.Fatal(err)
		}
	}
}
