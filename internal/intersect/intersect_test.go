package intersect

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"griffin/internal/ef"
	"griffin/internal/index"
)

func refIntersect(a, b []uint32) []uint32 {
	var out []uint32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func genWithOverlap(rng *rand.Rand, nA, nB int, overlap float64) (a, b []uint32) {
	universe := (nA + nB) * 4
	seen := map[uint32]bool{}
	for len(seen) < nA {
		seen[uint32(rng.Intn(universe))] = true
	}
	for v := range seen {
		a = append(a, v)
	}
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })

	setB := map[uint32]bool{}
	for _, v := range a {
		if rng.Float64() < overlap && len(setB) < nB {
			setB[v] = true
		}
	}
	for len(setB) < nB {
		setB[uint32(rng.Intn(universe))] = true
	}
	for v := range setB {
		b = append(b, v)
	}
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return a, b
}

func efView(t testing.TB, ids []uint32) index.BlockList {
	t.Helper()
	l, err := ef.Compress(ids)
	if err != nil {
		t.Fatal(err)
	}
	return index.EFView{L: l}
}

func TestMergeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	for _, tc := range []struct {
		nA, nB  int
		overlap float64
	}{
		{5, 5, 0.5}, {100, 120, 0.3}, {1000, 900, 0.1},
		{128, 128, 1.0}, {1, 1, 1.0}, {50, 5000, 0.9},
	} {
		a, b := genWithOverlap(rng, tc.nA, tc.nB, tc.overlap)
		want := refIntersect(a, b)
		got := Merge(efView(t, a), efView(t, b))
		if !reflect.DeepEqual(got.IDs, want) {
			t.Fatalf("nA=%d nB=%d: merge mismatch", tc.nA, tc.nB)
		}
		// Two different BlockLists must agree too.
		got2 := Merge(index.RawView{IDs: a}, efView(t, b))
		if !reflect.DeepEqual(got2.IDs, want) {
			t.Fatalf("nA=%d nB=%d: raw-by-EF merge mismatch", tc.nA, tc.nB)
		}
	}
}

func TestMergeEmpty(t *testing.T) {
	got := Merge(efView(t, nil), efView(t, []uint32{1, 2, 3}))
	if len(got.IDs) != 0 {
		t.Fatal("merge with empty list must be empty")
	}
}

func TestMergeWorkAccounting(t *testing.T) {
	a := []uint32{1, 2, 3, 4, 5}
	b := []uint32{3, 4, 5, 6, 7}
	got := Merge(efView(t, a), efView(t, b))
	if got.Work.EFDecodedElems != 10 {
		t.Fatalf("EFDecodedElems = %d, want 10", got.Work.EFDecodedElems)
	}
	if got.Work.MergedElements == 0 {
		t.Fatal("merge reported zero merged elements")
	}
	// Raw views are copied, not decoded: 4 bytes an element, no decode.
	got2 := Merge(index.RawView{IDs: a}, index.RawView{IDs: b})
	if got2.Work.BytesTouched != 4*10 || got2.Work.EFDecodedElems != 0 {
		t.Fatalf("raw charge wrong: %+v", got2.Work)
	}
}

func TestSkipSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for _, tc := range []struct {
		nA, nB  int
		overlap float64
	}{
		{10, 10000, 0.8}, {100, 100000, 0.5}, {1, 1000, 1.0}, {64, 8192, 0.0},
	} {
		a, b := genWithOverlap(rng, tc.nA, tc.nB, tc.overlap)
		want := refIntersect(a, b)
		got := SkipSearch(efView(t, a), efView(t, b))
		if !reflect.DeepEqual(got.IDs, want) {
			t.Fatalf("nA=%d nB=%d: skip search mismatch: got %d want %d",
				tc.nA, tc.nB, len(got.IDs), len(want))
		}
	}
}

func TestSkipSearchSkipsBlocks(t *testing.T) {
	// Short list hits only the first and last long-list blocks; decode
	// work must cover candidate blocks only, far below the full list.
	n := 128 * 100
	long := make([]uint32, n)
	for i := range long {
		long[i] = uint32(i * 3)
	}
	short := []uint32{long[5], long[n-5]}
	got := SkipSearch(index.RawView{IDs: short}, efView(t, long))
	if !reflect.DeepEqual(got.IDs, short) {
		t.Fatalf("matches = %v", got.IDs)
	}
	if got.Work.EFDecodedElems > 3*index.BlockSize {
		t.Fatalf("decoded %d elements; skipping failed", got.Work.EFDecodedElems)
	}
}

func TestSkipSearchValueBeforeAllBlocks(t *testing.T) {
	long := []uint32{100, 200, 300}
	short := []uint32{1, 100}
	got := SkipSearch(index.RawView{IDs: short}, efView(t, long))
	if !reflect.DeepEqual(got.IDs, []uint32{100}) {
		t.Fatalf("got %v, want [100]", got.IDs)
	}
}

func TestPairChoosesAlgorithmByRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	// Very high ratio and sparse probes: skip search with in-place select.
	short, long := genWithOverlap(rng, 50, 50_000, 0.5)
	got := Pair(efView(t, short), efView(t, long), 0)
	if got.Work.CachedProbes == 0 || got.Work.SelectProbes == 0 {
		t.Fatalf("sparse high-ratio Pair did not use select-based skip search: %+v", got.Work)
	}
	// High ratio but dense probes (more short elements than long blocks):
	// skip search decodes candidate blocks instead of selecting.
	short2, long2 := genWithOverlap(rng, 3_000, 3_000*DefaultSkipThreshold*2, 0.5)
	got = Pair(efView(t, short2), efView(t, long2), 0)
	if got.Work.CachedProbes == 0 || got.Work.BinaryProbes == 0 || got.Work.SelectProbes != 0 {
		t.Fatalf("dense high-ratio Pair did not use decode-based skip search: %+v", got.Work)
	}
	// Comparable lengths: merge profile (no probes).
	a, b := genWithOverlap(rng, 1000, 1200, 0.3)
	got = Pair(efView(t, a), efView(t, b), 0)
	if got.Work.CachedProbes != 0 || got.Work.SelectProbes != 0 {
		t.Fatal("comparable-length Pair did not use merge")
	}
	if !reflect.DeepEqual(got.IDs, refIntersect(a, b)) {
		t.Fatal("Pair result mismatch")
	}
}

func TestPairOrientationIrrelevant(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	a, b := genWithOverlap(rng, 50, 5000, 0.6)
	r1 := Pair(efView(t, a), efView(t, b), 0)
	r2 := Pair(efView(t, b), efView(t, a), 0)
	if !reflect.DeepEqual(r1.IDs, r2.IDs) {
		t.Fatal("Pair(a,b) != Pair(b,a)")
	}
}

func TestOrderByLength(t *testing.T) {
	lists := []index.BlockList{
		index.RawView{IDs: make([]uint32, 50)},
		index.RawView{IDs: make([]uint32, 5)},
		index.RawView{IDs: make([]uint32, 500)},
		index.RawView{IDs: make([]uint32, 20)},
	}
	got := OrderByLength(lists)
	want := []int{1, 3, 0, 2}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
}

func TestSvSPaperExample(t *testing.T) {
	// §2.1.2's example: PPoPP ∩ Austria ∩ 2018 = (11, 15, 38, 60).
	ppopp := []uint32{11, 15, 17, 38, 60}
	austria := []uint32{3, 5, 8, 11, 13, 15, 17, 38, 46, 60, 65}
	y2018 := []uint32{2, 4, 6, 11, 13, 14, 15, 19, 25, 33, 38, 60, 70}
	res := SvS([]index.BlockList{
		efView(t, y2018), efView(t, ppopp), efView(t, austria),
	}, 0)
	want := []uint32{11, 15, 38, 60}
	if !reflect.DeepEqual(res.IDs, want) {
		t.Fatalf("SvS = %v, want %v", res.IDs, want)
	}
}

func TestSvSEarlyTermination(t *testing.T) {
	// Two disjoint short lists empty the intermediate; the huge third list
	// must not be decoded at all.
	huge := make([]uint32, 128*1000)
	for i := range huge {
		huge[i] = uint32(i * 2)
	}
	res := SvS([]index.BlockList{
		efView(t, []uint32{1, 3, 5}),
		efView(t, []uint32{7, 9, 11}),
		efView(t, huge),
	}, 0)
	if len(res.IDs) != 0 {
		t.Fatal("expected empty result")
	}
	if res.Work.EFDecodedElems > 6 {
		t.Fatalf("decoded %d elements; early termination failed", res.Work.EFDecodedElems)
	}
}

func TestSvSSingleList(t *testing.T) {
	ids := []uint32{5, 10, 15}
	res := SvS([]index.BlockList{efView(t, ids)}, 0)
	if !reflect.DeepEqual(res.IDs, ids) {
		t.Fatalf("single-list SvS = %v", res.IDs)
	}
}

func TestSvSNoLists(t *testing.T) {
	res := SvS(nil, 0)
	if len(res.IDs) != 0 {
		t.Fatal("empty SvS must be empty")
	}
}

func TestSvSQuick(t *testing.T) {
	f := func(rawA, rawB, rawC []uint16) bool {
		a, b, c := dedup(rawA), dedup(rawB), dedup(rawC)
		if len(a) == 0 || len(b) == 0 || len(c) == 0 {
			return true
		}
		var views []index.BlockList
		for _, ids := range [][]uint32{a, b, c} {
			l, err := ef.Compress(ids)
			if err != nil {
				return false
			}
			views = append(views, index.EFView{L: l})
		}
		want := refIntersect(refIntersect(a, b), c)
		got := SvS(views, 0)
		return reflect.DeepEqual(got.IDs, want) ||
			(len(got.IDs) == 0 && len(want) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func dedup(raw []uint16) []uint32 {
	seen := map[uint32]bool{}
	var out []uint32
	for _, v := range raw {
		if !seen[uint32(v)] {
			seen[uint32(v)] = true
			out = append(out, uint32(v))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func BenchmarkMerge100K(b *testing.B) {
	rng := rand.New(rand.NewSource(84))
	x, y := genWithOverlap(rng, 100000, 100000, 0.2)
	va, vb := efView(b, x), efView(b, y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Merge(va, vb)
	}
}

func BenchmarkSkipSearch100x100K(b *testing.B) {
	rng := rand.New(rand.NewSource(85))
	x, y := genWithOverlap(rng, 100, 100000, 0.5)
	va, vb := efView(b, x), efView(b, y)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SkipSearch(va, vb)
	}
}
