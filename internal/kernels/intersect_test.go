package kernels

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"griffin/internal/ef"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
)

// refIntersect is the trusted reference: two-pointer intersection.
func refIntersect(a, b []uint32) []uint32 {
	out := []uint32{}
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

// genWithOverlap builds two ascending lists sharing roughly overlap
// fraction of the shorter list's elements.
func genWithOverlap(rng *rand.Rand, nA, nB int, overlap float64) (a, b []uint32) {
	universe := (nA + nB) * 4
	perm := rng.Perm(universe)
	setA := map[uint32]bool{}
	for len(setA) < nA {
		setA[uint32(perm[len(setA)])] = true
	}
	a = make([]uint32, 0, nA)
	for v := range setA {
		a = append(a, v)
	}
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })

	setB := map[uint32]bool{}
	// Seed shared elements from a.
	for _, v := range a {
		if rng.Float64() < overlap && len(setB) < nB {
			setB[v] = true
		}
	}
	for len(setB) < nB {
		setB[uint32(rng.Intn(universe))] = true
	}
	b = make([]uint32, 0, nB)
	for v := range setB {
		b = append(b, v)
	}
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	return a, b
}

// matches returns the docIDs a device intersection found.
func matches(r *IntersectResult) []uint32 { return IDs(r.Out.Data) }

func upload(t testing.TB, s *gpu.Stream, vals []uint32) *gpu.Buffer {
	t.Helper()
	buf, err := s.H2D(vals, int64(len(vals))*4)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestMergePathPaperExample(t *testing.T) {
	// Figure 6: A=(1,3,4,6,7,9,15,25,31), B=(1,3,7,10,18,25,31),
	// intersection (1,3,7,25,31).
	s := newStream()
	a := []uint32{1, 3, 4, 6, 7, 9, 15, 25, 31}
	b := []uint32{1, 3, 7, 10, 18, 25, 31}
	res, err := IntersectMergePath(s, upload(t, s, a), upload(t, s, b))
	if err != nil {
		t.Fatal(err)
	}
	want := []uint32{1, 3, 7, 25, 31}
	if !reflect.DeepEqual(matches(res), want) {
		t.Fatalf("got %v want %v", matches(res), want)
	}
}

func TestMergePathMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(50))
	s := newStream()
	for _, tc := range []struct {
		nA, nB  int
		overlap float64
	}{
		{10, 10, 0.5}, {100, 100, 0.3}, {1000, 1000, 0.1},
		{1000, 5000, 0.8}, {5000, 100000, 0.5}, {100000, 100000, 0.05},
		{1, 100000, 1.0}, {3, 7, 0},
	} {
		a, b := genWithOverlap(rng, tc.nA, tc.nB, tc.overlap)
		res, err := IntersectMergePath(s, upload(t, s, a), upload(t, s, b))
		if err != nil {
			t.Fatal(err)
		}
		want := refIntersect(a, b)
		if !reflect.DeepEqual(matches(res), want) {
			t.Fatalf("nA=%d nB=%d: got %d matches, want %d", tc.nA, tc.nB, res.Count, len(want))
		}
	}
}

func TestMergePathDisjoint(t *testing.T) {
	s := newStream()
	a := []uint32{2, 4, 6, 8}
	b := []uint32{1, 3, 5, 7, 9}
	res, err := IntersectMergePath(s, upload(t, s, a), upload(t, s, b))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 {
		t.Fatalf("disjoint lists produced %d matches", res.Count)
	}
}

func TestMergePathEmpty(t *testing.T) {
	s := newStream()
	res, err := IntersectMergePath(s, upload(t, s, nil), upload(t, s, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 {
		t.Fatalf("empty lists produced %d matches", res.Count)
	}
	res, err = IntersectMergePath(s, upload(t, s, []uint32{1, 2}), upload(t, s, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 {
		t.Fatalf("one empty list produced %d matches", res.Count)
	}
}

func TestMergePathQuick(t *testing.T) {
	s := newStream()
	f := func(rawA, rawB []uint16) bool {
		a := dedupSort(rawA)
		b := dedupSort(rawB)
		res, err := IntersectMergePath(s, mustUpload(s, a), mustUpload(s, b))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(matches(res), refIntersect(a, b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func dedupSort(raw []uint16) []uint32 {
	seen := map[uint32]bool{}
	var out []uint32
	for _, v := range raw {
		if !seen[uint32(v)] {
			seen[uint32(v)] = true
			out = append(out, uint32(v))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if out == nil {
		out = []uint32{}
	}
	return out
}

// dedupAscending removes duplicates from an already-sorted slice.
func dedupAscending(vals []uint32) []uint32 {
	out := vals[:0]
	for i, v := range vals {
		if i == 0 || v != vals[i-1] {
			out = append(out, v)
		}
	}
	return out
}

func mustUpload(s *gpu.Stream, vals []uint32) *gpu.Buffer {
	buf, err := s.H2D(vals, int64(len(vals))*4)
	if err != nil {
		panic(err)
	}
	return buf
}

func TestBinarySearchIntersectMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	s := newStream()
	for _, tc := range []struct {
		nA, nB  int
		overlap float64
	}{
		{10, 10000, 0.9}, {100, 100000, 0.5}, {1000, 1000, 0.2}, {1, 50, 1.0},
	} {
		a, b := genWithOverlap(rng, tc.nA, tc.nB, tc.overlap)
		res, err := IntersectBinarySearch(s, upload(t, s, a), upload(t, s, b))
		if err != nil {
			t.Fatal(err)
		}
		want := refIntersect(a, b)
		if !reflect.DeepEqual(matches(res), want) {
			t.Fatalf("nA=%d nB=%d: got %d matches, want %d", tc.nA, tc.nB, res.Count, len(want))
		}
	}
}

func TestBinarySearchEmpty(t *testing.T) {
	s := newStream()
	res, err := IntersectBinarySearch(s, upload(t, s, nil), upload(t, s, []uint32{1}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 0 {
		t.Fatal("empty short list must produce no matches")
	}
}

func TestBinarySkipsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	s := newStream()
	for _, tc := range []struct {
		nA, nB  int
		overlap float64
	}{
		{10, 100000, 0.9}, {100, 500000, 0.5}, {500, 100000, 0.0}, {1, 300, 1.0},
	} {
		a, b := genWithOverlap(rng, tc.nA, tc.nB, tc.overlap)
		longList, err := ef.Compress(b)
		if err != nil {
			t.Fatal(err)
		}
		longBuf, err := UploadEF(s, longList)
		if err != nil {
			t.Fatal(err)
		}
		res, err := IntersectBinarySkips(s, upload(t, s, a), longBuf)
		if err != nil {
			t.Fatal(err)
		}
		want := refIntersect(a, b)
		if !reflect.DeepEqual(matches(res), want) {
			t.Fatalf("nA=%d nB=%d: got %d matches, want %d", tc.nA, tc.nB, res.Count, len(want))
		}
	}
}

func TestBinarySkipsValueBelowAllBlocks(t *testing.T) {
	s := newStream()
	b := []uint32{100, 200, 300}
	longList, _ := ef.Compress(b)
	longBuf, _ := UploadEF(s, longList)
	res, err := IntersectBinarySkips(s, upload(t, s, []uint32{1, 100, 99}), longBuf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(matches(res), []uint32{100}) {
		t.Fatalf("got %v want [100]", matches(res))
	}
}

func TestBinarySkipsDecompressesOnlyNeededBlocks(t *testing.T) {
	// Probing a high-ratio pair (1K short vs 8M long, lambda = 8192) should
	// touch at most 1K of the long list's 64K blocks, so the post-upload
	// simulated cost must be well below fully decompressing the long list.
	rng := rand.New(rand.NewSource(53))
	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	b := genAscending(rng, 1<<23, 20)
	longList, _ := ef.Compress(b)
	a := make([]uint32, 1024)
	for i := range a {
		a[i] = b[rng.Intn(len(b))]
	}
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	a = dedupAscending(a)

	sSkips := dev.NewStream()
	longBuf, _ := UploadEF(sSkips, longList)
	aBuf := mustUpload(sSkips, a)
	base := sSkips.Elapsed()
	if _, err := IntersectBinarySkips(sSkips, aBuf, longBuf); err != nil {
		t.Fatal(err)
	}
	skipsCost := sSkips.Elapsed() - base

	sFull := dev.NewStream()
	longBuf2, _ := UploadEF(sFull, longList)
	base = sFull.Elapsed()
	if _, _, err := ParaEFDecompress(sFull, longBuf2); err != nil {
		t.Fatal(err)
	}
	fullCost := sFull.Elapsed() - base

	if skipsCost >= fullCost {
		t.Fatalf("skip-based path %v not cheaper than full decompression %v", skipsCost, fullCost)
	}
}

func TestScanExclusive(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	s := newStream()
	for _, n := range []int{0, 1, 127, 128, 129, 1000, 10000} {
		vals := make([]int32, n)
		for i := range vals {
			vals[i] = int32(rng.Intn(10))
		}
		offsets, total, _ := ScanExclusive(s, vals)
		var acc int64
		for i, v := range vals {
			if int64(offsets[i]) != acc {
				t.Fatalf("n=%d: offsets[%d] = %d, want %d", n, i, offsets[i], acc)
			}
			acc += int64(v)
		}
		if total != acc {
			t.Fatalf("n=%d: total = %d, want %d", n, total, acc)
		}
	}
}

func TestMergePathCheaperThanBinaryOnComparableLists(t *testing.T) {
	// Figure 13's headline: on comparable-length lists, GPU merge beats
	// GPU binary (paper: up to 2.29x).
	rng := rand.New(rand.NewSource(55))
	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	a, b := genWithOverlap(rng, 1<<19, 1<<19, 0.3)

	sM := dev.NewStream()
	if _, err := IntersectMergePath(sM, mustUpload(sM, a), mustUpload(sM, b)); err != nil {
		t.Fatal(err)
	}
	sB := dev.NewStream()
	if _, err := IntersectBinarySearch(sB, mustUpload(sB, a), mustUpload(sB, b)); err != nil {
		t.Fatal(err)
	}
	if sM.Elapsed() >= sB.Elapsed() {
		t.Fatalf("mergepath %v not faster than binary %v on comparable lists",
			sM.Elapsed(), sB.Elapsed())
	}
}

func BenchmarkMergePath1M(b *testing.B) {
	rng := rand.New(rand.NewSource(56))
	x, y := genWithOverlap(rng, 1<<20, 1<<20, 0.2)
	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := dev.NewStream()
		res, err := IntersectMergePath(s, mustUpload(s, x), mustUpload(s, y))
		if err != nil {
			b.Fatal(err)
		}
		res.Out.Free()
	}
}

func BenchmarkBinarySearch1Mx1K(b *testing.B) {
	rng := rand.New(rand.NewSource(57))
	x, y := genWithOverlap(rng, 1<<10, 1<<20, 0.5)
	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := dev.NewStream()
		res, err := IntersectBinarySearch(s, mustUpload(s, x), mustUpload(s, y))
		if err != nil {
			b.Fatal(err)
		}
		res.Out.Free()
	}
}
