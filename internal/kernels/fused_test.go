package kernels

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"griffin/internal/ef"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
)

// smallDevice saturates at 256 threads instead of 26 624, which moves the
// VT switch points down to 2 K, 4 K and 8 K elements: every geometry the
// fused kernel can take runs in milliseconds, race detector included.
func smallDevice() *gpu.Device {
	m := hwmodel.DefaultGPU()
	m.SaturationThreads = 256
	return gpu.New(m, 0)
}

// vtSwitch is the smallest total length at which mergePathGeometry picks
// vt: the first whose ceil(total/vt) threads fill the device.
func vtSwitch(m *hwmodel.GPUModel, vt int) int { return (m.SaturationThreads-1)*vt + 1 }

func TestMergePathGeometryRule(t *testing.T) {
	m := hwmodel.DefaultGPU()
	// Below the first switch the smallest VT spreads the work widest.
	for _, total := range []int{1, 2, 511, 512, 513, 10_000, vtSwitch(&m, 8) - 1} {
		g := mergePathGeometry(total/3, total-total/3, &m)
		if g.VT != 4 {
			t.Fatalf("total %d: VT = %d, want 4 (device not yet full)", total, g.VT)
		}
	}
	// One below / at / above each switch point.
	for i, vt := range []int{8, 16, 32} {
		sw := vtSwitch(&m, vt)
		below := []int{4, 8, 16}[i]
		for total, want := range map[int]int{sw - 1: below, sw: vt, sw + 1: vt} {
			if g := mergePathGeometry(total/2, total-total/2, &m); g.VT != want {
				t.Errorf("total %d (switch to %d at %d): VT = %d, want %d", total, vt, sw, g.VT, want)
			}
		}
	}
	rng := rand.New(rand.NewSource(60))
	for i := 0; i < 2000; i++ {
		a, b := rng.Intn(3_000_000), 1+rng.Intn(3_000_000)
		g := mergePathGeometry(a, b, &m)
		total := a + b
		// A pure function of the summed length, whichever side is longer.
		if g != mergePathGeometry(b, a, &m) || g != mergePathGeometry(0, total, &m) {
			t.Fatalf("(%d,%d): geometry depends on more than the total length", a, b)
		}
		if g.Phases != mergePathPhases || g.Tile() != g.VT*ThreadsPerBlock {
			t.Fatalf("(%d,%d): %+v", a, b, g)
		}
		// The grid covers the path exactly: no block without steps.
		if g.Blocks*g.Tile() < total || (g.Blocks-1)*g.Tile() >= total {
			t.Fatalf("(%d,%d): %d blocks of %d steps for %d", a, b, g.Blocks, g.Tile(), total)
		}
		// A launch that could fill the device at the smallest VT fills it,
		// and no smaller-than-necessary VT is chosen: doubling VT (when
		// possible) would leave the device under-filled.
		if total >= vtSwitch(&m, 4) && g.Threads() < m.SaturationThreads {
			t.Fatalf("(%d,%d): %d threads under-fill the device at VT %d", a, b, g.Threads(), g.VT)
		}
		if g.VT < 32 && (total+2*g.VT-1)/(2*g.VT) >= m.SaturationThreads {
			t.Fatalf("(%d,%d): VT %d chosen although %d still fills the device", a, b, g.VT, 2*g.VT)
		}
	}
}

func TestMergePathGeometryMatchesLaunch(t *testing.T) {
	dev := smallDevice()
	rng := rand.New(rand.NewSource(61))
	for _, total := range []int{10, 700, 2500, 5000, 9000, 40_000} {
		a, b := genWithOverlap(rng, total/4, total-total/4, 0.3)
		s := dev.NewStream()
		res, err := IntersectMergePath(s, mustUpload(s, a), mustUpload(s, b))
		if err != nil {
			t.Fatal(err)
		}
		g := mergePathGeometry(len(a), len(b), dev.Model())
		st := res.Stats
		if st.Blocks != g.Blocks || st.ThreadsPerBlock != ThreadsPerBlock || st.Phases != g.Phases {
			t.Fatalf("total %d: launched %dx%d/%d phases, geometry says %+v", total, st.Blocks, st.ThreadsPerBlock, st.Phases, g)
		}
	}
}

// fusedCase intersects a and b with the fused MergePath kernel on dev,
// checks the result against the sorted-merge reference, and returns the VT
// the launch ran at.
func fusedCase(t *testing.T, dev *gpu.Device, name string, a, b []uint32) int {
	t.Helper()
	s := dev.NewStream()
	aBuf, bBuf := mustUpload(s, a), mustUpload(s, b)
	res, err := IntersectMergePath(s, aBuf, bBuf)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := refIntersect(a, b)
	if !reflect.DeepEqual(matches(res), want) {
		t.Fatalf("%s (|A|=%d |B|=%d): %d matches, reference has %d", name, len(a), len(b), res.Count, len(want))
	}
	// The device accounts the output at the upper bound; the host holds
	// the matches alone.
	if got, bound := len(IDs(res.Out.Data)), min(len(a), len(b)); got != res.Count || res.Out.Bytes != int64(bound)*4 {
		t.Fatalf("%s: output buffer holds %d elements / %d bytes, want the %d matches / the upper bound %d x 4", name, got, res.Out.Bytes, res.Count, bound)
	}
	aBuf.Free()
	bBuf.Free()
	res.Out.Free()
	return mergePathGeometry(len(a), len(b), dev.Model()).VT
}

// evens returns n ascending even values starting at from.
func evens(from, n int) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(from + 2*i)
	}
	return out
}

// mergeCase is one pair of ascending operands for the fused MergePath
// kernel.
type mergeCase struct {
	name string
	a, b []uint32
}

// mergeCases returns the operand pairs the fused kernel is held to on a
// device with model m (smallDevice's, so every VT runs in milliseconds).
func mergeCases(t *testing.T, m *hwmodel.GPUModel) []mergeCase {
	var cases []mergeCase
	add := func(name string, a, b []uint32) { cases = append(cases, mergeCase{name, a, b}) }

	add("empty/empty", nil, nil)
	add("empty/some", nil, evens(0, 100))
	add("some/empty", evens(0, 100), nil)
	add("one==one", []uint32{7}, []uint32{7})
	add("one!=one", []uint32{7}, []uint32{8})
	add("one in many", []uint32{4000}, evens(0, 5000))
	add("one below many", []uint32{1}, evens(2, 5000))
	add("one above many", []uint32{20_001}, evens(0, 5000))

	// Every VT, around every tile multiple: identical operands (the path
	// alternates A,B so thread boundaries fall between matches), identical
	// operands behind one unmatched leading element of A or B (the path
	// shifts by one step, so every thread and every tile boundary splits a
	// match: the straddle check claims all of them), disjoint operands
	// that interleave, and disjoint operands that do not overlap at all.
	for _, vt := range mergePathVTs {
		tile := vt * ThreadsPerBlock
		for _, total := range []int{2*tile - 2, 2 * tile, 2*tile + 2, 2*tile + tile/2, 3 * tile, 3*tile + 2} {
			if got := mergePathGeometry(0, total, m).VT; got != vt {
				t.Fatalf("total %d runs at VT %d, meant to exercise VT %d", total, got, vt)
			}
			n := total / 2
			same := evens(2, n)
			add("identical", same, same)
			add("shifted A", append([]uint32{0}, same...), same)
			add("shifted B", same, append([]uint32{1}, same...))
			odds := make([]uint32, n)
			for i := range odds {
				odds[i] = same[i] + 1
			}
			add("interleaved disjoint", same, odds)
			add("ranges disjoint", same, evens(2*n+10, n))
		}
	}

	// Lengths one below, at and one above each VT switch, at three splits.
	for _, vt := range []int{8, 16, 32} {
		for _, total := range []int{vtSwitch(m, vt) - 1, vtSwitch(m, vt), vtSwitch(m, vt) + 1} {
			for _, nA := range []int{1, total / 5, total / 2} {
				a, b := genWithOverlap(rand.New(rand.NewSource(int64(total+nA))), nA, total-nA, 0.5)
				add("switch", a, b)
			}
		}
	}

	// Random lengths and densities.
	rng := rand.New(rand.NewSource(62))
	for i := 0; i < 150; i++ {
		nA, nB := rng.Intn(3000), rng.Intn(12_000)
		if i%3 == 0 {
			nA = rng.Intn(12_000)
		}
		a, b := genWithOverlap(rng, nA, nB, rng.Float64())
		add("random", a, b)
	}
	return cases
}

func TestIntersectFusedMatchesReference(t *testing.T) {
	dev := smallDevice()
	seen := map[int]bool{}
	for _, c := range mergeCases(t, dev.Model()) {
		seen[fusedCase(t, dev, c.name, c.a, c.b)] = true
	}
	for _, vt := range mergePathVTs {
		if !seen[vt] {
			t.Errorf("no case ran at VT %d", vt)
		}
	}
}

// mustDecode uploads ids compressed and decompresses them on the device:
// a buffer whose payload is a decoded view of the list.
func mustDecode(t *testing.T, s *gpu.Stream, ids []uint32) *gpu.Buffer {
	t.Helper()
	l, err := ef.Compress(ids)
	if err != nil {
		t.Fatal(err)
	}
	comp, err := UploadEF(s, l)
	if err != nil {
		t.Fatal(err)
	}
	dec, _, err := ParaEFDecompress(s, comp)
	if err != nil {
		t.Fatal(err)
	}
	comp.Free()
	return dec
}

// TestMergePathWindowsMatchFlat runs every mergeCases pair with its
// operands as decoded views, which the kernel reads a window of EF blocks
// at a time, and as flat arrays: views on both sides, on one side and on
// the other return what flat operands return — count, matches and
// counters.
func TestMergePathWindowsMatchFlat(t *testing.T) {
	dev := smallDevice()
	for _, c := range mergeCases(t, dev.Model()) {
		s := dev.NewStream()
		flatA, flatB := mustUpload(s, c.a), mustUpload(s, c.b)
		viewA, viewB := mustDecode(t, s, c.a), mustDecode(t, s, c.b)
		want, err := IntersectMergePath(s, flatA, flatB)
		if err != nil {
			t.Fatal(err)
		}
		for _, arm := range []struct {
			name string
			a, b *gpu.Buffer
		}{{"view/view", viewA, viewB}, {"flat/view", flatA, viewB}, {"view/flat", viewA, flatB}} {
			got, err := IntersectMergePath(s, arm.a, arm.b)
			if err != nil {
				t.Fatal(err)
			}
			if got.Count != want.Count || !reflect.DeepEqual(matches(got), matches(want)) || got.Stats != want.Stats {
				t.Fatalf("%s %s (|A|=%d |B|=%d): %d matches, counters %+v; flat operands: %d, %+v",
					c.name, arm.name, len(c.a), len(c.b), got.Count, got.Stats, want.Count, want.Stats)
			}
			got.Out.Free()
		}
		for _, buf := range []*gpu.Buffer{flatA, flatB, viewA, viewB, want.Out} {
			buf.Free()
		}
	}
}

func TestIntersectFusedOneLaunch(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	dev := smallDevice()
	s := dev.NewStream()
	s.EnableProfiling()
	for _, total := range []int{8, 1000, 3000, 6000, 20_000} {
		a, b := genWithOverlap(rng, total/4, total-total/4, 0.4)
		aBuf, bBuf := mustUpload(s, a), mustUpload(s, b)

		for run := 0; run < 2; run++ {
			events, launches := len(s.Profile()), dev.Launches()
			res, err := IntersectMergePath(s, aBuf, bBuf)
			if err != nil {
				t.Fatal(err)
			}
			if got := dev.Launches() - launches; got != 1 {
				t.Fatalf("total %d: MergePath took %d launches, want exactly 1", total, got)
			}
			// The output buffer is taken before the launch; once the pool
			// holds its block (second run) the launch is all there is.
			ev := s.Profile()[events:]
			if last := ev[len(ev)-1]; last.Kind != "launch" || last.Name != "mergepath_intersect" {
				t.Fatalf("total %d run %d: last event %+v, want the launch", total, run, last)
			}
			if run == 1 && len(ev) != 1 {
				t.Fatalf("total %d: warm run recorded %d events, want the launch alone: %+v", total, len(ev), ev)
			}
			res.Out.Free()
		}

		launches := dev.Launches()
		res, err := IntersectBinarySearch(s, aBuf, bBuf)
		if err != nil {
			t.Fatal(err)
		}
		if got := dev.Launches() - launches; got != 1 {
			t.Fatalf("total %d: binary search took %d launches, want 1", total, got)
		}
		res.Out.Free()

		long, err := ef.Compress(b)
		if err != nil {
			t.Fatal(err)
		}
		longBuf, err := UploadEF(s, long)
		if err != nil {
			t.Fatal(err)
		}
		launches = dev.Launches()
		res, err = IntersectBinarySkips(s, aBuf, longBuf)
		if err != nil {
			t.Fatal(err)
		}
		if got := dev.Launches() - launches; got != 2 {
			t.Fatalf("total %d: binary skips took %d launches, want 2 (route, probe)", total, got)
		}
		if !reflect.DeepEqual(matches(res), refIntersect(a, b)) {
			t.Fatalf("total %d: binary skips lost matches", total)
		}
		res.Out.Free()
		aBuf.Free()
		bBuf.Free()
		longBuf.Free()
	}
}

// TestIntersectFusedModeledTimeMonotone sweeps the operand length from 1 K
// to 4 M on the K20 model, stepping by 2^(1/4) and visiting each VT switch
// from one element below. Within one VT a longer intersection never costs
// less (5 % tolerance). At a switch the cost may step down — the rule
// holds the smaller VT until the larger one fills the device, and half the
// threads mean half the partition searches — by under 8 %, and never up:
// the geometry has no occupancy cliff.
func TestIntersectFusedModeledTimeMonotone(t *testing.T) {
	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	m := dev.Model()
	rng := rand.New(rand.NewSource(64))
	const maxTotal = 4 << 20
	a := genAscending(rng, maxTotal/5, 40)
	b := genAscending(rng, maxTotal-maxTotal/5, 10)

	var totals []int
	for x := 1000.0; x < maxTotal; x *= 1.189207115 {
		totals = append(totals, int(x))
	}
	totals = append(totals, maxTotal)
	for _, vt := range []int{8, 16, 32} {
		totals = append(totals, vtSwitch(m, vt)-1, vtSwitch(m, vt))
	}
	sort.Ints(totals)

	type point struct {
		total, vt int
		cost      float64
	}
	var prev point
	for _, total := range totals {
		nA := total / 5
		s := dev.NewStream()
		aBuf, bBuf := mustUpload(s, a[:nA]), mustUpload(s, b[:total-nA])
		res, err := IntersectMergePath(s, aBuf, bBuf)
		if err != nil {
			t.Fatal(err)
		}
		// The launch's own time, without the uploads.
		cur := point{total, mergePathGeometry(nA, total-nA, m).VT, float64(m.KernelTime(&res.Stats))}
		aBuf.Free()
		bBuf.Free()
		res.Out.Free()
		if prev.total > 0 {
			floor := 0.95
			if cur.vt != prev.vt {
				floor = 0.92
				if cur.total == prev.total+1 && cur.cost > prev.cost {
					t.Errorf("VT %d -> %d at %d elements: cost steps up, %.0f -> %.0f ns", prev.vt, cur.vt, cur.total, prev.cost, cur.cost)
				}
			}
			if cur.cost < floor*prev.cost {
				t.Errorf("%d elements (VT %d) cost %.0f ns, but %d elements (VT %d) cost %.0f ns: below %.0f %%",
					cur.total, cur.vt, cur.cost, prev.total, prev.vt, prev.cost, 100*floor)
			}
		}
		prev = cur
	}
}

// TestIntersectEstimatesTrackKernels holds the closed forms the plan
// layers price device work with to the kernels they describe: each
// estimate's launch geometry (blocks, threads per block, phases) is the
// launch's exactly, and its volume counters price within a band of what
// the launch charged.
func TestIntersectEstimatesTrackKernels(t *testing.T) {
	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	m := dev.Model()
	rng := rand.New(rand.NewSource(65))
	for _, tc := range []struct{ short, long int }{
		{2000, 8000}, {10_000, 50_000}, {100_000, 500_000}, {500_000, 2_000_000},
	} {
		a, b := genAscending(rng, tc.short, 50), genAscending(rng, tc.long, 10)
		s := dev.NewStream()
		res, err := IntersectMergePath(s, mustUpload(s, a), mustUpload(s, b))
		if err != nil {
			t.Fatal(err)
		}
		st := EstimateMergePath(tc.short, tc.long, m)
		checkGeometry(t, fmt.Sprintf("merge path %dx%d", tc.short, tc.long), st, res.Stats)
		took, est := m.KernelTime(&res.Stats), m.KernelTime(&st)
		if r := float64(took) / float64(est); r < 0.9 || r > 1.15 {
			t.Errorf("merge path %dx%d: took %v, estimated %v (ratio %.2f)", tc.short, tc.long, took, est, r)
		}
	}
	for _, tc := range []struct{ short, long int }{
		{100, 100_000}, {1000, 500_000}, {4000, 2_000_000},
	} {
		b := genAscending(rng, tc.long, 10)
		a := make([]uint32, tc.short)
		for i := range a {
			a[i] = b[(2*i+1)*len(b)/(2*len(a))] + uint32(i%2) // every other one a hit
		}
		long, err := ef.Compress(b)
		if err != nil {
			t.Fatal(err)
		}
		s := dev.NewStream()
		longBuf, err := UploadEF(s, long)
		if err != nil {
			t.Fatal(err)
		}
		aBuf := mustUpload(s, a)
		warm, err := IntersectBinarySkips(s, aBuf, longBuf)
		if err != nil {
			t.Fatal(err)
		}
		warm.Out.Free()
		base := s.Elapsed()
		res, err := IntersectBinarySkips(s, aBuf, longBuf)
		if err != nil {
			t.Fatal(err)
		}
		// The kernel reports its two launches as one: the route launch's
		// geometry, both launches' phases.
		st := EstimateBinarySkips(tc.short, tc.long)
		both := st[0]
		both.Phases += st[1].Phases
		checkGeometry(t, fmt.Sprintf("binary skips %dx%d", tc.short, tc.long), both, res.Stats)
		took, est := s.Elapsed()-base, m.KernelTime(&st[0])+m.KernelTime(&st[1])
		if r := float64(took) / float64(est); r < 0.85 || r > 1.15 {
			t.Errorf("binary skips %dx%d: took %v, estimated %v (ratio %.2f)", tc.short, tc.long, took, est, r)
		}
	}
	for _, n := range []int{1000, 100_000, 1_000_000} {
		l, err := ef.Compress(genAscending(rng, n, 10))
		if err != nil {
			t.Fatal(err)
		}
		// Pinned exception: the estimate prices one bandwidth-bound pass,
		// 0 phases against the kernel's 4 barrier phases.
		st, launch := EstimateParaEF(n), *paraEFStats(l)
		if st.Phases != 0 || launch.Phases != 4 {
			t.Errorf("para-ef %d: estimated %d phases, the kernel runs %d; the pinned exception is 0 against 4", n, st.Phases, launch.Phases)
		}
		st.Phases = launch.Phases
		checkGeometry(t, fmt.Sprintf("para-ef %d", n), st, launch)
	}
}

// checkGeometry fails the test when a closed form's launch geometry is not
// exactly the launch's.
func checkGeometry(t *testing.T, name string, est, launch hwmodel.LaunchStats) {
	t.Helper()
	if est.Blocks != launch.Blocks || est.ThreadsPerBlock != launch.ThreadsPerBlock || est.Phases != launch.Phases {
		t.Errorf("%s: estimated %d blocks x %d threads in %d phases, the launch ran %d x %d in %d",
			name, est.Blocks, est.ThreadsPerBlock, est.Phases, launch.Blocks, launch.ThreadsPerBlock, launch.Phases)
	}
}
