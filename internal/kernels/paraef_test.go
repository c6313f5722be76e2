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
	"griffin/internal/index"
)

func newStream() *gpu.Stream {
	return gpu.New(hwmodel.DefaultGPU(), 0).NewStream()
}

func genAscending(rng *rand.Rand, n int, maxGap uint32) []uint32 {
	ids := make([]uint32, n)
	cur := uint32(rng.Intn(1000))
	for i := 0; i < n; i++ {
		cur += 1 + uint32(rng.Intn(int(maxGap)))
		ids[i] = cur
	}
	return ids
}

func decompressOnDevice(t testing.TB, s *gpu.Stream, ids []uint32) []uint32 {
	t.Helper()
	l, err := ef.Compress(ids)
	if err != nil {
		t.Fatal(err)
	}
	buf, err := UploadEF(s, l)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := ParaEFDecompress(s, buf)
	if err != nil {
		t.Fatal(err)
	}
	return IDs(out.Data)
}

func TestParaEFMatchesSerialDecode(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	s := newStream()
	for _, n := range []int{1, 2, 127, 128, 129, 1000, 4096, 100000} {
		for _, maxGap := range []uint32{1, 2, 37, 5000} {
			ids := genAscending(rng, n, maxGap)
			got := decompressOnDevice(t, s, ids)
			if !reflect.DeepEqual(got, ids) {
				t.Fatalf("n=%d gap=%d: Para-EF output differs from input", n, maxGap)
			}
		}
	}
}

func TestParaEFPaperExample(t *testing.T) {
	// Figure 4's sequence.
	ids := []uint32{5, 6, 8, 15, 18, 33}
	got := decompressOnDevice(t, newStream(), ids)
	if !reflect.DeepEqual(got, ids) {
		t.Fatalf("got %v want %v", got, ids)
	}
}

func TestParaEFDenseRun(t *testing.T) {
	ids := make([]uint32, 500)
	for i := range ids {
		ids[i] = uint32(i)
	}
	got := decompressOnDevice(t, newStream(), ids)
	if !reflect.DeepEqual(got, ids) {
		t.Fatal("dense run mismatch")
	}
}

func TestParaEFSparseHugeGaps(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ids := genAscending(rng, 300, 1<<22)
	got := decompressOnDevice(t, newStream(), ids)
	if !reflect.DeepEqual(got, ids) {
		t.Fatal("sparse list mismatch")
	}
}

func TestParaEFEmptyList(t *testing.T) {
	s := newStream()
	l, _ := ef.Compress(nil)
	buf, err := UploadEF(s, l)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := ParaEFDecompress(s, buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := IDs(out.Data); len(got) != 0 || out.Bytes != 0 {
		t.Fatalf("expected empty output, got %d elements", len(got))
	}
}

func TestParaEFStatsPlausible(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := newStream()
	ids := genAscending(rng, 10000, 50)
	l, _ := ef.Compress(ids)
	buf, _ := UploadEF(s, l)
	_, st, err := ParaEFDecompress(s, buf)
	if err != nil {
		t.Fatal(err)
	}
	// Every element must be written exactly once: 4 bytes per docID.
	if st.GlobalWriteBytes != int64(len(ids))*4 {
		t.Fatalf("GlobalWriteBytes = %d, want %d", st.GlobalWriteBytes, len(ids)*4)
	}
	if st.Ops == 0 || st.GlobalReadBytes == 0 || st.SharedBytes == 0 {
		t.Fatalf("missing counters: %+v", st)
	}
	if st.Phases != 4 {
		t.Fatalf("Phases = %d, want 4 (Algorithm 1 structure)", st.Phases)
	}
}

func TestParaEFChargesTransferForCompressedSize(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	ids := genAscending(rng, 1<<20, 20) // dense: compresses well

	s1 := dev.NewStream()
	l, _ := ef.Compress(ids)
	if _, err := UploadEF(s1, l); err != nil {
		t.Fatal(err)
	}
	compressedCost := s1.Elapsed()

	s2 := dev.NewStream()
	if _, err := s2.H2D(ids, int64(len(ids))*4); err != nil {
		t.Fatal(err)
	}
	rawCost := s2.Elapsed()

	if compressedCost >= rawCost {
		t.Fatalf("compressed upload %v not cheaper than raw %v", compressedCost, rawCost)
	}
}

func TestParaEFSpeedupGrowsWithListSize(t *testing.T) {
	// The Figure-12 shape: simulated GPU decompression time per element
	// shrinks as lists grow (overhead amortization + occupancy).
	rng := rand.New(rand.NewSource(44))
	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	perElem := func(n int) float64 {
		ids := genAscending(rng, n, 30)
		s := dev.NewStream()
		l, _ := ef.Compress(ids)
		buf, _ := UploadEF(s, l)
		if _, _, err := ParaEFDecompress(s, buf); err != nil {
			t.Fatal(err)
		}
		return float64(s.Elapsed()) / float64(n)
	}
	small, large := perElem(1000), perElem(1<<20)
	if large >= small {
		t.Fatalf("per-element cost did not shrink: small=%v large=%v", small, large)
	}
}

// nearBoundBlock returns one full block whose high bits are as long as the
// encoder ever makes them at width b: its local universe is just under
// 128 x 2^(b+1), so HighLen = 255 + 128 = 383 bits, 12 of the 32-bit words
// Para-EF schedules. Its other elements lie in the lower half, so the high
// bits jump whole words of zeros to reach the last.
func nearBoundBlock(rng *rand.Rand, base uint32, b int) []uint32 {
	u := uint32(ef.BlockSize<<(b+1) - 1)
	seen := map[uint32]bool{0: true, u: true}
	for len(seen) < ef.BlockSize {
		seen[uint32(rng.Intn(int(u)/2+1))] = true
	}
	ids := make([]uint32, 0, ef.BlockSize)
	for v := range seen {
		ids = append(ids, base+v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// paraEFCases returns the lists the counted Para-EF is held to the SIMT
// kernel on: lengths around the block size, dense b = 0 runs, gaps that
// jump words, blocks at the high-bits bound, lists spliced onto the pages
// of a predecessor (index.SpliceList), and random lists.
func paraEFCases(t *testing.T) map[string]*ef.List {
	rng := rand.New(rand.NewSource(49))
	lists := map[string]*ef.List{}
	add := func(name string, ids []uint32) {
		l, err := ef.Compress(ids)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lists[name] = l
	}
	for _, n := range []int{1, 127, 128, 129} {
		add(fmt.Sprintf("n=%d", n), genAscending(rng, n, 300))
		add(fmt.Sprintf("n=%d dense", n), genAscending(rng, n, 1))
	}
	add("dense b=0", genAscending(rng, 5000, 1))
	// Blocks of two dense halves far apart: the high bits between them
	// are whole zero words.
	var halves []uint32
	for k := uint32(0); k < 6; k++ {
		for i := uint32(0); i < 64; i++ {
			halves = append(halves, k<<20+i, k<<20+1<<19+i)
		}
	}
	sort.Slice(halves, func(i, j int) bool { return halves[i] < halves[j] })
	add("gaps jump words", halves)
	var bound []uint32
	for b := 0; b <= 22; b++ {
		next := uint32(0)
		if len(bound) > 0 {
			next = bound[len(bound)-1] + 1
		}
		bound = append(bound, nearBoundBlock(rng, next, b)...)
	}
	add("high bits at bound", bound)
	for k, l := 0, lists["high bits at bound"]; k < l.NumBlocks(); k++ {
		if got := l.Block(k).HighLen; got != 383 {
			t.Fatalf("high bits at bound: block %d has %d high bits, want 383", k, got)
		}
	}
	for i := 0; i < 40; i++ {
		add(fmt.Sprintf("random %d", i), genAscending(rng, 1+rng.Intn(3000), uint32(1+rng.Intn(1<<rng.Intn(20)))))
	}

	ids := genAscending(rng, 300*ef.BlockSize+17, 40)
	ones := func(n int) []uint32 {
		f := make([]uint32, n)
		for i := range f {
			f[i] = 1
		}
		return f
	}
	old, err := index.SpliceList("t", nil, 0, ids, ones(len(ids)))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 63, 64, 65, 200, 300} {
		last := ids[k*ef.BlockSize-1]
		tail := genAscending(rng, 1+rng.Intn(700), 1+uint32(rng.Intn(5000)))
		for i := range tail {
			tail[i] += last
		}
		pl, err := index.SpliceList("t", old, k, tail, ones(len(tail)))
		if err != nil {
			t.Fatal(err)
		}
		lists[fmt.Sprintf("spliced at %d", k)] = pl.EF
	}
	return lists
}

// TestParaEFCountedMatchesSIMT is the checked mode of the counted Para-EF
// serving runs: on every paraEFCases list it charges what the SIMT kernel
// executes — the same counters, the same stream clock and profile event,
// one launch on the device — and the kernel's output is the serial decode
// at every position.
func TestParaEFCountedMatchesSIMT(t *testing.T) {
	for name, l := range paraEFCases(t) {
		for _, workers := range []int{1, 3} {
			counted, simt := gpu.New(hwmodel.DefaultGPU(), workers), gpu.New(hwmodel.DefaultGPU(), workers)
			cs, ss := counted.NewStream(), simt.NewStream()
			cs.EnableProfiling()
			ss.EnableProfiling()

			comp, err := UploadEF(cs, l)
			if err != nil {
				t.Fatal(err)
			}
			out, st, err := ParaEFDecompress(cs, comp)
			if err != nil {
				t.Fatal(err)
			}
			// The SIMT side pays the same upload and output allocation.
			if _, err := UploadEF(ss, l); err != nil {
				t.Fatal(err)
			}
			if _, err := ss.Alloc(int64(l.N) * 4); err != nil {
				t.Fatal(err)
			}
			got, want := paraEFSIMT(ss, l)

			if *st != *want {
				t.Fatalf("%s workers=%d: counted %+v, SIMT %+v", name, workers, *st, *want)
			}
			if cs.Elapsed() != ss.Elapsed() || !reflect.DeepEqual(cs.Profile(), ss.Profile()) {
				t.Fatalf("%s workers=%d: counted clock %v %+v, SIMT %v %+v", name, workers, cs.Elapsed(), cs.Profile(), ss.Elapsed(), ss.Profile())
			}
			if counted.Launches() != 1 || simt.Launches() != 1 {
				t.Fatalf("%s workers=%d: %d counted launches, %d SIMT", name, workers, counted.Launches(), simt.Launches())
			}
			var blk [ef.BlockSize]uint32
			for k := range l.NumBlocks() {
				n := l.DecompressBlock(k, blk[:])
				for j := range n {
					if got[k*ef.BlockSize+j] != blk[j] {
						t.Fatalf("%s workers=%d: block %d element %d: SIMT %d, serial decode %d", name, workers, k, j, got[k*ef.BlockSize+j], blk[j])
					}
				}
			}
			if len(got) != l.N || out.Bytes != 4*int64(l.N) || !reflect.DeepEqual(IDs(out.Data), got) {
				t.Fatalf("%s workers=%d: %d SIMT docIDs, %d-byte output whose payload differs", name, workers, len(got), out.Bytes)
			}
		}
	}
}

func BenchmarkParaEFDecompress1M(b *testing.B) {
	rng := rand.New(rand.NewSource(45))
	ids := genAscending(rng, 1<<20, 30)
	l, _ := ef.Compress(ids)
	dev := gpu.New(hwmodel.DefaultGPU(), 0)
	b.SetBytes(int64(len(ids)) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := dev.NewStream()
		buf, _ := UploadEF(s, l)
		out, _, err := ParaEFDecompress(s, buf)
		if err != nil {
			b.Fatal(err)
		}
		out.Free()
		buf.Free()
	}
}
