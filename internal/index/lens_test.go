package index

import (
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"griffin/internal/bitutil"
)

// lensOf reads every length of t back through At.
func lensOf(t LenTable) []uint32 {
	out := make([]uint32, t.Len())
	for d := range out {
		out[d] = t.At(uint32(d))
	}
	return out
}

// checkTable holds t to the flat lengths it must read as: At, each page
// unpacked, the width of each page the bit length of its largest, the
// bits past a page's last length zero — so t serializes as NewLenTable
// of the same lengths does.
func checkTable(tb testing.TB, what string, t LenTable, model []uint32) {
	tb.Helper()
	if t.Len() != len(model) || t.NumPages() != (len(model)+lenPageSize-1)>>DocLenShift {
		tb.Errorf("%s: Len %d in %d pages, model has %d", what, t.Len(), t.NumPages(), len(model))
		return
	}
	if got := lensOf(t); !slices.Equal(got, model) {
		tb.Errorf("%s: lengths differ from the model", what)
		return
	}
	if t.At(uint32(len(model))) != 0 {
		tb.Errorf("%s: a length past the end", what)
	}
	buf := make([]uint32, lenPageSize)
	for p := range t.NumPages() {
		words, width := t.Page(p)
		page := model[p<<DocLenShift : t.end(p)]
		if want := int(lenWidth(page)); width != want {
			tb.Errorf("%s: page %d of width %d, its largest length needs %d", what, p, width, want)
			return
		}
		k := packedWords(len(page), uint(width))
		if len(words) <= k {
			tb.Errorf("%s: page %d has %d words for %d packed: none to read the last field with", what, p, len(words), k)
			return
		}
		bitutil.Unpack(buf[:len(page)], words, width)
		if !slices.Equal(buf[:len(page)], page) {
			tb.Errorf("%s: page %d unpacks to other lengths", what, p)
			return
		}
		if r := len(page) * width & 63; r != 0 && words[k-1]>>r != 0 {
			tb.Errorf("%s: page %d has bits set past its last length", what, p)
			return
		}
	}
}

// drawLen draws a length of a random width, zero now and then.
func drawLen(r *rand.Rand) uint32 {
	switch r.Intn(4) {
	case 0:
		return 0
	case 1:
		return uint32(100 + r.Intn(700))
	default:
		return uint32(r.Int63n(1<<r.Intn(33) + 1))
	}
}

func TestNewLenTable(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 63, 64, lenPageSize - 1, lenPageSize, lenPageSize + 1, 3*lenPageSize + 17} {
		for _, width := range []int{0, 1, 5, 10, 31, 32} {
			lens := make([]uint32, n)
			for d := range lens {
				lens[d] = uint32(r.Uint64() & (1<<width - 1))
			}
			checkTable(t, "packed", NewLenTable(lens), lens)
		}
	}
	mixed := make([]uint32, 5*lenPageSize+99)
	for d := lenPageSize; d < len(mixed); d++ { // page 0 all zero
		mixed[d] = drawLen(r) >> (d >> DocLenShift * 6)
	}
	checkTable(t, "pages of every width", NewLenTable(mixed), mixed)
}

// lenVersion is one table the property test made and the lengths it
// must read as for as long as anyone holds it.
type lenVersion struct {
	t     LenTable
	model []uint32
}

// interesting draws an index into [0, n] that is, more often than not,
// on or next to a page boundary or an end.
func interesting(r *rand.Rand, n int) int {
	var k int
	switch r.Intn(6) {
	case 0:
		k = 0
	case 1:
		k = n
	case 2:
		k = r.Intn(n + 1)
	default:
		k = r.Intn(n/lenPageSize+1)*lenPageSize + r.Intn(3) - 1
	}
	return min(max(k, 0), n)
}

// TestLenEditorVersionsKeepTheirValues is the model-based property:
// seeded random sequences of one-shot editors and of one long-lived
// editor — lengths that outgrow their page's width, shrink it to zero,
// cuts and extensions of the table — each snapshot held to a flat model
// and to NewLenTable's packing of it, and every earlier version held to
// its own model after 300 successors, while goroutines read those
// earlier versions (under -race, a successor that wrote into a page it
// shares is a reported race as well as a wrong value).
func TestLenEditorVersionsKeepTheirValues(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	var mu sync.Mutex
	var versions []lenVersion
	add := func(v lenVersion, what string) {
		checkTable(t, what, v.t, v.model)
		mu.Lock()
		versions = append(versions, v)
		mu.Unlock()
	}
	seed := make([]uint32, 3*lenPageSize+5)
	for d := range seed {
		seed[d] = drawLen(r) & 0x3ff
	}
	add(lenVersion{NewLenTable(seed), slices.Clone(seed)}, "seed")

	var stop atomic.Bool
	var readers sync.WaitGroup
	defer func() {
		stop.Store(true)
		readers.Wait()
	}()
	for g := range 4 {
		readers.Add(1)
		go func() {
			defer readers.Done()
			rr := rand.New(rand.NewSource(int64(g)))
			for !stop.Load() {
				mu.Lock()
				v := versions[rr.Intn(len(versions))]
				mu.Unlock()
				if v.t.Len() != len(v.model) || !slices.Equal(lensOf(v.t), v.model) {
					t.Error("a version changed under a concurrent reader")
					return
				}
			}
		}()
	}

	// edit applies a few writes and at times a resize to e and model,
	// and returns the model and the pages written.
	edit := func(e *LenEditor, model []uint32) ([]uint32, map[int]bool) {
		written := map[int]bool{}
		for m := 1 + r.Intn(6); m > 0; m-- {
			if r.Intn(4) == 0 {
				n := interesting(r, len(model)+2*lenPageSize)
				if r.Intn(8) == 0 {
					n = len(model) + r.Intn(6*lenPageSize) // a gap of pages
				}
				// The page the new end falls in, and every page past it,
				// is cut, extended or new.
				for p := max(min(n, len(model))-1, 0) >> DocLenShift; p<<DocLenShift < max(n, len(model)); p++ {
					written[p] = true
				}
				e.Resize(n)
				model = append(model[:min(n, len(model))], make([]uint32, max(0, n-len(model)))...)
			} else if len(model) > 0 {
				d := interesting(r, len(model)-1)
				l := drawLen(r)
				e.Set(uint32(d), l)
				model[d] = l
				written[d>>DocLenShift] = true
			}
		}
		return model, written
	}

	long := versions[0].t.Edit()
	longModel := slices.Clone(versions[0].model)
	for step := range 300 {
		if r.Intn(2) == 0 {
			from := versions[r.Intn(len(versions))]
			e := from.t.Edit()
			model, written := edit(e, slices.Clone(from.model))
			if e.Len() != len(model) {
				t.Fatalf("step %d: editor Len %d, model %d", step, e.Len(), len(model))
			}
			got := e.Snapshot()
			for p := range min(got.NumPages(), from.t.NumPages()) {
				if written[p] {
					continue
				}
				gw, _ := got.Page(p)
				fw, _ := from.t.Page(p)
				if &gw[0] != &fw[0] {
					t.Fatalf("step %d: the editor copied page %d, which nothing wrote to", step, p)
				}
			}
			add(lenVersion{got, model}, "one-shot editor")
		} else {
			longModel, _ = edit(long, longModel)
			add(lenVersion{long.Snapshot(), slices.Clone(longModel)}, "long-lived editor")
		}
		if t.Failed() {
			break
		}
	}
	stop.Store(true)
	readers.Wait()
	for i, v := range versions {
		checkTable(t, "at the end", v.t, v.model)
		if t.Failed() {
			t.Fatalf("version %d of %d no longer reads its own lengths", i, len(versions))
		}
	}
}

// An editor writes in place to a page it copied until it publishes it:
// one copy per page written between two snapshots, however many writes,
// and the snapshot's page is never written again.
func TestLenEditorOwnsWhatItCopied(t *testing.T) {
	lens := make([]uint32, 2*lenPageSize)
	for d := range lens {
		lens[d] = 300
	}
	e := NewLenTable(lens).Edit()
	e.Set(5, 1)
	first, _ := e.Table().Page(0)
	for d := uint32(6); d < 50; d++ {
		e.Set(d, 2)
	}
	if again, _ := e.Table().Page(0); &again[0] != &first[0] {
		t.Error("a second write to a page the editor owns copied it again")
	}
	snap := e.Snapshot()
	e.Set(7, 3)
	if after, _ := e.Table().Page(0); &after[0] == &first[0] {
		t.Error("a write after a snapshot went into the published page")
	}
	if snap.At(7) != 2 || e.At(7) != 3 {
		t.Errorf("snapshot reads %d, editor %d; want 2 and 3", snap.At(7), e.At(7))
	}
	// A length wider than the page re-packs it; a page emptied of its
	// lengths is published as a page of width 0.
	e.Set(lenPageSize+9, 1<<20)
	if _, width := e.Table().Page(1); width != 21 {
		t.Errorf("page 1 is %d bits wide after a 21-bit length, want 21", width)
	}
	for d := range uint32(lenPageSize) {
		e.Set(d, 0)
	}
	if _, width := e.Snapshot().Page(0); width != 0 {
		t.Errorf("a page of zeros is published %d bits wide", width)
	}
}

// Documents added one after another past the end grow the table's last
// page in place once the editor owns it: no allocation per document.
func TestLenEditorGrowsTheLastPageInPlace(t *testing.T) {
	lens := make([]uint32, 100)
	for d := range lens {
		lens[d] = 300
	}
	e := NewLenTable(lens).Edit()
	e.Resize(101)
	e.Set(100, 7)
	allocs := testing.AllocsPerRun(1000, func() {
		n := e.Len()
		e.Resize(n + 1)
		e.Set(uint32(n), uint32(100+n%700))
	})
	if allocs != 0 {
		t.Errorf("adding a document past the end allocated %v times, want 0", allocs)
	}
	want := append(slices.Clone(lens), 7)
	for n := len(want); n < e.Len(); n++ {
		want = append(want, uint32(100+n%700))
	}
	checkTable(t, "grown", e.Snapshot(), want)
}

// A table stretched over a gap — document IDs assigned far past the last
// one — costs its page table: the pages of zeros hold no words, and the
// pages written to are what the editor allocates.
func TestLenEditorResizeOverAGap(t *testing.T) {
	const n = 1 << 28
	lens := make([]uint32, 5000)
	for d := range lens {
		lens[d] = 300
	}
	e := NewLenTable(lens).Edit()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e.Resize(n)
	e.Set(n-1, 7)
	e.Set(1_000_000, 900)
	v := e.Snapshot()
	runtime.ReadMemStats(&after)
	// The page table, 32 bytes and an ownership flag a page, and three
	// pages of words.
	if got, ceiling := after.TotalAlloc-before.TotalAlloc, uint64(n>>DocLenShift*33+(20<<10)); got > ceiling {
		t.Errorf("stretching the table to %d lengths allocated %d bytes, want <= %d", n, got, ceiling)
	}
	distinct := map[*uint64]bool{}
	for p := range v.NumPages() {
		words, _ := v.Page(p)
		distinct[&words[0]] = true
	}
	// The two pages of the original (the second re-packed as it grew to
	// a whole page), the two written to, the zero page.
	if len(distinct) > 5 {
		t.Errorf("%d pages hold %d distinct allocations, want <= 5", v.NumPages(), len(distinct))
	}
	if v.At(n-1) != 7 || v.At(1_000_000) != 900 || v.At(1_000_001) != 0 || v.At(2_000_000) != 0 || v.Len() != n {
		t.Error("a length written among the zeros did not stay where it was put")
	}
}

func TestLenEditorSetPastTheEndPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	NewLenTable(make([]uint32, 5)).Edit().Set(5, 1)
}

// BenchmarkDocLen reads the lengths of random documents of a 4M-document
// table of lengths 100–799 — the read BM25 makes per scored candidate.
func BenchmarkDocLen(b *testing.B) {
	r := rand.New(rand.NewSource(7))
	lens := make([]uint32, 4<<20)
	for d := range lens {
		lens[d] = uint32(100 + r.Intn(700))
	}
	ix := &Index{NumDocs: len(lens), DocLens: NewLenTable(lens)}
	docs := make([]uint32, 1<<12)
	for i := range docs {
		docs[i] = uint32(r.Intn(len(lens)))
	}
	b.ResetTimer()
	var sum uint32
	for i := range b.N {
		sum += ix.DocLen(docs[i&(len(docs)-1)])
	}
	docLenSink = sum
}

var docLenSink uint32
