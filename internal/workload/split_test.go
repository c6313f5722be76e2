package workload

import (
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"griffin/internal/ef"
	"griffin/internal/index"
)

// refPartitionIndex is the list-at-a-time split PartitionIndex replaced:
// decode each list whole, deal its postings into per-shard arrays by
// ShardOf, and encode every shard's array through index.SpliceList. The
// block-streaming split must build the same shard indexes.
func refPartitionIndex(t testing.TB, ix *index.Index, shards int) []*index.Index {
	t.Helper()
	lists := make([][]*index.PostingList, shards)
	for _, term := range ix.Terms() {
		pl, _ := ix.Lookup(term)
		ids, freqs := make([][]uint32, shards), make([][]uint32, shards)
		for i, d := range pl.EF.Decompress() {
			s := ShardOf(d, shards)
			ids[s] = append(ids[s], d)
			freqs[s] = append(freqs[s], pl.Freqs.At(i))
		}
		for s := range ids {
			if len(ids[s]) == 0 {
				continue
			}
			spl, err := index.SpliceList(term, nil, 0, ids[s], freqs[s])
			if err != nil {
				t.Fatal(err)
			}
			spl.GlobalN = pl.N
			lists[s] = append(lists[s], spl)
		}
	}
	out := make([]*index.Index, shards)
	for s := range out {
		out[s] = index.Assemble(lists[s], ix.NumDocs, ix.DocLens, ix.AvgDocLen)
	}
	return out
}

func TestPartitionIndexEqualsListAtATimeSplit(t *testing.T) {
	c, err := GenerateCorpus(CorpusSpec{
		NumDocs: 50_000, NumTerms: 60, MaxListLen: 20_000, MinListLen: 200,
		Alpha: 0.9, Seed: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Lists the generator does not make: one posting, exactly one
	// block, a term whose postings all land on one shard of 2, 3, 4
	// and 7 (multiples of 84).
	b := index.NewBuilder(index.CodecEF)
	for _, term := range c.Index.Terms() {
		pl, _ := c.Index.Lookup(term)
		ids, freqs := pl.DecodeFrom(0)
		if err := b.AddPostings(term, ids, freqs); err != nil {
			t.Fatal(err)
		}
	}
	r := rand.New(rand.NewSource(13))
	extra := map[string][]uint32{
		"x-single":    {77},
		"x-block":     make([]uint32, index.BlockSize),
		"x-one-shard": make([]uint32, 1000),
	}
	for i := range extra["x-block"] {
		extra["x-block"][i] = uint32(5 + 3*i)
	}
	for i := range extra["x-one-shard"] {
		extra["x-one-shard"][i] = uint32(84 * (i + 1))
	}
	for term, ids := range extra {
		freqs := make([]uint32, len(ids))
		for i := range freqs {
			freqs[i] = 1 + uint32(r.Intn(300))
		}
		if err := b.AddPostings(term, ids, freqs); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 2, 3, 4, 7} {
		got, err := PartitionIndex(ix, shards)
		if err != nil {
			t.Fatal(err)
		}
		want := refPartitionIndex(t, ix, shards)
		for s := range want {
			if sameContents(got[s], want[s]) {
				continue
			}
			for _, term := range want[s].Terms() {
				g, _ := got[s].Lookup(term)
				w, _ := want[s].Lookup(term)
				if !sameContents(g, w) {
					t.Fatalf("shards=%d shard %d term %q: list differs from the list-at-a-time split's", shards, s, term)
				}
			}
			t.Fatalf("shards=%d: shard %d differs from the list-at-a-time split's", shards, s)
		}
	}
}

// sameContents is reflect.DeepEqual but for the handle of the region a
// page's words lie in (ef.Page's ext): two splits of one index copy the
// same words into different regions, and SpliceList into none. No page a
// split makes owns a run behind that handle, so skipping it skips no
// words. It walks what DeepEqual walks, unexported fields included.
func sameContents(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	return va.Type() == vb.Type() && sameValue(va, vb)
}

var regionHandle = func() reflect.Type {
	f, ok := reflect.TypeOf(ef.Page[ef.Row]{}).FieldByName("ext")
	if !ok {
		panic("ef.Page has no ext field")
	}
	return f.Type
}()

func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Pointer:
		if a.Type() == regionHandle || a.Pointer() == b.Pointer() {
			return true
		}
		return !a.IsNil() && !b.IsNil() && sameValue(a.Elem(), b.Elem())
	case reflect.Struct:
		for i := range a.NumField() {
			if !sameValue(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Slice, reflect.Array:
		if a.Len() != b.Len() {
			return false
		}
		for i := range a.Len() {
			if !sameValue(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Map:
		if a.Len() != b.Len() {
			return false
		}
		for it := a.MapRange(); it.Next(); {
			if v := b.MapIndex(it.Key()); !v.IsValid() || !sameValue(it.Value(), v) {
				return false
			}
		}
		return true
	}
	return a.Equal(b)
}

// The multiply-only remainder the split uses per posting is ShardOf.
func TestModulusIsShardOf(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	edges := []uint32{0, 1, 2, 127, 128, 1<<16 - 1, 1 << 16, 1<<31 - 1, 1 << 31, 1<<32 - 2, 1<<32 - 1}
	for _, shards := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16, 31, 64, 100, 641, 1000, 65537, 1<<31 - 1} {
		m := newModulus(uint32(shards))
		check := func(d uint32) {
			if got, want := m.of(d), ShardOf(d, shards); got != want {
				t.Fatalf("%d mod %d = %d, want %d", d, shards, got, want)
			}
		}
		for _, d := range edges {
			check(d)
			check(d - uint32(shards))
			check(d + uint32(shards))
		}
		for i := 0; i < 20_000; i++ {
			check(r.Uint32())
		}
	}
}

func splitBenchCorpus(tb testing.TB) *Corpus {
	tb.Helper()
	c, err := GenerateCorpus(CorpusSpec{
		NumDocs: 1_000_000, NumTerms: 100, MaxListLen: 200_000, MinListLen: 2_000,
		Alpha: 0.85, Seed: 15,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// Splitting allocates little beyond the shard lists it returns: their
// rows and page tables on the heap, their words in regions off it, plus
// each worker's staging and encoder scratch (one block per shard, and one
// page of each table per shard encoder, reused from list to list). The
// list-at-a-time split decoded every list into whole-list arrays grown by
// append and encoded block by block through bit writers: 5x what it
// returned.
func TestPartitionIndexAllocations(t *testing.T) {
	c := splitBenchCorpus(t)
	postings := 0
	for _, term := range c.Terms {
		pl, _ := c.Index.Lookup(term)
		postings += pl.N
	}
	if postings < 1_200_000 {
		t.Fatalf("corpus has %d postings, the ceiling is stated for 1.2 M", postings)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // nothing is freed while it is measured
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	shards, err := PartitionIndex(c.Index, 4)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	allocated := after.TotalAlloc - before.TotalAlloc
	runtime.GC()
	var kept runtime.MemStats
	runtime.ReadMemStats(&kept)
	retained := kept.HeapAlloc - before.HeapAlloc // the shard lists' rows and pages: all that is still reachable
	words := uint64(wordBytes(shards))
	runtime.KeepAlive(shards)
	runtime.KeepAlive(c) // or the second collection frees the corpus too
	t.Logf("%d postings: allocated %d bytes, retained %d on the heap and %d of words (%.2fx)",
		postings, allocated, retained, words, float64(allocated)/float64(retained+words))
	if float64(allocated) > 1.5*float64(retained+words) {
		t.Errorf("PartitionIndex of %d postings allocated %d bytes for shard lists of %d bytes (%.2fx), want <= 1.5x",
			postings, allocated, retained+words, float64(allocated)/float64(retained+words))
	}
}

// wordBytes returns the size of the words of every block-table page the
// indexes hold, the docIDs' and the frequencies' (whose pages the index
// API does not expose), walking them as sameContents does.
func wordBytes(ixs []*index.Index) int {
	n := 0
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			if f, ok := v.Type().FieldByName("ext"); ok && f.Type == regionHandle {
				n += v.FieldByName("Words").Len() * 8
				return
			}
			for i := range v.NumField() {
				walk(v.Field(i))
			}
		case reflect.Slice, reflect.Array:
			if k := v.Type().Elem().Kind(); k == reflect.Pointer || k == reflect.Struct || k == reflect.Slice {
				for i := range v.Len() {
					walk(v.Index(i))
				}
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Value())
			}
		}
	}
	for _, ix := range ixs {
		walk(reflect.ValueOf(ix))
	}
	return n
}

// BenchmarkPartitionIndex reports, beside the time a posting, what the
// shards keep: heap a block (rows and page tables) and words a posting
// (the regions).
func BenchmarkPartitionIndex(b *testing.B) {
	c := splitBenchCorpus(b)
	postings := 0
	for _, term := range c.Terms {
		pl, _ := c.Index.Lookup(term)
		postings += pl.N
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	b.ReportAllocs()
	b.ResetTimer()
	var shards []*index.Index
	for i := 0; i < b.N; i++ {
		var err error
		if shards, err = PartitionIndex(c.Index, 4); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*postings), "ns/posting")
	runtime.GC()
	runtime.ReadMemStats(&after)
	blocks := 0
	for _, ix := range shards {
		for _, term := range ix.Terms() {
			pl, _ := ix.Lookup(term)
			blocks += pl.EF.NumBlocks()
		}
	}
	b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(blocks), "heap-B/block")
	b.ReportMetric(float64(wordBytes(shards))/float64(postings), "region-B/posting")
	runtime.KeepAlive(shards)
	runtime.KeepAlive(c) // or the last collection frees the corpus too
}
