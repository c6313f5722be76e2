package workload

import (
	"bytes"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"griffin/internal/ef"
	"griffin/internal/index"
)

func partitionTestCorpus(t testing.TB) *Corpus {
	t.Helper()
	c, err := GenerateCorpus(CorpusSpec{
		NumDocs:    50_000,
		NumTerms:   60,
		MaxListLen: 20_000,
		MinListLen: 200,
		Alpha:      0.9,
		Seed:       11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// inWindow returns the postings of pl that lie in its shard's window w,
// and their frequencies.
func inWindow(pl *index.PostingList, w *index.Window) (ids, freqs []uint32) {
	ids, freqs = pl.DecodeFrom(0)
	lo, hi := w.Span(ids)
	return ids[lo:hi], freqs[lo:hi]
}

// Every posting of the source lies in exactly one shard's window, and that
// shard's list holds it with its frequency; the shards' windows tile the
// docID space.
func TestPartitionIndexCoversEveryPosting(t *testing.T) {
	c := partitionTestCorpus(t)
	for _, shards := range []int{1, 2, 3, 4, 8} {
		ixs, err := PartitionCorpus(c, shards)
		if err != nil {
			t.Fatal(err)
		}
		if len(ixs) != shards {
			t.Fatalf("shards=%d: got %d indexes", shards, len(ixs))
		}
		next := uint64(0)
		for s, six := range ixs {
			if w := six.Window; w == nil || w.Lo != next || w.Hi < w.Lo || *w != index.ShardWindow(s, shards, c.Index.NumDocs) {
				t.Fatalf("shards=%d: shard %d has window %v after %d", shards, s, w, next)
			}
			next = six.Window.Hi
		}
		if next != 1<<32 {
			t.Fatalf("shards=%d: the windows end at %d, want 2^32", shards, next)
		}
		for _, term := range c.Terms {
			gpl, ok := c.Index.Lookup(term)
			if !ok {
				t.Fatalf("term %q missing from source index", term)
			}
			want, wantFreqs := gpl.DecodeFrom(0)
			var got, gotFreqs []uint32
			for s, six := range ixs {
				spl, ok := six.Lookup(term)
				if !ok {
					continue
				}
				if spl.GlobalN != gpl.N {
					t.Fatalf("shards=%d term %q shard %d: GlobalN=%d want %d",
						shards, term, s, spl.GlobalN, gpl.N)
				}
				ids, freqs := inWindow(spl, six.Window)
				if n := six.Window.Count(spl); n != len(ids) {
					t.Fatalf("shards=%d term %q shard %d: Count = %d, want %d", shards, term, s, n, len(ids))
				}
				got, gotFreqs = append(got, ids...), append(gotFreqs, freqs...)
			}
			if !reflect.DeepEqual(got, want) || !reflect.DeepEqual(gotFreqs, wantFreqs) {
				t.Fatalf("shards=%d term %q: the shards' windows hold %d postings, want the source's %d",
					shards, term, len(got), len(want))
			}
		}
	}
}

func TestPartitionIndexKeepsGlobalStats(t *testing.T) {
	c := partitionTestCorpus(t)
	ixs, err := PartitionCorpus(c, 4)
	if err != nil {
		t.Fatal(err)
	}
	for s, six := range ixs {
		if six.NumDocs != c.Index.NumDocs {
			t.Errorf("shard %d: NumDocs=%d want %d", s, six.NumDocs, c.Index.NumDocs)
		}
		if six.AvgDocLen != c.Index.AvgDocLen {
			t.Errorf("shard %d: AvgDocLen=%v want %v", s, six.AvgDocLen, c.Index.AvgDocLen)
		}
		if !reflect.DeepEqual(six.DocLens, c.Index.DocLens) {
			t.Errorf("shard %d: the doc-length table is not the source's", s)
		}
	}
}

func TestPartitionIndexDeterministic(t *testing.T) {
	c := partitionTestCorpus(t)
	a, err := PartitionCorpus(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PartitionCorpus(c, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two splits of one index differ")
	}
}

func TestPartitionIndexRejectsBadShardCount(t *testing.T) {
	c := partitionTestCorpus(t)
	if _, err := PartitionCorpus(c, 0); err == nil {
		t.Fatal("expected error for 0 shards")
	}
	if _, err := PartitionCorpus(c, -2); err == nil {
		t.Fatal("expected error for negative shards")
	}
}

// A shard's lists share their boundary blocks with the shards beside it,
// which the file format has no window to cut away: WriteTo refuses the
// shards of a real partition before writing a byte, and writes a 1-shard
// partition — one window over every docID — as the file of the index it
// was split from.
func TestPartitionedShardsRefuseWriteTo(t *testing.T) {
	c := partitionTestCorpus(t)
	var want bytes.Buffer
	if _, err := c.Index.WriteTo(&want); err != nil {
		t.Fatal(err)
	}
	shards, err := PartitionCorpus(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	for s, ix := range shards {
		var buf bytes.Buffer
		if n, err := ix.WriteTo(&buf); err == nil || n != 0 || buf.Len() != 0 {
			t.Errorf("shard %d of 2: WriteTo wrote %d bytes (%v), want a refusal and nothing written", s, buf.Len(), err)
		}
	}
	one, err := PartitionCorpus(c, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if _, err := one[0].WriteTo(&got); err != nil {
		t.Fatalf("1-shard partition: %v", err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Error("a 1-shard partition does not write the file of the index it was split from")
	}

	// Every posting in the lower half of the docIDs, the document lengths
	// spanning all of them: shard 0 of 2 holds each list whole, so every
	// list there scores as the postings it holds, and only its window
	// keeps it from being written.
	b := index.NewBuilder(index.CodecEF)
	for _, term := range c.Index.Terms() {
		pl, _ := c.Index.Lookup(term)
		ids, freqs := pl.DecodeFrom(0)
		lo := 0
		for lo < len(ids) && int(ids[lo]) < c.Index.NumDocs/2 {
			lo++
		}
		if err := b.AddPostings(term, ids[:lo], freqs[:lo]); err != nil {
			t.Fatal(err)
		}
	}
	b.SetDocLen(uint32(c.Index.NumDocs-1), 1)
	low, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lowShards, err := PartitionIndex(low, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, term := range low.Terms() {
		pl, _ := lowShards[0].Lookup(term)
		if src, _ := low.Lookup(term); src.N > 0 && (pl == nil || pl.ScoringN() != pl.N || pl.N != src.N) {
			t.Fatalf("term %q on shard 0 of 2: want the whole list of %d postings", term, src.N)
		}
	}
	var buf bytes.Buffer
	if n, err := lowShards[0].WriteTo(&buf); err == nil || n != 0 || buf.Len() != 0 {
		t.Errorf("shard 0 of 2 holding every posting: WriteTo wrote %d bytes (%v), want a refusal and nothing written", buf.Len(), err)
	}
}

// A shard's list is a run of the source list's own blocks, so it spends
// the bits a posting of the source spends: each of its rows is the
// source's row, not a copy, and the shards hold at most one block of a
// list more than the source for each window boundary the list crosses.
func TestShardListsKeepTheSourceDensity(t *testing.T) {
	c := partitionTestCorpus(t)
	for _, shards := range []int{2, 3, 4} {
		ixs, err := PartitionCorpus(c, shards)
		if err != nil {
			t.Fatal(err)
		}
		for _, term := range c.Index.Terms() {
			src, _ := c.Index.Lookup(term)
			blocks := 0
			for _, ix := range ixs {
				pl, ok := ix.Lookup(term)
				if !ok {
					continue
				}
				blocks += pl.EF.NumBlocks()
				first, _ := pl.EF.Row(0)
				k := sourceBlock(src.EF, first)
				for b := range pl.EF.NumBlocks() {
					if r, _ := pl.EF.Row(b); r != rowOf(src.EF, k+b) {
						t.Fatalf("%d shards: term %q: block %d is not the source's block %d", shards, term, b, k+b)
					}
				}
			}
			if blocks > src.EF.NumBlocks()+shards-1 {
				t.Fatalf("%d shards: term %q: the shards hold %d blocks of the source's %d", shards, term, blocks, src.EF.NumBlocks())
			}
		}
	}
}

// rowOf returns block k's row of l.
func rowOf(l *ef.List, k int) *ef.Row {
	r, _ := l.Row(k)
	return r
}

// sourceBlock returns the block of l whose row r is, or -1.
func sourceBlock(l *ef.List, r *ef.Row) int {
	for k := range l.NumBlocks() {
		if rowOf(l, k) == r {
			return k
		}
	}
	return -1
}

// refPartitionIndex is the list-at-a-time reference of PartitionIndex:
// decode each list whole and walk its postings, a block at a time, to
// find the run of blocks that hold a posting in each shard's window, then
// view those.
func refPartitionIndex(t testing.TB, ix *index.Index, shards int) []*index.Index {
	t.Helper()
	out := make([]*index.Index, shards)
	for s := range out {
		w := index.ShardWindow(s, shards, ix.NumDocs)
		var lists []*index.PostingList
		for _, term := range ix.Terms() {
			pl, _ := ix.Lookup(term)
			ids := pl.EF.Decompress()
			k, end := -1, -1
			for b := 0; b*index.BlockSize < len(ids); b++ {
				blk := ids[b*index.BlockSize : min((b+1)*index.BlockSize, len(ids))]
				if uint64(blk[len(blk)-1]) >= w.Lo && uint64(blk[0]) < w.Hi {
					if k < 0 {
						k = b
					}
					end = b + 1
				}
			}
			if k < 0 {
				continue
			}
			// The reference views through a one-term index of the list's
			// blocks [k, end): the window [first, last] of those blocks.
			one := index.Assemble([]*index.PostingList{pl}, ix.NumDocs, ix.DocLens, ix.AvgDocLen)
			last := ids[min(end*index.BlockSize, len(ids))-1]
			v, _ := one.Shard(index.Window{Lo: uint64(ids[k*index.BlockSize]), Hi: uint64(last) + 1}).Lookup(term)
			lists = append(lists, v)
		}
		out[s] = index.Assemble(lists, ix.NumDocs, ix.DocLens, ix.AvgDocLen)
		out[s].Window = &w
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
	// Lists the generator does not make: one posting, exactly one block,
	// a sparse list whose every block spans several windows, and one that
	// lies in a single window of every shard count here.
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
		"x-sparse":    make([]uint32, 3*index.BlockSize),
		"x-one-shard": make([]uint32, 1000),
	}
	for i := range extra["x-block"] {
		extra["x-block"][i] = uint32(5 + 3*i)
	}
	for i := range extra["x-sparse"] {
		extra["x-sparse"][i] = uint32(130 * i)
	}
	for i := range extra["x-one-shard"] {
		extra["x-one-shard"][i] = uint32(i + 1)
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
			if reflect.DeepEqual(got[s], want[s]) {
				continue
			}
			for _, term := range want[s].Terms() {
				g, _ := got[s].Lookup(term)
				w, _ := want[s].Lookup(term)
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("shards=%d shard %d term %q: list differs from the list-at-a-time split's", shards, s, term)
				}
			}
			t.Fatalf("shards=%d: shard %d differs from the list-at-a-time split's", shards, s)
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

// Splitting allocates a few headers a term a shard — the shard's map
// entry, its posting list, the docID and frequency views — and nothing
// per posting or per block: its lists share the source's pages.
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
	const shards = 4
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ixs, err := PartitionIndex(c.Index, shards)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(ixs)
	allocated := after.TotalAlloc - before.TotalAlloc
	perTerm := float64(allocated) / float64(shards*len(c.Terms))
	t.Logf("%d postings in %d terms: allocated %d bytes, %.0f a term a shard", postings, len(c.Terms), allocated, perTerm)
	if perTerm > 1024 {
		t.Errorf("PartitionIndex of %d postings allocated %d bytes, %.0f a term a shard, want <= 1024", postings, allocated, perTerm)
	}
}

// BenchmarkPartitionIndex reports, beside the time a posting, what the
// shards hold: Elias–Fano bits a posting (CompressedBits: what a shard
// uploads) and blocks against the source's.
func BenchmarkPartitionIndex(b *testing.B) {
	c := splitBenchCorpus(b)
	postings, srcBlocks := 0, 0
	for _, term := range c.Terms {
		pl, _ := c.Index.Lookup(term)
		postings += pl.N
		srcBlocks += pl.EF.NumBlocks()
	}
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
	blocks := 0
	var bits int64
	for _, ix := range shards {
		for _, term := range ix.Terms() {
			pl, _ := ix.Lookup(term)
			blocks += pl.EF.NumBlocks()
			bits += pl.EF.CompressedBits()
		}
	}
	b.ReportMetric(float64(bits)/float64(postings), "shard_bits/posting")
	b.ReportMetric(float64(blocks)/float64(srcBlocks), "blocks/source_block")
}
