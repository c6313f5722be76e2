package ingest

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/ef"
	"griffin/internal/index"
	"griffin/internal/wal"
	"griffin/internal/workload"
)

// ---------------------------------------------------------------------------
// Reference: the decode-everything merge through index.Builder. Every list
// is decoded whole, filtered through the shadow set, unioned with the delta
// and re-added posting run by posting run — what a from-scratch build over
// the merged logical corpus does. The block splice must equal it exactly.
// ---------------------------------------------------------------------------

// pricedList is what the modeled clock sees of one changed list.
type pricedList struct {
	term   string
	hasOld bool
	oldN   int
	merged int
}

func pricedOf(changed []changedList) []pricedList {
	var out []pricedList
	for _, ch := range changed {
		out = append(out, pricedList{term: ch.term, hasOld: ch.old != nil, oldN: ch.oldN, merged: ch.merged})
	}
	return out
}

// lensOf returns every length of a table, its pages unpacked end to end.
func lensOf(lens index.LenTable) []uint32 {
	out := make([]uint32, lens.Len())
	var buf [1 << index.DocLenShift]uint32
	for p := range lens.NumPages() {
		copy(out[p<<index.DocLenShift:], lensPage(lens, p, &buf)) // a page of width 0 stays zeros
	}
	return out
}

func rebuildMerge(t testing.TB, main *index.Index, v *View) (*index.Index, []pricedList) {
	t.Helper()
	b := index.NewBuilder(index.CodecEF)
	for d, l := range lensOf(main.DocLens) {
		if l > 0 && v.docs[uint32(d)] == nil {
			b.SetDocLen(uint32(d), l)
		}
	}
	for id, rec := range v.docs {
		if !rec.deleted {
			b.SetDocLen(id, rec.length)
		}
	}

	type posting struct{ id, tf uint32 }
	var priced []pricedList
	fold := func(term string, pl *index.PostingList) {
		var out []posting
		shadowed := false
		if pl != nil {
			freqs := pl.Freqs.Decode()
			for i, d := range pl.EF.Decompress() {
				if v.docs[d] != nil {
					shadowed = true
					continue
				}
				out = append(out, posting{d, freqs[i]})
			}
		}
		for _, d := range v.postings[term] {
			out = append(out, posting{d, v.docs[d].tf[term]})
		}
		sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
		if shadowed || len(v.postings[term]) > 0 {
			p := pricedList{term: term, hasOld: pl != nil, merged: len(out)}
			if pl != nil {
				p.oldN = pl.N
			}
			priced = append(priced, p)
		}
		if len(out) == 0 {
			return
		}
		ids, freqs := make([]uint32, len(out)), make([]uint32, len(out))
		for i, p := range out {
			ids[i], freqs[i] = p.id, p.tf
		}
		if err := b.AddPostings(term, ids, freqs); err != nil {
			t.Fatal(err)
		}
	}
	for _, term := range main.Terms() {
		pl, _ := main.Lookup(term)
		fold(term, pl)
	}
	var fresh []string
	for term := range v.postings {
		if _, ok := main.Lookup(term); !ok {
			fresh = append(fresh, term)
		}
	}
	sort.Strings(fresh)
	for _, term := range fresh {
		fold(term, nil)
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ix, priced
}

func serialized(t testing.TB, ix *index.Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameContents is reflect.DeepEqual but for where a block table page's
// words lie (ef.Page): a shard's lists lie in the regions its split
// copied them into, a rebuild's on the heap, and a merged page's run is
// its Words, a view of the page it was spliced from, then the words it
// owns. Pages are held to the same rows and the same run; the rest walks
// what DeepEqual walks, unexported fields included.
func sameContents(a, b any) bool {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	return va.Type() == vb.Type() && sameValue(va, vb)
}

// pageType and pageRun read an ef.Page through reflect, unexported
// fields included: Words, then the owned run behind its ext field.
var pageType = func() reflect.Type {
	t := reflect.TypeOf(ef.Page[ef.Row]{})
	if ext, ok := t.FieldByName("ext"); !ok || ext.Type.Kind() != reflect.Pointer {
		panic("ef.Page has no ext field")
	} else if _, ok := ext.Type.Elem().FieldByName("owned"); !ok {
		panic("ef.Page has no owned run behind its ext field")
	}
	return t
}()

func isPage(t reflect.Type) bool {
	return t.PkgPath() == pageType.PkgPath() && strings.HasPrefix(t.Name(), "Page[")
}

func pageRun(pg reflect.Value) []uint64 {
	var run []uint64
	add := func(w reflect.Value) {
		for i := range w.Len() {
			run = append(run, w.Index(i).Uint())
		}
	}
	add(pg.FieldByName("Words"))
	if ext := pg.FieldByName("ext"); !ext.IsNil() {
		add(ext.Elem().FieldByName("owned"))
	}
	return run
}

func sameValue(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Pointer:
		if a.Pointer() == b.Pointer() {
			return true
		}
		return !a.IsNil() && !b.IsNil() && sameValue(a.Elem(), b.Elem())
	case reflect.Struct:
		if isPage(a.Type()) {
			return sameValue(a.FieldByName("Rows"), b.FieldByName("Rows")) && slices.Equal(pageRun(a), pageRun(b))
		}
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

// checkSameIndex holds got to want: statistics, dictionary, every list's
// three compressed forms and skip pointers deep-equal but for where their
// words lie (sameContents), and the serialized bytes equal. GlobalN is
// left out — a shard's shared lists keep their partition-time stamp, a
// rebuilt list has none — and so both are serialized without it, which
// WriteTo refuses to drop. A shard of several is a docID window, which
// has no file form (WriteTo refuses it): its lists are held by
// sameContents alone, and the rest of the file — the doc lengths packed
// as NewLenTable packs them — by the bytes of both serialized without
// lists.
func checkSameIndex(t *testing.T, got, want *index.Index, tag string) {
	t.Helper()
	if got.NumDocs != want.NumDocs {
		t.Errorf("%s: NumDocs %d, want %d", tag, got.NumDocs, want.NumDocs)
	}
	if math.Float64bits(got.AvgDocLen) != math.Float64bits(want.AvgDocLen) {
		t.Errorf("%s: AvgDocLen %v, want %v", tag, got.AvgDocLen, want.AvgDocLen)
	}
	if !slices.Equal(lensOf(got.DocLens), lensOf(want.DocLens)) {
		t.Errorf("%s: DocLens diverge", tag)
	}
	if !reflect.DeepEqual(got.Terms(), want.Terms()) {
		t.Fatalf("%s: dictionaries diverge:\n got=%v\nwant=%v", tag, got.Terms(), want.Terms())
	}
	var gs, ws []*index.PostingList
	writable := true
	for _, term := range want.Terms() {
		gp, _ := got.Lookup(term)
		wp, _ := want.Lookup(term)
		g, w := *gp, *wp
		g.GlobalN, w.GlobalN = 0, 0
		if !sameContents(&g, &w) {
			t.Errorf("%s: term %q (N %d, want %d) is not the list a rebuild encodes", tag, term, gp.N, wp.N)
		}
		gs, ws = append(gs, &g), append(ws, &w)
		writable = writable && got.Window == nil && want.Window == nil
	}
	if !writable {
		gs, ws = nil, nil
	}
	got = index.Assemble(gs, got.NumDocs, got.DocLens, got.AvgDocLen)
	want = index.Assemble(ws, want.NumDocs, want.DocLens, want.AvgDocLen)
	if !bytes.Equal(serialized(t, got), serialized(t, want)) {
		t.Errorf("%s: serialized bytes diverge", tag)
	}
}

// sameBlocks holds got's lists to want's block for block: the same terms,
// and per list the same blocks (ef.Block: skip pointer, shape and words)
// and frequencies, wherever their pages begin.
func sameBlocks(t *testing.T, got, want *index.Index, tag string) {
	t.Helper()
	if !reflect.DeepEqual(got.Terms(), want.Terms()) {
		t.Fatalf("%s: dictionaries diverge:\n got=%v\nwant=%v", tag, got.Terms(), want.Terms())
	}
	for _, term := range want.Terms() {
		gp, _ := got.Lookup(term)
		wp, _ := want.Lookup(term)
		same := gp.N == wp.N && slices.Equal(gp.Freqs.Decode(), wp.Freqs.Decode())
		for b := 0; same && b < wp.EF.NumBlocks(); b++ {
			same = reflect.DeepEqual(gp.EF.Block(b), wp.EF.Block(b))
		}
		if !same {
			t.Errorf("%s: term %q (N %d, want %d) is not the list a rebuild encodes", tag, term, gp.N, wp.N)
		}
	}
}

// mergeShardAgainstRebuild merges shard s's whole delta and checks the
// new segment, its aggregates and the priced changed set against the
// rebuild. At one shard the merged segment is the rebuild, statistics and
// all. At n its lists are the rebuild's block for block — a view's
// postings, its boundary blocks' included, merged with the delta — but
// views of the pages of the source they were cut from (sameBlocks), and
// the cluster stamps it with the global statistics.
func mergeShardAgainstRebuild(t *testing.T, c *Cluster, s int, tag string) {
	t.Helper()
	c.mu.Lock()
	sh, n := c.t.shards[s], c.t.n
	main, v := sh.ix, sh.d.freeze()
	c.mu.Unlock()
	want, wantPriced := rebuildMerge(t, main, v)
	plan, err := planMerge(main, v)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	if got := pricedOf(plan.changed); !reflect.DeepEqual(got, wantPriced) {
		t.Errorf("%s: priced lists diverge:\n got=%+v\nwant=%+v", tag, got, wantPriced)
	}
	if err := c.MergeShard(s); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if v.Empty() {
		if sh.ix != main {
			t.Errorf("%s: an empty delta replaced the shard segment", tag)
		}
		if len(plan.changed) != 0 || len(plan.lists) != main.NumTerms() {
			t.Errorf("%s: an empty delta changed %d lists and kept %d of %d", tag, len(plan.changed), len(plan.lists), main.NumTerms())
		}
		return
	}
	if n == 1 && !sameContents(sh.ix, want) {
		t.Errorf("%s: merged index is not deep-equal to the rebuild", tag)
	}
	if n > 1 {
		if sh.ix.NumDocs != c.stats.numDocs || sh.ix.AvgDocLen != c.stats.avgDocLen() || sh.ix.Window != main.Window {
			t.Errorf("%s: merged shard stamped %d docs, mean length %v, window %v; want %d, %v, %v", tag,
				sh.ix.NumDocs, sh.ix.AvgDocLen, sh.ix.Window, c.stats.numDocs, c.stats.avgDocLen(), main.Window)
		}
		sameBlocks(t, sh.ix, want, tag)
	} else {
		checkSameIndex(t, sh.ix, want, tag)
	}
	if scan := statsOf(sh.ix.DocLens); c.stats != scan {
		t.Errorf("%s: running aggregates %+v, a scan of the merged shard gives %+v", tag, c.stats, scan)
	}
}

// spliceCorpus is 700 documents on the even docIDs 0..1398 (odd ones are
// gaps to insert into). "big" is in all of them — five full blocks and a
// 60-posting tail; "l127", "l128" and "l129" are in the first 127, 128
// and 129, so their lists end one short of, exactly on and one past a
// block boundary; "rare" is in documents 10 and 20 only.
const spliceMaxDoc = 1398

func spliceCorpus() *oracle {
	c := newOracle()
	for i := 0; i < 700; i++ {
		toks := []string{"big", word(i % 5), word(i % 5)}
		for _, n := range []int{127, 128, 129} {
			if i < n {
				toks = append(toks, fmt.Sprintf("l%d", n))
			}
		}
		if i == 5 || i == 10 {
			toks = append(toks, "rare")
		}
		c.docs[uint32(2*i)] = toks
	}
	return c
}

var spliceCases = []struct {
	name string
	muts []mutation
}{
	{"tail appends", []mutation{
		{kind: wal.OpAdd, docID: 1400, tokens: []string{"big", "l127", "l128", "l129", "l129"}},
		{kind: wal.OpAdd, docID: 1401, tokens: []string{"big", "l127"}},
	}},
	{"append to 127", []mutation{{kind: wal.OpAdd, docID: 1500, tokens: []string{"l127"}}}},
	{"gap in block 0", []mutation{{kind: wal.OpAdd, docID: 3, tokens: []string{"big", "l128", word(1)}}}},
	{"gap in a middle block", []mutation{{kind: wal.OpAdd, docID: 601, tokens: []string{"big", "big", word(2)}}}},
	{"gap in the last block", []mutation{{kind: wal.OpAdd, docID: 1381, tokens: []string{"big", word(3)}}}},
	{"update in block 0", []mutation{
		{kind: wal.OpUpdate, docID: 0, tokens: []string{"big", "big", "big", "other"}},
		{kind: wal.OpUpdate, docID: 4, tokens: []string{"other"}},
	}},
	{"delete in block 0", []mutation{{kind: wal.OpDelete, docID: 2}}},
	{"delete at block boundaries", []mutation{
		{kind: wal.OpDelete, docID: 2 * 126}, {kind: wal.OpDelete, docID: 2 * 127}, {kind: wal.OpDelete, docID: 2 * 128},
	}},
	{"fully tombstoned list", []mutation{{kind: wal.OpDelete, docID: 10}, {kind: wal.OpDelete, docID: 20}}},
	{"delete the maximum docID", []mutation{{kind: wal.OpDelete, docID: spliceMaxDoc}}},
	{"delta-only term", []mutation{
		{kind: wal.OpAdd, docID: 1400, tokens: []string{"fresh", "fresh"}},
		{kind: wal.OpUpdate, docID: 6, tokens: []string{"fresh2", "big"}},
	}},
	{"empty delta", nil},
	{"add then delete in one delta", []mutation{
		{kind: wal.OpAdd, docID: 7, tokens: []string{"big"}},
		{kind: wal.OpDelete, docID: 7},
	}},
}

// followUp runs after every case's first merge, so each case also splices
// a segment that is itself the product of a splice.
var followUp = []mutation{
	{kind: wal.OpAdd, docID: 1600, tokens: []string{"big", "l127", "l128", "l129", "rare"}},
	{kind: wal.OpDelete, docID: 300},
	{kind: wal.OpUpdate, docID: 1000, tokens: []string{"l129", "late"}},
}

// TestSpliceMergeEqualsRebuild: a merge shares every block before the
// first one the delta touches and re-encodes the rest; the segment it
// publishes, and the changed set the modeled clock bills, must be exactly
// what decoding and rebuilding the whole corpus gives.
func TestSpliceMergeEqualsRebuild(t *testing.T) {
	t.Run("engine/ef", func(t *testing.T) {
		for _, tc := range spliceCases {
			lc := spliceCorpus()
			e, err := New(lc.build(t), Config{Engine: core.Config{Mode: core.CPUOnly}})
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range tc.muts {
				apply(t, e, lc, m)
			}
			mergeShardAgainstRebuild(t, e, 0, tc.name)
			checkSameIndex(t, segment(e, 0), lc.build(t), tc.name+": vs logical corpus")
			for _, m := range followUp {
				apply(t, e, lc, m)
			}
			mergeShardAgainstRebuild(t, e, 0, tc.name+", follow-up")
			checkSameIndex(t, segment(e, 0), lc.build(t), tc.name+", follow-up: vs logical corpus")
			e.Close()
		}
	})
	t.Run("shard/ef", func(t *testing.T) {
		for _, tc := range spliceCases {
			lc := spliceCorpus()
			c, err := OpenCluster(lc.build(t), ClusterConfig{
				Shards:  2,
				Cluster: cluster.Config{Engine: core.Config{Mode: core.CPUOnly}},
			})
			if err != nil {
				t.Fatal(err)
			}
			for round, muts := range [][]mutation{tc.muts, followUp} {
				for _, m := range muts {
					apply(t, c, lc, m)
				}
				for s := 0; s < 2; s++ {
					mergeShardAgainstRebuild(t, c, s, fmt.Sprintf("%s, round %d, shard %d", tc.name, round, s))
				}
			}
			c.Close()
		}
	})
	t.Run("seeded/ef", func(t *testing.T) {
		const vocab = 12
		for seed := int64(1); seed <= 4; seed++ {
			lc := seedCorpus(seed, 600, vocab)
			script := genScript(seed+100, lc.clone(), 240, vocab)
			e, err := New(lc.build(t), Config{Engine: core.Config{Mode: core.CPUOnly}})
			if err != nil {
				t.Fatal(err)
			}
			c, err := OpenCluster(lc.build(t), ClusterConfig{
				Shards:  3,
				Cluster: cluster.Config{Engine: core.Config{Mode: core.CPUOnly}},
			})
			if err != nil {
				t.Fatal(err)
			}
			clc := lc.clone()
			for i, m := range script {
				apply(t, e, lc, m)
				apply(t, c, clc, m)
				if i%60 == 59 {
					tag := fmt.Sprintf("seed %d, mutation %d", seed, i)
					mergeShardAgainstRebuild(t, e, 0, tag)
					mergeShardAgainstRebuild(t, c, i/60%3, tag)
				}
			}
			checkSameIndex(t, segment(e, 0), lc.build(t), fmt.Sprintf("seed %d: vs logical corpus", seed))
			e.Close()
			c.Close()
		}
	})
}

// ---------------------------------------------------------------------------
// Host cost: a small delta must cost a small merge.
// ---------------------------------------------------------------------------

// appendFixture is a synthetic corpus of at least scale million postings
// — scale times the documents, scale times every list — and a generator
// of documents over its head terms, the same at every scale.
func appendFixture(t testing.TB, scale int) (*workload.Corpus, func(r *rand.Rand) []string) {
	t.Helper()
	corpus, err := workload.GenerateCorpus(workload.CorpusSpec{
		NumDocs: scale * 400_000, NumTerms: 64, MaxListLen: scale * 160_000, MinListLen: scale * 2_000,
		Alpha: 0.85, Seed: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	postings := 0
	for _, n := range corpus.Sizes {
		postings += n
	}
	if postings < scale*1_000_000 {
		t.Fatalf("fixture holds %d postings, want >= %dM", postings, scale)
	}
	terms := corpus.Terms
	doc := func(r *rand.Rand) []string {
		toks := make([]string, 4+r.Intn(5))
		for i := range toks {
			toks[i] = terms[r.Intn(len(terms))]
		}
		return toks
	}
	return corpus, doc
}

func allocatedBy(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// appendDelta adds 256 documents past the end of the engine's corpus.
func appendDelta(t testing.TB, e *Cluster, doc func(*rand.Rand) []string) {
	t.Helper()
	r := rand.New(rand.NewSource(1))
	next := uint32(segment(e, 0).NumDocs)
	for i := 0; i < 256; i++ {
		if err := e.Add(next+uint32(i), doc(r)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMergeAllocationCeiling: folding 256 appended documents into a
// million-posting segment allocates under 400 KB, engine swap included —
// the re-encoded tails, the rows of the page of each changed list's
// block tables they land in (whose words before them are shared, not
// copied), the documents' pages of the length table — where decoding and
// rebuilding the corpus allocates 68 MB, where copying every changed
// list's block tables and the length table allocated 3.4 MB, and where
// copying the words of the page each tail lands in allocated 600 KB.
func TestMergeAllocationCeiling(t *testing.T) {
	corpus, doc := appendFixture(t, 1)
	e, err := New(corpus.Index, Config{Engine: core.Config{Mode: core.CPUOnly}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	appendDelta(t, e, doc)
	e.mu.Lock()
	main, v := e.t.shards[0].ix, e.t.shards[0].d.freeze()
	e.mu.Unlock()

	var want *index.Index
	rebuild := allocatedBy(func() { want, _ = rebuildMerge(t, main, v) })
	splice := allocatedBy(func() {
		if err := e.Merge(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("rebuild allocated %d KB, splice %d KB", rebuild>>10, splice>>10)
	if splice > 400<<10 {
		t.Errorf("splice merge allocated %d bytes, want <= 400 KB (the rebuild: %d)", splice, rebuild)
	}
	if !bytes.Equal(serialized(t, segment(e, 0)), serialized(t, want)) {
		t.Error("spliced segment's bytes differ from the rebuild's")
	}
}

// TestMergeAllocationIndependentOfCorpus: the same 256 documents merged
// into the million-posting fixture and into one with four times the
// documents and postings allocate within 1.25x of each other — what grows
// with the corpus is 24 bytes of page table per 8 192 postings and per
// 4 096 documents. Copies of the block tables and of the length table
// made that 4x.
func TestMergeAllocationIndependentOfCorpus(t *testing.T) {
	var engine, shard [2]uint64
	for i, scale := range []int{1, 4} {
		corpus, doc := appendFixture(t, scale)

		e, err := New(corpus.Index, Config{Engine: core.Config{Mode: core.CPUOnly}})
		if err != nil {
			t.Fatal(err)
		}
		appendDelta(t, e, doc)
		engine[i] = allocatedBy(func() {
			if err := e.Merge(); err != nil {
				t.Fatal(err)
			}
		})
		e.Close()

		c, err := OpenCluster(corpus.Index, ClusterConfig{
			Shards: 2, Cluster: cluster.Config{Engine: core.Config{Mode: core.CPUOnly}},
		})
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(1))
		for d := 0; d < 256; d++ {
			if err := c.Apply(wal.OpAdd, uint32(corpus.Index.NumDocs+d), doc(r)); err != nil {
				t.Fatal(err)
			}
		}
		shard[i] = allocatedBy(func() {
			if err := c.MergeShard(0); err != nil {
				t.Fatal(err)
			}
		})
		c.Close()
	}
	t.Logf("engine merge allocated %d KB into 1M postings, %d KB into 4M; a shard merge %d KB and %d KB",
		engine[0]>>10, engine[1]>>10, shard[0]>>10, shard[1]>>10)
	if engine[1]*4 > engine[0]*5 {
		t.Errorf("engine merge into the 4x corpus allocated %d bytes, into the 1x corpus %d: want within 1.25x", engine[1], engine[0])
	}
	if shard[1]*4 > shard[0]*5 {
		t.Errorf("shard merge into the 4x corpus allocated %d bytes, into the 1x corpus %d: want within 1.25x", shard[1], shard[0])
	}
}

// TestMergedSegmentsDoNotPinDeadTables is the block-table and
// length-table analogue of index's TestSplicedListsDoNotPinDeadSlabs. A
// merged segment shares table pages with the segment before it, and a
// page keeps alive the allocation it lies in: were a spliced table's
// pages cut from one array per splice, fifty merges that each touch the
// long lists a little further in would chain fifty dead tables to the
// live one (tried: 42 MB against the 14.5 MB of a fresh build). Pages a
// merge makes are allocations of their own (ef.Pager), so the
// segment after fifty merges keeps alive what a fresh build of its corpus
// does plus the pages it still shares with the seed — 1.07x here.
func TestMergedSegmentsDoNotPinDeadTables(t *testing.T) {
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	floor := heap()
	corpus, doc := appendFixture(t, 4)
	e, err := New(corpus.Index, Config{Engine: core.Config{Mode: core.CPUOnly}})
	if err != nil {
		t.Fatal(err)
	}
	numDocs := corpus.Index.NumDocs
	corpus = nil
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 50; i++ {
		// One document in the middle half of the docID space, further in
		// every merge: each changed list is spliced past the point the
		// merge before spliced it at.
		if err := e.Update(uint32(numDocs/4+i*numDocs/100), doc(r)); err != nil {
			t.Fatal(err)
		}
		if err := e.Merge(); err != nil {
			t.Fatal(err)
		}
	}
	ix := segment(e, 0)
	e.Close()
	e = nil
	merged := heap() - floor

	b := index.NewBuilder(index.CodecEF)
	for _, term := range ix.Terms() {
		pl, _ := ix.Lookup(term)
		ids, freqs := pl.DecodeFrom(0)
		if err := b.AddPostings(term, ids, freqs); err != nil {
			t.Fatal(err)
		}
	}
	for d, l := range lensOf(ix.DocLens) {
		if l > 0 {
			b.SetDocLen(uint32(d), l)
		}
	}
	want, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(serialized(t, ix), serialized(t, want)) {
		t.Fatal("the segment after 50 merges differs from a build of its corpus")
	}
	ix, b = nil, nil
	fresh := heap() - floor
	runtime.KeepAlive(want)
	t.Logf("after 50 merges the segment keeps %d KB alive, a fresh build of its corpus %d KB", merged>>10, fresh>>10)
	if merged*2 > fresh*3 {
		t.Errorf("after 50 merges the segment keeps %d bytes alive, a fresh build %d: want <= 1.5x", merged, fresh)
	}
}

var benchSink *index.Index

// BenchmarkMerge times one 256-document tail-append merge over the
// million-posting fixture and over the fixture four times its size (the
// segment grows by 256 documents an iteration; the delta is rebuilt off
// the clock): the two read the same but for the page tables.
func BenchmarkMerge(b *testing.B) {
	for _, scale := range []int{1, 4} {
		b.Run(fmt.Sprintf("postings=%dM", scale), func(b *testing.B) {
			corpus, doc := appendFixture(b, scale)
			e, err := New(corpus.Index, Config{Engine: core.Config{Mode: core.CPUOnly}})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			r := rand.New(rand.NewSource(1))
			next := uint32(corpus.Index.NumDocs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for j := 0; j < 256; j++ {
					if err := e.Add(next, doc(r)); err != nil {
						b.Fatal(err)
					}
					next++
				}
				b.StartTimer()
				if err := e.Merge(); err != nil {
					b.Fatal(err)
				}
				benchSink = segment(e, 0)
			}
		})
	}
}
