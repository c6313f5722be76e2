package ingest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/fault"
	"griffin/internal/gpu"
	"griffin/internal/hwmodel"
	"griffin/internal/index"
	"griffin/internal/kernels"
	"griffin/internal/wal"
)

// ---------------------------------------------------------------------------
// Logical corpus: the ground truth a live engine and a fresh build must agree
// on. Documents are token streams; building is index.Builder.AddDocument in
// ascending docID order — exactly what a from-scratch ingestion would do.
// ---------------------------------------------------------------------------

type logicalCorpus struct {
	docs map[uint32][]string
}

func newLogicalCorpus() *logicalCorpus {
	return &logicalCorpus{docs: make(map[uint32][]string)}
}

func (c *logicalCorpus) clone() *logicalCorpus {
	out := newLogicalCorpus()
	for id, toks := range c.docs {
		out.docs[id] = toks
	}
	return out
}

func (c *logicalCorpus) build(t testing.TB, codec index.Codec) *index.Index {
	t.Helper()
	ids := make([]uint32, 0, len(c.docs))
	for id := range c.docs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	b := index.NewBuilder(codec)
	for _, id := range ids {
		if err := b.AddDocument(id, c.docs[id]); err != nil {
			t.Fatal(err)
		}
	}
	ix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func word(i int) string { return fmt.Sprintf("w%02d", i) }

// genDoc draws a document whose term distribution is skewed toward the
// low-numbered vocabulary words (so conjunctions actually match).
func genDoc(r *rand.Rand, vocab int) []string {
	n := 4 + r.Intn(20)
	toks := make([]string, n)
	for i := range toks {
		toks[i] = word(int(float64(vocab) * r.Float64() * r.Float64()))
	}
	return toks
}

func seedCorpus(seed int64, docs, vocab int) *logicalCorpus {
	r := rand.New(rand.NewSource(seed))
	c := newLogicalCorpus()
	for id := 0; id < docs; id++ {
		c.docs[uint32(id)] = genDoc(r, vocab)
	}
	return c
}

// mutation is one scripted Add/Update/Delete, applied identically to the
// live engine and the logical corpus.
type mutation struct {
	kind   wal.Op
	docID  uint32
	tokens []string
}

// genScript produces a deterministic mutation script over a seeded corpus:
// adds of brand-new docIDs, whole-document updates, and deletes (including
// deletes of documents previously added or updated in the script itself).
func genScript(seed int64, c *logicalCorpus, n, vocab int) []mutation {
	r := rand.New(rand.NewSource(seed))
	live := make([]uint32, 0, len(c.docs))
	next := uint32(0)
	for id := range c.docs {
		live = append(live, id)
		if id >= next {
			next = id + 1
		}
	}
	sort.Slice(live, func(i, j int) bool { return live[i] < live[j] })
	var out []mutation
	for i := 0; i < n; i++ {
		switch k := r.Intn(10); {
		case k < 4: // add
			out = append(out, mutation{kind: wal.OpAdd, docID: next, tokens: genDoc(r, vocab)})
			live = append(live, next)
			next++
		case k < 7: // update an existing doc
			if len(live) == 0 {
				continue
			}
			id := live[r.Intn(len(live))]
			out = append(out, mutation{kind: wal.OpUpdate, docID: id, tokens: genDoc(r, vocab)})
		default: // delete an existing doc
			if len(live) == 0 {
				continue
			}
			j := r.Intn(len(live))
			id := live[j]
			live = append(live[:j], live[j+1:]...)
			out = append(out, mutation{kind: wal.OpDelete, docID: id})
		}
	}
	return out
}

// apply replays one mutation into both the live engine and the logical
// corpus, keeping them in lockstep.
func apply(t testing.TB, e *Cluster, c *logicalCorpus, m mutation) {
	t.Helper()
	var err error
	switch m.kind {
	case wal.OpAdd:
		err = e.Add(m.docID, m.tokens)
		c.docs[m.docID] = m.tokens
	case wal.OpUpdate:
		err = e.Update(m.docID, m.tokens)
		c.docs[m.docID] = m.tokens
	case wal.OpDelete:
		err = e.Delete(m.docID)
		delete(c.docs, m.docID)
	}
	if err != nil {
		t.Fatalf("mutation %+v: %v", m, err)
	}
}

// queryLog is a fixed conjunctive query mix: popular pairs, selective
// triples, and one term that only ever exists in the delta.
func queryLog(vocab int) [][]string {
	return [][]string{
		{word(0)},
		{word(0), word(1)},
		{word(1), word(2)},
		{word(0), word(2), word(3)},
		{word(3), word(5)},
		{word(vocab / 2), word(1)},
		{word(vocab - 1), word(0)},
		{"fresh-term", word(0)},
		{"no-such-term"},
	}
}

// ---------------------------------------------------------------------------
// Result comparison
// ---------------------------------------------------------------------------

type docBits struct {
	DocID uint32
	Bits  uint32
}

// bitsOf reads the ranked docs of an engine's result or a cluster's.
func bitsOf(r any) []docBits {
	var docs []kernels.ScoredDoc
	switch r := r.(type) {
	case *core.Result:
		docs = r.Docs
	case *cluster.Result:
		docs = r.Docs
	}
	out := make([]docBits, len(docs))
	for i, d := range docs {
		out[i] = docBits{DocID: d.DocID, Bits: math.Float32bits(d.Score)}
	}
	return out
}

func sameDocs(a, b []docBits) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkLiveParity asserts the live cluster's ranked results are
// bit-identical to a freshly built engine over the same logical corpus,
// and its shards' candidates add up to the engine's, for every query in
// the log — the scatter-gather merge reproduces the single-engine top-k
// whenever per-shard scores carry global statistics, live or stamped.
func checkLiveParity(t *testing.T, e *Cluster, c *logicalCorpus, queries [][]string, tag string) {
	t.Helper()
	fresh, err := core.New(c.build(t, index.CodecEF), core.Config{Mode: core.CPUOnly})
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		lr, err := e.Search(q)
		if err != nil {
			t.Fatalf("%s q%d live: %v", tag, qi, err)
		}
		fr, err := fresh.Search(q)
		if err != nil {
			t.Fatalf("%s q%d fresh: %v", tag, qi, err)
		}
		got := 0
		for _, sh := range lr.Stats.Shards {
			got += sh.Query.Candidates
		}
		if got != fr.Stats.Candidates {
			t.Errorf("%s q%d %v: candidates live=%d fresh=%d",
				tag, qi, q, got, fr.Stats.Candidates)
		}
		if lb, fb := bitsOf(lr.Result), bitsOf(fr); !sameDocs(lb, fb) {
			t.Errorf("%s q%d %v: docs diverge\n live=%v\nfresh=%v", tag, qi, q, lb, fb)
		}
	}
}

// ---------------------------------------------------------------------------
// The three ways a live cluster is built: Open over a single-node Config,
// and OpenCluster at one shard and at two. A drained one-shard cluster is
// its engine, so each law below holds for every row.
// ---------------------------------------------------------------------------

type liveBackend struct {
	name   string
	shards int
	open   func(seed *index.Index, cfg Config) (*Cluster, error)
}

var liveBackends = []liveBackend{
	{"Open", 1, Open},
	{"OpenCluster-shards=1", 1, func(seed *index.Index, cfg Config) (*Cluster, error) {
		return OpenCluster(seed, clusterConfigOf(cfg, 1))
	}},
	{"OpenCluster-shards=2", 2, func(seed *index.Index, cfg Config) (*Cluster, error) {
		return OpenCluster(seed, clusterConfigOf(cfg, 2))
	}},
}

// Each law runs twice: the engine's test over the one-shard rows, and the
// cluster's test (TestCluster...) over the two-shard row.
var engineBackends, clusterBackends = liveBackends[:2], liveBackends[2:]

// clusterConfigOf is cfg as a ClusterConfig of n shards: the serving
// template is cfg.Engine's, and cfg.Fault covers serving too.
func clusterConfigOf(cfg Config, n int) ClusterConfig {
	return ClusterConfig{
		Shards:         n,
		Cluster:        cluster.Config{Engine: cfg.Engine, Fault: cfg.Fault},
		MergeThreshold: cfg.MergeThreshold, AutoMerge: cfg.AutoMerge,
		WALDir: cfg.WALDir, WALSyncEvery: cfg.WALSyncEvery, CheckpointEvery: cfg.CheckpointEvery,
	}
}

// segment returns shard s's current main segment.
func segment(c *Cluster, s int) *index.Index {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t.shards[s].ix
}

// ---------------------------------------------------------------------------
// Live parity: results during active mutation, CPU-only and hybrid.
// ---------------------------------------------------------------------------

func TestLiveParity(t *testing.T)        { testLiveParity(t, engineBackends) }
func TestClusterLiveParity(t *testing.T) { testLiveParity(t, clusterBackends) }

func testLiveParity(t *testing.T, backends []liveBackend) {
	const vocab = 16
	base := seedCorpus(11, 120, vocab)
	script := genScript(12, base.clone(), 90, vocab)
	// Seed the delta-only term: a doc added mid-script that is the sole
	// holder of "fresh-term" until a merge folds it in.
	script = append(script, mutation{
		kind: wal.OpUpdate, docID: 9_000, tokens: []string{"fresh-term", word(0), word(0), word(1)},
	})

	modes := map[string]core.Config{
		"cpu":    {Mode: core.CPUOnly},
		"hybrid": {Mode: core.Hybrid, Device: gpu.New(hwmodel.DefaultGPU(), 0)},
	}
	for name, cfg := range modes {
		t.Run(name, func(t *testing.T) {
			for _, b := range backends {
				t.Run(b.name, func(t *testing.T) {
					c := base.clone()
					e, err := b.open(c.build(t, index.CodecEF), Config{Engine: cfg})
					if err != nil {
						t.Fatal(err)
					}
					defer e.Close()
					queries := queryLog(vocab)
					checkLiveParity(t, e, c, queries, "seed")
					for i, m := range script {
						apply(t, e, c, m)
						if (i+1)%15 == 0 || i == len(script)-1 {
							checkLiveParity(t, e, c, queries, fmt.Sprintf("step%d", i+1))
						}
						if i == len(script)/2 {
							// Mid-life merges: segments swap under traffic, a
							// stamp of one shard of several goes best-effort.
							if err := e.Merge(); err != nil {
								t.Fatal(err)
							}
							checkLiveParity(t, e, c, queries, "mid-merge")
						}
					}
					if got, want := e.Gen(), uint64(len(script)); got != want {
						t.Errorf("gen = %d, want %d", got, want)
					}
					st := e.Stats()
					if st.Adds+st.Updates+st.Deletes != int64(len(script)) {
						t.Errorf("mutation counters %d+%d+%d != %d", st.Adds, st.Updates, st.Deletes, len(script))
					}
					if st.Merges != int64(b.shards) {
						t.Errorf("merges = %d, want one per shard: %d", st.Merges, b.shards)
					}
					if st.Shards != b.shards || len(st.ShardDocs) != b.shards {
						t.Errorf("shards = %d (docs %v), want %d", st.Shards, st.ShardDocs, b.shards)
					}
					// Merge late in life, then keep mutating: parity must
					// survive the swap.
					if err := e.Merge(); err != nil {
						t.Fatal(err)
					}
					extra := genScript(13, c.clone(), 30, vocab)
					for _, m := range extra {
						apply(t, e, c, m)
					}
					checkLiveParity(t, e, c, queries, "post-merge")
				})
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Quiesced golden parity: after Quiesce the engine must be byte-identical to
// a freshly built engine over the same logical corpus — docs, candidate
// counts, migration decisions, op traces, and simulated timings — at one and
// two devices, with the batching stage off and on.
// ---------------------------------------------------------------------------

type goldenOp struct {
	Stage    string
	Where    string
	Ratio    float64
	ShortLen int
	LongLen  int
	OutLen   int
	TookNS   int64
}

type goldenPlanOp struct {
	Kind      string
	Where     string
	Device    int
	Peer      bool
	Term      string
	NIn, NOut int
	Bytes     int64
	TookNS    int64
	BatchSize int
}

type goldenQuery struct {
	Docs       []docBits
	Candidates int
	Migrated   bool
	GPUWaitNS  int64
	LatencyNS  int64
	Ops        []goldenOp
	Plan       []goldenPlanOp
}

// engineResult reads a live engine's result as its serving engine's: the
// one shard's record, under the cluster's docs and critical path — which
// a one-shard cluster must leave exactly as the engine reported them.
func engineResult(r *ClusterResult) *core.Result {
	st := r.Stats.Shards[0].Query
	st.Latency = r.Stats.Latency
	return &core.Result{Docs: r.Docs, Stats: st}
}

func golden(r *core.Result) goldenQuery {
	g := goldenQuery{
		Docs:       bitsOf(r),
		Candidates: r.Stats.Candidates,
		Migrated:   r.Stats.Migrated,
		GPUWaitNS:  int64(r.Stats.GPUWait),
		LatencyNS:  int64(r.Stats.Latency),
	}
	for _, op := range r.Stats.Ops {
		g.Ops = append(g.Ops, goldenOp{
			Stage: op.Stage, Where: op.Where.String(), Ratio: op.Ratio,
			ShortLen: op.ShortLen, LongLen: op.LongLen, OutLen: op.OutLen,
			TookNS: int64(op.Took),
		})
	}
	for _, op := range r.Stats.Plan {
		// BatchID is a device-lifetime counter, deliberately excluded: the
		// live engine's devices served merge traffic before the quiesced
		// queries ran.
		g.Plan = append(g.Plan, goldenPlanOp{
			Kind: op.Kind.String(), Where: op.Where.String(), Device: op.Device,
			Peer: op.Peer, Term: op.Term, NIn: op.NIn, NOut: op.NOut,
			Bytes: op.Bytes, TookNS: int64(op.Took), BatchSize: op.BatchSize,
		})
	}
	return g
}

func TestQuiescedGoldenParity(t *testing.T) {
	const vocab = 16
	base := seedCorpus(21, 150, vocab)
	script := genScript(22, base.clone(), 80, vocab)

	for _, devices := range []int{1, 2} {
		for _, batch := range []time.Duration{0, 200 * time.Microsecond} {
			name := fmt.Sprintf("devices=%d/batch=%v", devices, batch > 0)
			t.Run(name, func(t *testing.T) {
				mkCfg := func() core.Config {
					return core.Config{
						Mode:        core.Hybrid,
						Device:      gpu.New(hwmodel.DefaultGPU(), 0),
						Devices:     devices,
						BatchWindow: batch,
					}
				}
				c := base.clone()
				e, err := New(c.build(t, index.CodecEF), Config{Engine: mkCfg()})
				if err != nil {
					t.Fatal(err)
				}
				defer e.Close()
				for _, m := range script {
					apply(t, e, c, m)
				}
				// Serve a few queries against the un-merged delta first: the
				// quiesced state must not depend on prior read traffic.
				for _, q := range queryLog(vocab)[:4] {
					if _, err := e.Search(q); err != nil {
						t.Fatal(err)
					}
				}
				if err := e.Quiesce(); err != nil {
					t.Fatal(err)
				}
				if lag := e.Stats().Lag(); lag != 0 {
					t.Fatalf("post-quiesce lag = %d", lag)
				}

				fresh, err := core.New(c.build(t, index.CodecEF), mkCfg())
				if err != nil {
					t.Fatal(err)
				}
				for qi, q := range queryLog(vocab) {
					lr, err := e.Search(q)
					if err != nil {
						t.Fatalf("q%d live: %v", qi, err)
					}
					fr, err := fresh.Search(q)
					if err != nil {
						t.Fatalf("q%d fresh: %v", qi, err)
					}
					lg, fg := golden(engineResult(lr)), golden(fr)
					if fmt.Sprintf("%+v", lg) != fmt.Sprintf("%+v", fg) {
						t.Errorf("q%d %v: quiesced engine diverges from fresh build\n live=%+v\nfresh=%+v",
							qi, q, lg, fg)
					}
				}
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Merged segment vs fresh build: the re-encoded index must match a from-
// scratch build structurally — same dictionary, same compressed blocks
// (both codecs), same statistics — including tombstone-only lists (term
// leaves the dictionary) and delta-only terms (term enters it). A merge
// that drains a one-shard cluster's delta leaves a clean snapshot: the
// frozen-corpus path answers, plans and prices exactly as a fresh engine.
// ---------------------------------------------------------------------------

func TestMergedIndexMatchesFreshBuild(t *testing.T) {
	c := newLogicalCorpus()
	// Hand-built corpus: "rare" lives only in docs 3 and 7; "solo" only in
	// doc 5. Deleting 3+7 must drop "rare" from the merged dictionary.
	for id := 0; id < 40; id++ {
		toks := []string{word(id % 4), word(id % 7), word(0)}
		switch id {
		case 3, 7:
			toks = append(toks, "rare")
		case 5:
			toks = append(toks, "solo", "solo")
		}
		c.docs[uint32(id)] = toks
	}
	muts := []mutation{
		{kind: wal.OpDelete, docID: 3},
		{kind: wal.OpDelete, docID: 7}, // "rare" now tombstone-only
		{kind: wal.OpUpdate, docID: 5, tokens: []string{word(0), word(1), "newterm"}},
		{kind: wal.OpAdd, docID: 64, tokens: []string{"newterm", word(2), word(2)}},
		{kind: wal.OpUpdate, docID: 12, tokens: []string{word(3), word(3), word(5)}},
	}
	for _, b := range engineBackends {
		t.Run(b.name, func(t *testing.T) {
			c := c.clone()
			e, err := b.open(c.build(t, index.CodecBoth), Config{Engine: core.Config{Mode: core.CPUOnly}})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()

			// An empty-delta merge is a no-op.
			if err := e.Merge(); err != nil {
				t.Fatal(err)
			}
			if e.Stats().Merges != 0 {
				t.Fatalf("empty merge committed: %+v", e.Stats())
			}
			for _, m := range muts {
				apply(t, e, c, m)
			}
			if err := e.Merge(); err != nil {
				t.Fatal(err)
			}
			if lag := e.Stats().Lag(); lag != 0 {
				t.Fatalf("post-merge lag = %d", lag)
			}

			got, want := segment(e, 0), c.build(t, index.CodecBoth)
			if got.NumDocs != want.NumDocs {
				t.Errorf("NumDocs = %d, want %d", got.NumDocs, want.NumDocs)
			}
			if got.AvgDocLen != want.AvgDocLen {
				t.Errorf("AvgDocLen = %v, want %v", got.AvgDocLen, want.AvgDocLen)
			}
			if fmt.Sprint(got.DocLens) != fmt.Sprint(want.DocLens) {
				t.Errorf("DocLens diverge:\n got=%v\nwant=%v", got.DocLens, want.DocLens)
			}
			gt, wt := got.Terms(), want.Terms()
			if fmt.Sprint(gt) != fmt.Sprint(wt) {
				t.Fatalf("dictionaries diverge:\n got=%v\nwant=%v", gt, wt)
			}
			if _, ok := got.Lookup("rare"); ok {
				t.Error("fully tombstoned term 'rare' still in merged dictionary")
			}
			if _, ok := got.Lookup("newterm"); !ok {
				t.Error("delta-only term 'newterm' missing from merged dictionary")
			}
			for _, term := range wt {
				gp, _ := got.Lookup(term)
				wp, _ := want.Lookup(term)
				if gp.N != wp.N {
					t.Errorf("term %q: N = %d, want %d", term, gp.N, wp.N)
					continue
				}
				if fmt.Sprint(gp.EF.Decompress()) != fmt.Sprint(wp.EF.Decompress()) {
					t.Errorf("term %q: EF postings diverge", term)
				}
				if (gp.PFD == nil) != (wp.PFD == nil) {
					t.Errorf("term %q: PFD presence %v vs %v", term, gp.PFD != nil, wp.PFD != nil)
				} else if gp.PFD != nil && fmt.Sprint(gp.PFD.Decompress()) != fmt.Sprint(wp.PFD.Decompress()) {
					t.Errorf("term %q: PFD postings diverge", term)
				}
				for i := 0; i < gp.N; i++ {
					if gp.Freqs.At(i) != wp.Freqs.At(i) {
						t.Errorf("term %q: freq[%d] = %d, want %d", term, i, gp.Freqs.At(i), wp.Freqs.At(i))
						break
					}
				}
				gs, ws := index.EFView{L: gp.EF}, index.EFView{L: wp.EF}
				for b := 0; b < ws.NumBlocks(); b++ {
					if gs.NumBlocks() != ws.NumBlocks() || gs.BlockFirst(b) != ws.BlockFirst(b) {
						t.Errorf("term %q: skip pointers diverge at block %d", term, b)
						break
					}
				}
			}

			e.refresh()
			if !e.snap.Load().clean {
				t.Error("a drained one-shard cluster's snapshot is not clean")
			}
			fresh, err := core.New(want, core.Config{Mode: core.CPUOnly})
			if err != nil {
				t.Fatal(err)
			}
			for qi, q := range append(queryLog(7), []string{"newterm"}, []string{"solo", word(0)}) {
				lr, err := e.Search(q)
				if err != nil {
					t.Fatalf("q%d live: %v", qi, err)
				}
				fr, err := fresh.Search(q)
				if err != nil {
					t.Fatalf("q%d fresh: %v", qi, err)
				}
				if lg, fg := golden(engineResult(lr)), golden(fr); fmt.Sprintf("%+v", lg) != fmt.Sprintf("%+v", fg) {
					t.Errorf("q%d %v: drained cluster diverges from a fresh engine\n live=%+v\nfresh=%+v", qi, q, lg, fg)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------------
// Merge aborts: injected faults on the merge path abort the attempt without
// tearing the published snapshot, and bounded retries recover.
// ---------------------------------------------------------------------------

func TestMergeAbortRetries(t *testing.T) { testMergeAbortRetries(t, engineBackends) }
func TestClusterMergeAbort(t *testing.T) { testMergeAbortRetries(t, clusterBackends) }

func testMergeAbortRetries(t *testing.T, backends []liveBackend) {
	const vocab = 12
	base := seedCorpus(31, 60, vocab)
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			c := base.clone()
			// First two merge admissions at each shard's site fail, the
			// third goes through.
			inj := fault.NewInjector(fault.Plan{Seed: 5, Rules: []fault.Rule{
				{Kind: fault.EngineError, Rate: 1, Until: 2},
			}})
			e, err := b.open(c.build(t, index.CodecEF), Config{
				Engine: core.Config{Mode: core.CPUOnly},
				Fault:  inj,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			for _, m := range genScript(32, c.clone(), 25, vocab) {
				apply(t, e, c, m)
			}
			if err := e.Merge(); err != nil {
				t.Fatalf("merge should survive 2 aborts per shard with default retries: %v", err)
			}
			st := e.Stats()
			if st.Aborts != int64(2*b.shards) || st.Merges != int64(b.shards) {
				t.Errorf("aborts=%d merges=%d, want %d/%d", st.Aborts, st.Merges, 2*b.shards, b.shards)
			}
			if st.DeltaDocs != 0 {
				t.Errorf("delta not drained after successful merge: %d records", st.DeltaDocs)
			}
			// Where the same engine-error rule covers the serving sites too
			// (OpenCluster), burn its two per-site opportunities with
			// throwaway queries, then require parity.
			for i := 0; i < 2; i++ {
				_, _ = e.Search([]string{word(0)})
			}
			checkLiveParity(t, e, c, queryLog(vocab), "post-retry")
		})
	}
}

func TestMergeAbortNeverTearsSnapshot(t *testing.T) {
	const vocab = 12
	base := seedCorpus(41, 60, vocab)
	c := base.clone()
	inj := fault.NewInjector(fault.Plan{Seed: 6, Rules: []fault.Rule{
		{Kind: fault.EngineError, Rate: 1}, // every merge admission fails
	}})
	e, err := New(c.build(t, index.CodecEF), Config{
		Engine: core.Config{Mode: core.CPUOnly},
		Fault:  inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, m := range genScript(42, c.clone(), 20, vocab) {
		apply(t, e, c, m)
	}
	before := e.Stats()
	err = e.Merge()
	if !fault.IsEngineFault(err) {
		t.Fatalf("merge error = %v, want injected engine fault", err)
	}
	after := e.Stats()
	if after.Merges != 0 || after.Aborts != mergeRetries+1 {
		t.Errorf("merges=%d aborts=%d, want 0/%d", after.Merges, after.Aborts, mergeRetries+1)
	}
	if after.DeltaDocs != before.DeltaDocs || after.Gen != before.Gen {
		t.Errorf("aborted merge mutated writer state: %+v vs %+v", before, after)
	}
	if e.Stats().MergedGen != 0 {
		t.Errorf("aborted merge advanced MergedGen to %d", e.Stats().MergedGen)
	}
	// Reads after the failed merge are still exact.
	checkLiveParity(t, e, c, queryLog(vocab), "post-abort")
}

// ---------------------------------------------------------------------------
// Merge/query interference: merge re-encoding occupies the shared device
// lanes, so a query arriving behind it queues.
// ---------------------------------------------------------------------------

func TestMergeInterferenceOnSharedDevice(t *testing.T) {
	const vocab = 16
	base := seedCorpus(51, 400, vocab)
	c := base.clone()
	e, err := New(c.build(t, index.CodecEF), Config{
		Engine: core.Config{Mode: core.Hybrid, Device: gpu.New(hwmodel.DefaultGPU(), 0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for _, m := range genScript(52, c.clone(), 120, vocab) {
		apply(t, e, c, m)
	}
	if err := e.MergeAt(0); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.MergeDevice <= 0 {
		t.Errorf("merge billed no device time: %+v", st)
	}
	if st.MergeCPU <= 0 {
		t.Errorf("merge billed no CPU encode time: %+v", st)
	}
	// A query arriving while the merge's device work is still queued waits.
	r, err := e.Query(context.Background(), cluster.Request{Terms: []string{word(0), word(1)}, Timed: true})
	if err != nil {
		t.Fatal(err)
	}
	if wait := r.Stats.Shards[0].Query.GPUWait; wait <= 0 {
		t.Errorf("query behind merge backlog saw no GPUWait (got %v)", wait)
	}
}

// ---------------------------------------------------------------------------
// One query path: Search is Query with only Terms set; the live layer
// decorates the request (pinned snapshot's overlay, Gen stamp) and the
// rest of it — arrival, ctx — reaches the serving engine.
// ---------------------------------------------------------------------------

func TestEngineQueryOnePath(t *testing.T) {
	testQueryOnePath(t, engineBackends, "Search equals Query")
}

func TestClusterQueryOnePath(t *testing.T) {
	testQueryOnePath(t, clusterBackends, "caller overlay replaced")
}

// testQueryOnePath runs the one-path laws over backends; overlayCase
// names the first law's subtest in the calling test.
func testQueryOnePath(t *testing.T, backends []liveBackend, overlayCase string) {
	const vocab = 16
	base := seedCorpus(53, 200, vocab)
	script := genScript(54, base.clone(), 60, vocab)
	live := func(t *testing.T, b liveBackend) *Cluster {
		c := base.clone()
		e, err := b.open(c.build(t, index.CodecEF), Config{
			Engine: core.Config{Mode: core.Hybrid, Device: gpu.New(hwmodel.DefaultGPU(), 0)},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { e.Close() })
		for _, m := range script {
			apply(t, e, c, m)
		}
		return e
	}

	t.Run(overlayCase, func(t *testing.T) {
		for _, b := range backends {
			t.Run(b.name, func(t *testing.T) {
				shim, direct := live(t, b), live(t, b)
				for qi, q := range queryLog(vocab) {
					want, err := shim.Search(q)
					if err != nil {
						t.Fatalf("q%d Search: %v", qi, err)
					}
					// A caller-supplied overlay is replaced by the snapshot's:
					// empty shard overlays would otherwise hide the unmerged
					// deltas.
					got, err := direct.Query(context.Background(), cluster.Request{Terms: q, Overlay: make(shardOverlays, b.shards)})
					if err != nil {
						t.Fatalf("q%d Query: %v", qi, err)
					}
					if got.Gen != want.Gen || !sameDocs(bitsOf(got.Result), bitsOf(want.Result)) ||
						!reflect.DeepEqual(got.Stats, want.Stats) {
						t.Fatalf("q%d %v diverges:\n got gen %d %+v\nwant gen %d %+v", qi, q, got.Gen, got.Result, want.Gen, want.Result)
					}
				}
			})
		}
	})

	t.Run("timed query under a cancelled ctx", func(t *testing.T) {
		for _, b := range backends {
			t.Run(b.name, func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				_, err := live(t, b).Query(ctx, cluster.Request{Terms: queryLog(vocab)[0], Timed: true})
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("error = %v, want context.Canceled", err)
				}
			})
		}
	})
}

// ---------------------------------------------------------------------------
// Mutation validation: bad requests are typed client errors and leave no
// trace in the delta.
// ---------------------------------------------------------------------------

func TestMutationValidation(t *testing.T) {
	c := seedCorpus(61, 10, 8)
	e, err := New(c.build(t, index.CodecEF), Config{Engine: core.Config{Mode: core.CPUOnly}})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	cases := []struct {
		name string
		call func() error
	}{
		{"add existing", func() error { return e.Add(3, []string{"x"}) }},
		{"add empty", func() error { return e.Add(100, nil) }},
		{"update empty", func() error { return e.Update(3, nil) }},
		{"delete missing", func() error { return e.Delete(100) }},
		{"op outside the WAL's three", func() error { return e.Apply(wal.Op(0), 100, []string{"x"}) }},
	}
	for _, tc := range cases {
		err := tc.call()
		if err == nil || !IsInvalid(err) {
			t.Errorf("%s: err = %v, want invalid-mutation error", tc.name, err)
		}
	}
	if e.Gen() != 0 {
		t.Errorf("rejected mutations advanced gen to %d", e.Gen())
	}
	// Upsert via Update of a brand-new doc is legal; re-adding after a
	// delete is legal too.
	if err := e.Update(200, []string{"x", "y"}); err != nil {
		t.Errorf("upsert update: %v", err)
	}
	if err := e.Delete(200); err != nil {
		t.Errorf("delete upserted doc: %v", err)
	}
	if err := e.Add(200, []string{"z"}); err != nil {
		t.Errorf("re-add after delete: %v", err)
	}
}

// ---------------------------------------------------------------------------
// AutoMerge: crossing the threshold kicks off a background merge that
// eventually drains the delta.
// ---------------------------------------------------------------------------

func TestAutoMergeBackground(t *testing.T) {
	const vocab = 12
	base := seedCorpus(71, 50, vocab)
	c := base.clone()
	e, err := New(c.build(t, index.CodecEF), Config{
		Engine:         core.Config{Mode: core.CPUOnly},
		MergeThreshold: 10,
		AutoMerge:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range genScript(72, c.clone(), 40, vocab) {
		apply(t, e, c, m)
	}
	// The background merge goroutine commits asynchronously; wait for it.
	deadline := time.Now().Add(10 * time.Second)
	for e.Stats().Merges == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if e.Stats().Merges == 0 {
		t.Fatalf("no background merge committed: %+v", e.Stats())
	}
	checkLiveParity(t, e, c, queryLog(vocab), "post-automerge")

	e.Close() // drains any still-in-flight background merge
	if _, err := e.Search([]string{word(0)}); err != ErrClosed {
		t.Errorf("search after close: err = %v, want ErrClosed", err)
	}
	if err := e.Add(9_999, []string{"x"}); err != ErrClosed {
		t.Errorf("add after close: err = %v, want ErrClosed", err)
	}
	if err := e.Merge(); err != ErrClosed {
		t.Errorf("merge after close: err = %v, want ErrClosed", err)
	}
}

// ---------------------------------------------------------------------------
// Snapshot isolation under -race: concurrent Add/Delete/Search with
// background merges. Every result must be bit-identical to a quiesced
// engine holding exactly the first Result.Gen mutations — no torn reads,
// and each reader observes a monotonically advancing generation.
// ---------------------------------------------------------------------------

func TestConcurrentSnapshotIsolation(t *testing.T) {
	const vocab = 10
	base := seedCorpus(81, 40, vocab)
	script := genScript(82, base.clone(), 36, vocab)
	queries := [][]string{{word(0)}, {word(0), word(1)}, {word(1), word(2)}}

	// Precompute, per generation g, the exact expected results over the
	// corpus holding the first g mutations (CPU-only reference: all modes
	// are bit-identical on ranked docs).
	expected := make([]map[int][]docBits, len(script)+1)
	{
		c := base.clone()
		for g := 0; g <= len(script); g++ {
			if g > 0 {
				m := script[g-1]
				switch m.kind {
				case wal.OpDelete:
					delete(c.docs, m.docID)
				default:
					c.docs[m.docID] = m.tokens
				}
			}
			ref, err := core.New(c.build(t, index.CodecEF), core.Config{Mode: core.CPUOnly})
			if err != nil {
				t.Fatal(err)
			}
			expected[g] = make(map[int][]docBits, len(queries))
			for qi, q := range queries {
				r, err := ref.Search(q)
				if err != nil {
					t.Fatal(err)
				}
				expected[g][qi] = bitsOf(r)
			}
		}
	}

	c := base.clone()
	e, err := New(c.build(t, index.CodecEF), Config{
		Engine:         core.Config{Mode: core.Hybrid, Device: gpu.New(hwmodel.DefaultGPU(), 0)},
		MergeThreshold: 8,
		AutoMerge:      true,
	})
	if err != nil {
		t.Fatal(err)
	}

	var (
		wg   sync.WaitGroup
		done = make(chan struct{})
		errs = make(chan string, 64)
	)
	// Writer: replay the script, interleaving explicit merges with the
	// auto-merge goroutines.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i, m := range script {
			var err error
			switch m.kind {
			case wal.OpAdd:
				err = e.Add(m.docID, m.tokens)
			case wal.OpUpdate:
				err = e.Update(m.docID, m.tokens)
			case wal.OpDelete:
				err = e.Delete(m.docID)
			}
			if err != nil {
				errs <- fmt.Sprintf("writer step %d: %v", i, err)
				return
			}
			if i%12 == 11 {
				if err := e.Merge(); err != nil {
					errs <- fmt.Sprintf("writer merge at %d: %v", i, err)
					return
				}
			}
		}
	}()
	// Readers: hammer the fixed queries, checking every result against the
	// generation it claims to have observed.
	for reader := 0; reader < 4; reader++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastGen uint64
			for {
				select {
				case <-done:
					return
				default:
				}
				for qi, q := range queries {
					r, err := e.Search(q)
					if err != nil {
						errs <- fmt.Sprintf("reader q%d: %v", qi, err)
						return
					}
					if r.Gen > uint64(len(script)) {
						errs <- fmt.Sprintf("reader q%d: gen %d beyond script", qi, r.Gen)
						return
					}
					if r.Gen < lastGen {
						errs <- fmt.Sprintf("reader q%d: gen went backwards %d -> %d", qi, lastGen, r.Gen)
						return
					}
					lastGen = r.Gen
					if got, want := bitsOf(r.Result), expected[r.Gen][qi]; !sameDocs(got, want) {
						errs <- fmt.Sprintf("reader q%d gen %d: torn result\n got=%v\nwant=%v", qi, r.Gen, got, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Error(msg)
	}

	// Final quiesce: the surviving engine collapses to the fully merged
	// corpus and stays exact.
	if err := e.Quiesce(); err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		r, err := e.Search(q)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := bitsOf(r.Result), expected[len(script)][qi]; !sameDocs(got, want) {
			t.Errorf("post-quiesce q%d: got=%v want=%v", qi, got, want)
		}
	}
	e.Close()
}
