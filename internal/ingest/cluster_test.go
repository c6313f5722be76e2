package ingest

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"griffin/internal/cluster"
	"griffin/internal/core"
	"griffin/internal/fault"
	"griffin/internal/index"
	"griffin/internal/wal"
	"griffin/internal/workload"
)

// applyCluster replays one mutation into both the live cluster and the
// logical corpus.
func applyCluster(t testing.TB, c *Cluster, lc *logicalCorpus, m mutation) {
	t.Helper()
	err := c.Apply(m.kind, m.docID, m.tokens)
	if m.kind == wal.OpDelete {
		delete(lc.docs, m.docID)
	} else {
		lc.docs[m.docID] = m.tokens
	}
	if err != nil {
		t.Fatalf("mutation %+v: %v", m, err)
	}
}

func clusterBits(r *ClusterResult) []docBits {
	out := make([]docBits, len(r.Docs))
	for i, d := range r.Docs {
		out[i] = docBits{DocID: d.DocID, Bits: math.Float32bits(d.Score)}
	}
	return out
}

// checkClusterParity asserts the live cluster's ranked results are
// bit-identical to a freshly built single engine over the same logical
// corpus — the scatter-gather merge reproduces the single-engine top-k
// whenever per-shard scores carry global statistics, live or stamped.
func checkClusterParity(t *testing.T, c *Cluster, lc *logicalCorpus, queries [][]string, tag string) {
	t.Helper()
	fresh, err := core.New(lc.build(t, index.CodecEF), core.Config{Mode: core.CPUOnly})
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		cr, err := c.Query(context.Background(), cluster.Request{Terms: q})
		if err != nil {
			t.Fatalf("%s q%d cluster: %v", tag, qi, err)
		}
		fr, err := fresh.Search(q)
		if err != nil {
			t.Fatalf("%s q%d fresh: %v", tag, qi, err)
		}
		fb := bitsOf(fr)
		if k := 10; len(fb) > k { // cluster TopK default
			fb = fb[:k]
		}
		if cb := clusterBits(cr); !sameDocs(cb, fb) {
			t.Errorf("%s q%d %v: docs diverge\ncluster=%v\n  fresh=%v", tag, qi, q, cb, fb)
		}
	}
}

func TestClusterLiveParity(t *testing.T) {
	const vocab = 16
	base := seedCorpus(21, 150, vocab)
	script := genScript(22, base.clone(), 80, vocab)
	script = append(script, mutation{
		kind: wal.OpUpdate, docID: 9_000, tokens: []string{"fresh-term", word(0), word(0), word(1)},
	})

	modes := map[string]core.Config{
		"cpu":    {Mode: core.CPUOnly},
		"hybrid": {Mode: core.Hybrid},
	}
	for name, ecfg := range modes {
		t.Run(name, func(t *testing.T) {
			lc := base.clone()
			c, err := OpenCluster(lc.build(t, index.CodecEF), ClusterConfig{
				Shards:  2,
				Cluster: cluster.Config{Engine: ecfg},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			queries := queryLog(vocab)
			checkClusterParity(t, c, lc, queries, "seed")
			for i, m := range script {
				applyCluster(t, c, lc, m)
				if (i+1)%20 == 0 || i == len(script)-1 {
					checkClusterParity(t, c, lc, queries, fmt.Sprintf("step%d", i+1))
				}
				if i == len(script)/2 {
					// Mid-life per-shard merges: segments swap under
					// traffic, stats stamps go best-effort, parity holds.
					for s := 0; s < 2; s++ {
						if err := c.MergeShard(s); err != nil {
							t.Fatalf("merge shard %d: %v", s, err)
						}
					}
					checkClusterParity(t, c, lc, queries, "post-merge")
				}
			}
			if got, _ := c.Progress(); got != uint64(len(script)) {
				t.Errorf("gen = %d, want %d", got, len(script))
			}
			st := c.Stats()
			if st.Adds+st.Updates+st.Deletes != int64(len(script)) {
				t.Errorf("mutation counters %d+%d+%d != %d", st.Adds, st.Updates, st.Deletes, len(script))
			}
			if st.Merges != 2 {
				t.Errorf("merges = %d, want 2", st.Merges)
			}
			if st.Shards != 2 || len(st.ShardDocs) != 2 {
				t.Errorf("shards = %d (docs %v), want 2", st.Shards, st.ShardDocs)
			}
		})
	}
}

// TestClusterQueryOnePath: Search is Query with only Terms set; the
// live layer decorates the request (pinned snapshot's per-shard
// overlays, Gen stamp) and the rest of it — arrival, ctx — reaches the
// serving cluster.
func TestClusterQueryOnePath(t *testing.T) {
	const vocab = 16
	base := seedCorpus(23, 150, vocab)
	script := genScript(24, base.clone(), 60, vocab)
	live := func(t *testing.T) *Cluster {
		lc := base.clone()
		c, err := OpenCluster(lc.build(t, index.CodecEF), ClusterConfig{
			Shards:  2,
			Cluster: cluster.Config{Engine: core.Config{Mode: core.Hybrid}},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		for _, m := range script {
			applyCluster(t, c, lc, m)
		}
		return c
	}

	t.Run("caller overlay replaced", func(t *testing.T) {
		bare, direct := live(t), live(t)
		for qi, q := range queryLog(vocab) {
			want, err := bare.Query(context.Background(), cluster.Request{Terms: q})
			if err != nil {
				t.Fatalf("q%d bare Query: %v", qi, err)
			}
			// A caller-supplied overlay is replaced by the snapshot's: empty
			// shard overlays would otherwise hide the unmerged deltas.
			got, err := direct.Query(context.Background(), cluster.Request{Terms: q, Overlay: make(shardOverlays, 2)})
			if err != nil {
				t.Fatalf("q%d Query: %v", qi, err)
			}
			if got.Gen != want.Gen || !sameDocs(clusterBits(got), clusterBits(want)) ||
				!reflect.DeepEqual(got.Stats, want.Stats) {
				t.Fatalf("q%d %v diverges:\n got gen %d %+v\nwant gen %d %+v", qi, q, got.Gen, got.Result, want.Gen, want.Result)
			}
		}
	})

	t.Run("timed query under a cancelled ctx", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := live(t).Query(ctx, cluster.Request{Terms: queryLog(vocab)[0], Timed: true})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("error = %v, want context.Canceled", err)
		}
	})
}

// TestClusterQuiescedGoldenParity: after mutations and a Quiesce
// (rebuild), the live cluster must be indistinguishable from a cluster
// freshly built over the partitioned live corpus — documents, scores,
// per-shard latencies, and scatter-gather stats alike.
func TestClusterQuiescedGoldenParity(t *testing.T) {
	const vocab = 16
	lc := seedCorpus(31, 150, vocab)
	script := genScript(32, lc.clone(), 60, vocab)

	ccfg := cluster.Config{Engine: core.Config{Mode: core.Hybrid}}
	live, err := OpenCluster(lc.build(t, index.CodecBoth), ClusterConfig{
		Shards: 2, Cluster: ccfg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer live.Close()
	live.cfg.Codec = index.CodecBoth // rebuild in the seed's forms, not a served cluster's CodecEF

	queries := queryLog(vocab)
	for i, m := range script {
		applyCluster(t, live, lc, m)
		if i%17 == 0 { // keep read traffic flowing while mutating
			if _, err := live.Query(context.Background(), cluster.Request{Terms: queries[i%len(queries)]}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := live.Quiesce(); err != nil {
		t.Fatal(err)
	}
	st := live.Stats()
	if st.DeltaDocs != 0 {
		t.Fatalf("quiesced delta docs = %d, want 0", st.DeltaDocs)
	}
	if st.Rebuilds != 1 {
		t.Errorf("rebuilds = %d, want 1", st.Rebuilds)
	}

	ixs, err := workload.PartitionIndex(lc.build(t, index.CodecBoth), 2)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := cluster.New(ixs, ccfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()

	for qi, q := range queries {
		lr, err := live.Query(context.Background(), cluster.Request{Terms: q})
		if err != nil {
			t.Fatalf("q%d live: %v", qi, err)
		}
		rr, err := ref.Search(nil, q)
		if err != nil {
			t.Fatalf("q%d ref: %v", qi, err)
		}
		if got, want := clusterGolden(lr.Result), clusterGolden(rr); got != want {
			t.Errorf("q%d %v diverges\n live=%s\nfresh=%s", qi, q, got, want)
		}
	}
}

// clusterGolden renders the comparison-relevant portion of a cluster
// result: ranked docs (bit-exact scores) plus the scatter-gather timing
// and each shard's execution record.
func clusterGolden(r *cluster.Result) string {
	s := fmt.Sprintf("docs=%v lat=%v max=%v merge=%v",
		docBitsOf(r), r.Stats.Latency, r.Stats.MaxShard, r.Stats.MergeTime)
	for _, sh := range r.Stats.Shards {
		s += fmt.Sprintf(" [s%dr%d eff=%v cand=%d cpu=%v gpu=%v wait=%v mig=%v lat=%v]",
			sh.Shard, sh.Replica, sh.Effective, sh.Query.Candidates,
			sh.Query.CPUTime, sh.Query.GPUTime, sh.Query.GPUWait, sh.Query.Migrated, sh.Query.Latency)
	}
	return s
}

func docBitsOf(r *cluster.Result) []docBits {
	out := make([]docBits, len(r.Docs))
	for i, d := range r.Docs {
		out[i] = docBits{DocID: d.DocID, Bits: math.Float32bits(d.Score)}
	}
	return out
}

// TestClusterSplit: crossing the shard-size watermark triggers a
// background split that re-partitions the corpus into one more shard,
// with routing updated for queries and mutations mid-flight.
func TestClusterSplit(t *testing.T) {
	const vocab = 16
	lc := seedCorpus(41, 60, vocab)
	c, err := OpenCluster(lc.build(t, index.CodecEF), ClusterConfig{
		Shards:         2,
		Cluster:        cluster.Config{Engine: core.Config{Mode: core.CPUOnly}},
		SplitWatermark: 45,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Explicit split first: 2 → 3 shards, parity preserved.
	if err := c.Split(); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats().Shards; got != 3 {
		t.Fatalf("shards after explicit split = %d, want 3", got)
	}
	queries := queryLog(vocab)
	checkClusterParity(t, c, lc, queries, "explicit-split")

	// Now push one shard past the watermark (docIDs ≡ 0 mod 3 land on
	// shard 0) and keep mutating until the background split lands.
	next := uint32(10_000) // ShardOf(10000+3k, 3) == (10000+3k)%3
	for added := 0; added < 90; added++ {
		id := next
		next += 3
		m := mutation{kind: wal.OpAdd, docID: id, tokens: genDoc(rand.New(rand.NewSource(int64(added))), vocab)}
		applyCluster(t, c, lc, m)
	}
	deadline := time.Now().Add(10 * time.Second)
	for c.Stats().Shards == 3 {
		if time.Now().After(deadline) {
			st := c.Stats()
			t.Fatalf("watermark split never fired: shards=%d docs=%v", st.Shards, st.ShardDocs)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.Stats().Shards; got != 4 {
		t.Fatalf("shards after watermark split = %d, want 4", got)
	}
	st := c.Stats()
	if st.Splits < 1 {
		t.Errorf("splits = %d, want >= 1", st.Splits)
	}
	checkClusterParity(t, c, lc, queries, "watermark-split")

	// Routing after the split: mutations to fresh docIDs land on the new
	// topology and stay queryable.
	m := mutation{kind: wal.OpAdd, docID: 50_000, tokens: []string{"fresh-term", word(0), word(1)}}
	applyCluster(t, c, lc, m)
	checkClusterParity(t, c, lc, queries, "post-split-ingest")
}

// TestClusterMergeAbort: injected engine faults on a shard's merge path
// abort the attempt without tearing the published snapshot; the merge
// retries into success and parity holds throughout.
func TestClusterMergeAbort(t *testing.T) {
	const vocab = 16
	lc := seedCorpus(51, 80, vocab)
	inj := fault.NewInjector(fault.Plan{
		Seed:  7,
		Rules: []fault.Rule{{Kind: fault.EngineError, Rate: 1, Until: 2}},
	})
	c, err := OpenCluster(lc.build(t, index.CodecEF), ClusterConfig{
		Shards:  2,
		Cluster: cluster.Config{Engine: core.Config{Mode: core.CPUOnly}, Fault: inj},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	script := genScript(52, lc.clone(), 20, vocab)
	for _, m := range script {
		applyCluster(t, c, lc, m)
	}
	for s := 0; s < 2; s++ {
		if err := c.MergeShard(s); err != nil {
			t.Fatalf("merge shard %d: %v", s, err)
		}
	}
	st := c.Stats()
	if st.Aborts != 4 { // 2 injected aborts per shard site before the rule expires
		t.Errorf("aborts = %d, want 4", st.Aborts)
	}
	if st.Merges < 1 || st.DeltaDocs != 0 {
		t.Errorf("merges = %d deltaDocs = %d, want merged clean", st.Merges, st.DeltaDocs)
	}
	// The same engine-error rule covers the serving sites: burn its two
	// per-site opportunities with throwaway queries, then require parity.
	for i := 0; i < 2; i++ {
		_, _ = c.Query(context.Background(), cluster.Request{Terms: []string{word(0)}})
	}
	checkClusterParity(t, c, lc, queryLog(vocab), "post-abort")
}

// TestClusterConcurrentSnapshotIsolation: concurrent mutations, shard
// merges, a split, and readers — every result must be bit-identical to a
// quiesced corpus at the generation its snapshot reports, and observed
// generations must be monotone per reader.
func TestClusterConcurrentSnapshotIsolation(t *testing.T) {
	const vocab = 12
	base := seedCorpus(61, 40, vocab)
	script := genScript(62, base.clone(), 30, vocab)
	queries := [][]string{{word(0)}, {word(0), word(1)}, {word(1), word(2)}}

	// expected[g][q] is the fresh-build result after the first g mutations.
	expected := make([][][]docBits, len(script)+1)
	{
		lc := base.clone()
		for g := 0; g <= len(script); g++ {
			if g > 0 {
				m := script[g-1]
				if m.kind == wal.OpDelete {
					delete(lc.docs, m.docID)
				} else {
					lc.docs[m.docID] = m.tokens
				}
			}
			eng, err := core.New(lc.build(t, index.CodecEF), core.Config{Mode: core.CPUOnly})
			if err != nil {
				t.Fatal(err)
			}
			expected[g] = make([][]docBits, len(queries))
			for qi, q := range queries {
				r, err := eng.Search(q)
				if err != nil {
					t.Fatal(err)
				}
				b := bitsOf(r)
				if len(b) > 10 {
					b = b[:10]
				}
				expected[g][qi] = b
			}
		}
	}

	c, err := OpenCluster(base.build(t, index.CodecEF), ClusterConfig{
		Shards:         2,
		Cluster:        cluster.Config{Engine: core.Config{Mode: core.CPUOnly}},
		MergeThreshold: 8,
		AutoMerge:      true,
	})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // writer: script + explicit merges + one mid-life split
		defer wg.Done()
		defer close(stop)
		for i, m := range script {
			var err error
			switch m.kind {
			case wal.OpAdd:
				err = c.Apply(wal.OpAdd, m.docID, m.tokens)
			case wal.OpUpdate:
				err = c.Apply(wal.OpUpdate, m.docID, m.tokens)
			case wal.OpDelete:
				err = c.Apply(wal.OpDelete, m.docID, nil)
			}
			if err != nil {
				t.Errorf("writer step %d: %v", i, err)
				return
			}
			if (i+1)%12 == 0 {
				if err := c.MergeShard(i % 2); err != nil {
					t.Errorf("writer merge: %v", err)
				}
			}
			if i == len(script)/2 {
				if err := c.Split(); err != nil {
					t.Errorf("writer split: %v", err)
				}
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			var lastGen uint64
			qi := r % len(queries)
			for {
				select {
				case <-stop:
					return
				default:
				}
				res, err := c.Query(context.Background(), cluster.Request{Terms: queries[qi]})
				if err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				if res.Gen < lastGen {
					t.Errorf("reader %d: gen went backwards %d -> %d", r, lastGen, res.Gen)
					return
				}
				lastGen = res.Gen
				if res.Gen > uint64(len(script)) {
					t.Errorf("reader %d: gen %d beyond script", r, res.Gen)
					return
				}
				if got, want := clusterBits(res), expected[res.Gen][qi]; !sameDocs(got, want) {
					t.Errorf("reader %d gen %d q%d: docs diverge\n got=%v\nwant=%v", r, res.Gen, qi, got, want)
					return
				}
				qi = (qi + 1) % len(queries)
			}
		}(r)
	}
	wg.Wait()

	if err := c.Quiesce(); err != nil {
		t.Fatal(err)
	}
	final, err := c.Query(context.Background(), cluster.Request{Terms: queries[0]})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := clusterBits(final), expected[len(script)][0]; !sameDocs(got, want) {
		t.Errorf("final quiesced: docs diverge\n got=%v\nwant=%v", got, want)
	}
	c.Close()
	if _, err := c.Query(context.Background(), cluster.Request{Terms: queries[0]}); err != ErrClosed {
		t.Errorf("search after close = %v, want ErrClosed", err)
	}
	if err := c.Apply(wal.OpAdd, 99_999, []string{"x"}); err != ErrClosed {
		t.Errorf("add after close = %v, want ErrClosed", err)
	}
}
